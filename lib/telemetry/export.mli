(** Exporters over {!Metrics} snapshots and {!Trace} rings.

    All exporters are cold-path: they run at end-of-run (or on an
    explicit dump request), never inside a scheduling round, so they are
    free to allocate. *)

val prometheus : Format.formatter -> Metrics.t -> unit
(** Prometheus text exposition format (version 0.0.4): one [# HELP] and
    [# TYPE] comment per metric, histograms expanded to cumulative
    [_bucket{le="..."}] series plus [_sum] and [_count]. Bucket upper
    bounds are the histogram's log₂ boundaries with the overflow bucket
    as [le="+Inf"]. Values are integers (durations are exported in the
    nanosecond unit they were observed in — the [_ns] name suffix is the
    unit marker). *)

val prometheus_string : Metrics.t -> string
(** {!prometheus} rendered to a string — what a scrape endpoint (the
    [firmament_serve] [--metrics-listen] HTTP responder) serves as its
    response body. *)

val json_lines : Format.formatter -> Metrics.t -> unit
(** One JSON object per line per metric:
    [{"name":...,"kind":...,"value":N}] for counters and gauges,
    [{"name":...,"kind":"histogram","count":N,"sum":N,"buckets":[[le,n],...]}]
    for histograms (non-cumulative counts, empty buckets omitted). *)

val pp_summary :
  ?pp_duration:(Format.formatter -> float -> unit) ->
  Format.formatter ->
  Metrics.t ->
  unit
(** Human-readable table. Metrics whose name ends in [_ns] are rendered
    as durations via [pp_duration] (seconds; callers typically pass
    [Dcsim.Stats.pp_duration] — defaults to a plain ["%.6gs"]);
    histograms additionally show count and mean. *)
