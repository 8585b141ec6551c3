(** Firehose load generator: the client side of the scheduler service.

    Drives [firmament_serve] over [connections] concurrent sockets from a
    single-threaded select loop: submits task events at a target rate,
    subscribes to placement pushes on its first connection, honors NACK
    backpressure (bounded retries after the server's retry-after hint),
    and measures {e end-to-end} submit→placement-notification latency per
    task — frame encode, socket, admission queue, solve, commit and push
    all included.

    Two drive modes:
    {ul
    {- {!Synthetic} — an open-loop firehose: jobs of [tasks_per_job]
       tasks at [rate] task events/sec for [duration_s]; every placed
       task reports a [Finish] [task_duration_s] after its placement
       push arrives, so the cluster reaches a finish/submit steady state
       (a sustained rate counts submits {e and} finishes).}
    {- {!Trace} — replays a {!Dcsim.Churn} trace through
       {!Dcsim.Firehose.schedule} at [rate]; index-relative
       [Finish k]/[Preempt k] events are resolved against the client's
       live placement-subscription view, exactly like an external
       cluster manager would.}}

    Client-side telemetry lands in the global registry under [lg_*]
    (counters plus an [lg_e2e_latency_ns] histogram), exportable with the
    standard exporters. *)

type mode =
  | Synthetic of { tasks_per_job : int; task_duration_s : float }
  | Trace of Dcsim.Churn.event list

type config = {
  endpoint : Service.listen;
  connections : int;
  rate : float;  (** target task events per second, all connections *)
  duration_s : float;  (** synthetic send window (ignored by [Trace]) *)
  seed : int;
  mode : mode;
  jid_base : int;  (** first job id (disjoint ranges for parallel clients) *)
  max_retries : int;  (** per-event NACK retry budget before giving up *)
  drain_grace_s : float;  (** wait for in-flight placements after sending *)
}

val default_config : config

type report = {
  elapsed_s : float;  (** wall time of the send window *)
  task_events_sent : int;
      (** submit (weighted by task count) + finish + preempt + machine
          events handed to the socket layer *)
  task_events_acked : int;  (** of those, admitted by the server *)
  achieved_rate : float;  (** acked task events / elapsed send window *)
  submits : int;
  finishes : int;
  nacks : int;
  retries_exhausted : int;
  placements : int;  (** Start notifications received *)
  migrations : int;
  preempt_notices : int;
  protocol_errors : int;
      (** malformed inbound frames + server-reported protocol errors;
          0 on a healthy run *)
  server_shutdown : bool;  (** the server said goodbye mid-run *)
  stats_json : string option;  (** final server stats snapshot *)
  latencies_s : float list;  (** per-task end-to-end placement latency *)
}

(** [run config] connects, drives the firehose to completion and returns
    the report. @raise Unix.Unix_error if the initial connect fails. *)
val run : config -> report

val pp_report : Format.formatter -> report -> unit
