(** Replayable repro artifacts.

    When the harness trips a check, [firmament_fuzz] shrinks the trace and
    writes one of these: a small text file holding the harness
    configuration, the failing check, the minimized event trace and a
    DIMACS state dump ({!Flowgraph.Dimacs.emit_state}) of the graph at the
    failure point. [firmament_fuzz --replay FILE] re-runs the trace under
    the recorded configuration and reports whether the same check still
    fires.

    Format (line-oriented, [v1]):
    {v
    firmament-fuzz-artifact v1
    mode <name>            # Mcmf.Race.mode_name
    machines <n>
    slots <n>
    inject-eps <n>
    crash-seed <n>         # optional: crash-recovery artifacts only
    check <check-id>
    detail <one line>
    trace <n-events>
    <one Dcsim.Churn.to_line per event>
    graph
    <Flowgraph.Dimacs.emit_state lines, to EOF>
    v} *)

type t = {
  mode : Mcmf.Race.mode;
  machines : int;
  slots : int;
  inject_eps : int;
  crash_seed : int option;
      (** [Some seed] on crash-recovery failures: the
          {!Harness.run_crash_recovery} seed that determines the kill
          schedule, so replay crashes at the same points *)
  check : string;  (** the check id that fired, e.g. [oracle-cost] *)
  detail : string;  (** human explanation (newlines flattened) *)
  trace : Dcsim.Churn.event list;  (** the (shrunk) failing trace *)
  graph : string;  (** DIMACS state dump of the graph at failure *)
}

(** [of_failure ?crash_seed config failure trace] packages a harness
    failure. [trace] should be the already-shrunk event list. *)
val of_failure :
  ?crash_seed:int -> Harness.config -> Harness.failure -> Dcsim.Churn.event list -> t

(** The harness configuration an artifact replays under: its recorded
    cluster shape and injection, restricted to the single recorded mode. *)
val config : t -> Harness.config

val to_string : t -> string

(** @raise Failure on a malformed artifact. *)
val of_string : string -> t

val save : string -> t -> unit

(** @raise Failure on a malformed artifact, [Sys_error] on I/O. *)
val load : string -> t
