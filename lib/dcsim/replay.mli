(** Trace replay for flow-based schedulers — the equivalent of the paper's
    simulator (§7.1): it runs the {e real} Firmament code (policies, graph
    updates, MCMF solvers) against simulated machines and tasks, stubbing
    only task execution.

    Time accounting follows paper Fig. 2b: while the solver runs (its
    {e measured} wall-clock runtime, on this machine), simulated time
    advances and incoming events accumulate; they are applied before the
    next round. A task's placement latency is the simulated time between
    its submission (or its last return to the wait queue) and the
    completion of the solver run that placed it.
    Slots freed mid-run are reusable only from the next round — the effect
    that hurts long solver runs in Fig. 16. *)

type config = {
  scheduler : Firmament.Scheduler.config;
  policy : Firmament.Policy.factory;
  solver_time : [ `Measured | `Fixed of float ];
      (** [`Measured] charges the solver's measured wall-clock runtime
          {e and} the measured cost of applying each event batch to
          simulated time — the scheduler is busy while it ingests, so
          events queued behind a round delay it just like the solve
          does. [`Fixed] charges exactly the given solve time and nothing for
          ingestion, which makes replay deterministic for tests. *)
  max_sim_time : float option;
  max_rounds : int option;
}

val default_config : config

type metrics = {
  placement_latencies : float list;
      (** one per placement: from submission to the end of the round
          that placed the task, or, for a task placed again after a
          preemption or a machine failure, from that return to the wait
          queue *)
  response_times : float list;  (** per finished batch task *)
  job_response_times : float list;  (** per finished batch job: max task response *)
  algorithm_runtimes : float list;  (** per scheduling round *)
  runtime_timeline : (float * float) list;  (** (sim time, algorithm runtime) *)
  rounds : int;
  degraded_rounds : int;
      (** rounds that did not reach [`None] on the degradation ladder
          (= partial + retried + failed) *)
  partial_rounds : int;  (** deadline-stopped rounds ([`Partial]) *)
  infeasible_retries : int;  (** rounds saved by the scratch retry *)
  failed_rounds : int;  (** rounds infeasible even after the retry *)
  sim_end : float;
  tasks_placed : int;
  preemptions : int;
  migrations : int;
  unfinished_waiting : int;  (** tasks still waiting when replay ended *)
  structure_violations : int;
      (** flow-network invariant violations at end of replay (see
          {!Firmament.Flow_network.validate_structure}); 0 on a healthy
          run *)
}

(** [run config trace] replays [trace] to completion (or to the configured
    bounds) and returns the collected metrics. *)
val run : config -> Cluster.Trace.t -> metrics

(** [run_with ?config ~trace ~on_round ()] is {!run} with a per-round hook
    (used by the Fig. 16 timeline and the oversubscription experiments).
    The hook receives the simulated time at the {e end} of each round and
    that round's result.

    [restore_snapshot] resumes a previous run from a
    {!Firmament.Snapshot}: the snapshot's cluster and warm-started graph
    replace the fresh ones (the trace's topology is ignored), simulated
    time resumes at the recorded clock, completions are re-scheduled for
    the restored running tasks, and trace arrivals whose job the snapshot
    already carries are skipped — replaying the same seed over a longer
    horizon continues where the snapshotted run stopped, warm-started
    within one round. [snapshot_out] writes a base image of the final
    scheduler state when the replay ends. *)
val run_with :
  ?config:config ->
  ?restore_snapshot:string ->
  ?snapshot_out:string ->
  trace:Cluster.Trace.t ->
  on_round:(sim:float -> Firmament.Scheduler.round -> unit) ->
  unit ->
  metrics
