(** The Firmament scheduler (paper Fig. 4).

    Owns the scheduling flow network, a {!Policy.t} that keeps it in sync
    with cluster events, and the {!Mcmf.Race} solver orchestrator. Each
    {!schedule} call performs one flow-based scheduling round (paper
    Fig. 2b): refresh policy statistics, run the solver(s), adopt the
    winning solution, extract placements, and apply the diff against the
    current assignment (task starts, migrations, preemptions). The
    network and the cluster are the whole scheduling state: the current
    assignment is the cluster's running set
    ({!Cluster.Workload.machine_of}), and the policy keeps no arcs the
    network does not hold.

    Rounds degrade instead of crashing. Every round lands on one rung of
    the degradation ladder ({!type:degraded}):
    {ul
    {- [`None] — the solver reached optimality; the full placement diff
       was applied.}
    {- [`Partial] — the round deadline (or caller stop) fired mid-solve.
       The canonical flow network keeps the pre-round warm start; the
       stopped solver's intermediate pseudoflow is read once with
       {!Placement.extract_partial} to start whatever waiting tasks it
       feasibly routed (capacity re-checked against the cluster state);
       running tasks are never migrated or preempted on partial
       information.}
    {- [`Infeasible_retry] — the warm-started solve reported
       infeasibility, a single from-scratch retry succeeded; the round
       otherwise behaves like [`None].}
    {- [`Failed] — the scratch retry was infeasible too (a genuinely
       unroutable network, e.g. zero-capacity sink arcs). No state
       changes; the pre-round graph is preserved so the next round (after
       the network is repaired) recovers from a coherent warm start.}}

    Invariant: the flow network owned by this scheduler is never left
    mid-solve between rounds — {!Mcmf.Race.solve} works on copies or
    repairs in place under an undo journal, and a degraded round keeps
    the pre-round graph. A round runs to completion inside {!schedule};
    cluster events are applied between rounds.

    The [mode] alone decides what a round runs. In [Race] (the default)
    a round on a certified graph is first tried as
    {!Mcmf.Incremental.repair} on the warm graph, in place, whatever the
    size of its change set; the kernel gives up once its searches have
    scanned 32 times as many arcs as the graph has live arcs (or on any
    other doubt), and a give-up runs the hedged race untouched. Every
    other mode runs its solver(s) on every round: [Race_only] is the
    paper's Firmament, and [Cost_scaling_scratch_only] with the Quincy
    policy {e is} the paper's Quincy baseline (§7.1). *)

type config = {
  mode : Mcmf.Race.mode;
  alpha : int;  (** cost scaling's ε-division factor (paper tunes 9) *)
  price_refine : bool;  (** §6.2 switching optimization *)
  drain_on_removal : bool;  (** §5.3.2 efficient task removal *)
  deadline : float option;
      (** per-round wall-clock budget in seconds. Covers the whole round
          including the infeasibility retry; when it fires, the round
          degrades to [`Partial] instead of running long. [None] (the
          default) never stops a solve. *)
}

val default_config : config

(** How far a round degraded (the ladder
    [`None → `Partial → `Infeasible_retry → `Failed]; see the module
    docs). *)
type degraded = [ `None | `Partial | `Infeasible_retry | `Failed ]

val pp_degraded : Format.formatter -> degraded -> unit

(** What one scheduling round did. *)
type round = {
  winner : Mcmf.Race.winner;
  solver_stats : Mcmf.Solver_intf.stats;
  relaxation_stats : Mcmf.Solver_intf.stats option;
  cost_scaling_stats : Mcmf.Solver_intf.stats option;
  algorithm_runtime : float;
      (** wall-clock solve time of the round: the winner's runtime, plus
          the failed first attempt's on an [`Infeasible_retry] round *)
  degraded : degraded;
  started : (Cluster.Types.task_id * Cluster.Types.machine_id) list;
  migrated :
    (Cluster.Types.task_id * Cluster.Types.machine_id * Cluster.Types.machine_id) list;
      (** (task, from, to) *)
  preempted : Cluster.Types.task_id list;
  unscheduled : int;  (** live tasks left waiting by this round *)
  discarded : Cluster.Types.task_id list;
      (** tasks whose solver placement the authoritative capacity
          re-check rejected at commit (counted in
          [sched_capacity_discards_total]); they stay waiting and their
          placement is re-stated on the next adopted round *)
  phase_ns : (string * int) list;
      (** where the round's wall time went, as [(phase, nanoseconds)] in
          execution order. Phases are measured with contiguous monotonic
          checkpoints, so the durations sum to the round's wall time
          exactly. Always starts [("refresh", _); ("solve", _)]; an
          optimal round continues [adopt; extract; prepare; apply], a
          [`Partial] round [extract; apply], a [`Failed] round
          [apply] — which is what shows where a deadline-bounded round
          actually spent its budget. *)
}

type t

(** [create ?config cluster ~policy] builds a scheduler. [policy] is a
    factory (e.g. an entry of {!Policies.all}) invoked with the network
    this scheduler owns. *)
val create : ?config:config -> Cluster.State.t -> policy:Policy.factory -> t

(** [network t] is the scheduler's flow network. *)
val network : t -> Flow_network.t

val cluster : t -> Cluster.State.t
val policy_name : t -> string

(** {1 Snapshot restore}

    The constructor half of crash recovery ({!Snapshot} drives it):
    [of_restored cluster ~net ~policy] is {!create} around a cluster
    replayed from a snapshot base image and the flow network parsed from
    its graph dump, without the eager scratch-graph pool. Nothing else
    is rebuilt: the assignment is the restored cluster's running set,
    and the policy reads its arcs from the restored network. Extraction
    workspace and retry state start empty, so the first committed round
    reports every task like the first round of a fresh scheduler. *)
val of_restored :
  ?config:config -> Cluster.State.t -> net:Flow_network.t -> policy:Policy.factory -> t

(** [replay_placement t ~now action] re-applies one committed placement
    from a snapshot journal through the live commit path (cluster
    transition + policy notification), guarded by the
    same authoritative re-checks a live commit performs — a corrupt
    journal degrades to skipped records, never exceptions. *)
val replay_placement :
  t ->
  now:float ->
  [ `Start of Cluster.Types.task_id * Cluster.Types.machine_id
  | `Migrate of Cluster.Types.task_id * Cluster.Types.machine_id
  | `Preempt of Cluster.Types.task_id ] ->
  unit

(** [prepare_warm t] certifies the canonical graph (snapshot potentials
    and flow) as the solver race's warm start, arming the O(changes)
    incremental-repair path exactly as an adopted optimal round would.
    Call once, after snapshot replay has finished mutating the graph —
    this is what makes restore-to-first-round far cheaper than a cold
    re-solve. *)
val prepare_warm : t -> unit

(** {1 Cluster events} — keep the policy's graph in sync. *)

val submit_job : t -> Cluster.Workload.job -> unit
val finish_task : t -> Cluster.Types.task_id -> now:float -> unit

(** [fail_machine t m] kills the machine; its tasks return to the wait
    queue and will be rescheduled by the next round. *)
val fail_machine : t -> Cluster.Types.machine_id -> unit

val restore_machine : t -> Cluster.Types.machine_id -> unit

(** [preempt_task t tid] kicks a running task back to the wait queue (an
    operator/fuzz-harness event, not a solver decision). *)
val preempt_task : t -> Cluster.Types.task_id -> unit

(** {1 Scheduling} *)

(** [schedule ?stop t ~now] runs one round. Never raises on an infeasible
    or deadline-stopped solve: the round reports how it degraded in
    [round.degraded] (see the ladder above). [stop] is combined with the
    configured round deadline, if any. *)
val schedule : ?stop:Mcmf.Solver_intf.stop -> t -> now:float -> round

(** [decomposition t] is the incremental extractor's current view of the
    solved flow — the full per-task decomposition stored in the delta
    workspace ({!Placement.delta_assignments}) — or [None] when the last
    round did not leave the workspace synced (degraded rounds, modes that
    bypass delta extraction). A debugging/oracle hook: the fuzz harness
    compares it against a from-scratch {!Placement.extract} of the
    certified solution. *)
val decomposition : t -> Placement.assignment list option

(** {1 Debugging}

    [set_round_observer t (Some f)] installs a debug hook called once per
    round, on every rung of the degradation ladder — with the finished {!round} record and the
    {e canonical post-commit graph} (the next round's warm start, not the
    solver's scratch copy). On rounds that adopted a certified-optimal
    solve ([degraded] is [`None] or [`Infeasible_retry]), [~certified]
    additionally carries a private copy of that solution taken {e before}
    the placement diff rerouted started tasks' arcs — the snapshot on
    which feasibility/optimality validation is meaningful; it is [None] on
    partial and failed rounds. Its potentials are re-priced in
    cost units ({!Mcmf.Price_refine.run} [~scale:1]), whatever units the
    canonical graph carries, so {!Flowgraph.Validate.is_reduced_cost_optimal}
    applies directly; a flow with a negative residual cycle keeps its
    potentials (so that check rejects it) and is logged as an error.
    The fuzz harness uses the hook
    to validate every round and to dump the pre-failure graph into repro
    artifacts. The observer must not mutate the canonical graph (the
    certified copy is the observer's to keep). [None] uninstalls. *)
val set_round_observer :
  t ->
  (round -> Flowgraph.Graph.t -> certified:Flowgraph.Graph.t option -> unit)
  option ->
  unit
