(** Task-placement extraction from the optimal flow (paper §6.3,
    Listing 1).

    Firmament allows arbitrary aggregators between tasks and machines,
    so paths can be longer than in Quincy; this generalizes Quincy's
    extraction to a flow decomposition: each task's unit of flow is
    assigned one concrete sink path, and the penultimate node (machine
    or unscheduled aggregator) decides its placement. When several
    tasks' units merge at an aggregator the attribution between them is
    ambiguous; any decomposition of the same flow yields the same
    scheduled-task set and the same per-machine task counts.

    Extraction is {e incremental}: a {!workspace} retains the previous
    decomposition, and {!extract_delta} re-walks only tasks whose stored
    path crosses an arc whose flow or identity changed since the last
    sync (per-arc generation stamps, {!Flowgraph.Graph.arc_generation}).
    It finds those arcs in the graph's dirty log when the log still runs
    from this workspace's last sync, and reads every arc pair otherwise
    (a copied or swapped-in graph, a first sync), counted in
    [sched_extract_full_scans_total]; each sync then re-syncs the log
    ({!Flowgraph.Graph.sync_log}). Each arc keeps the list of stored
    paths crossing it, so only those paths are revisited. A full
    {!extract} is the same machinery run from an empty workspace; it
    reads every pair and leaves the graph's log alone.
    All hot-path state lives in preallocated int arrays (epoch-stamped
    marks, an {!Int_table} for task slots) — steady-state syncs allocate
    only the returned change list. *)

type assignment = {
  task : Cluster.Types.task_id;
  machine : Cluster.Types.machine_id option;  (** [None] = left unscheduled *)
}

(** A reusable extraction state: the delta decomposition plus scratch
    budgets for the pseudoflow walk. One per scheduler; safe to share
    between {!extract_delta} and {!extract_partial} (the walk uses
    separate epoch-stamped budgets and never disturbs the delta state).
    Not thread-safe. *)
type workspace

(** [node_hint]/[arc_hint] (the {!Flow_network.create} topology hints)
    pre-size the tracked-task and per-arc arrays so the first adopted
    round builds the decomposition without growth doublings. *)
val create_workspace : ?node_hint:int -> ?arc_hint:int -> unit -> workspace

(** [extract ?workspace net] reads the current (feasible) flow in [net]
    and returns one assignment per task node, sorted by task id. Resets
    [workspace] (if given) and rebuilds the decomposition from scratch,
    leaving it synced to [net]'s current flow.
    @raise Failure if the flow is infeasible (non-zero excess) or
    violates the structural invariants extraction relies on (task flow
    reaching the sink from a non-machine, non-unscheduled node; paths
    deeper than the policy DAG allows). *)
val extract : ?workspace:workspace -> Flow_network.t -> assignment list

(** [extract_delta ws net] incrementally syncs [ws] to [net]'s current
    flow and returns the tasks whose stored path was rebuilt, with their
    new assignment — a superset of the tasks whose assignment actually
    changed (attribution churn between tasks sharing aggregators can
    re-route a task onto the machine it already occupied; callers must
    treat the list as idempotent updates, not edges). Tasks that left
    the network are dropped silently. On the first call (or after a
    failed sync) this is a full rebuild reporting every task.
    @raise Failure as {!extract}. *)
val extract_delta :
  workspace ->
  Flow_network.t ->
  (Cluster.Types.task_id * Cluster.Types.machine_id option) list

(** [delta_assignments ws] is the full decomposition currently stored in
    [ws], sorted by task id — what {!extract} would have returned at the
    last successful sync. Meaningless while {!delta_synced} is false. *)
val delta_assignments : workspace -> assignment list

(** [delta_lookup ws tid] is [None] if [tid] is untracked, otherwise
    [Some machine_opt] — its stored assignment. *)
val delta_lookup :
  workspace -> Cluster.Types.task_id -> Cluster.Types.machine_id option option

(** [delta_unscheduled ws] is the number of tracked tasks currently
    decomposed through an unscheduled aggregator. *)
val delta_unscheduled : workspace -> int

(** [delta_synced ws] is true when the last sync completed successfully
    (the stored decomposition matches some graph's flow exactly). *)
val delta_synced : workspace -> bool

(** [extract_map net] is {!extract} as a hash table over scheduled tasks
    only. *)
val extract_map :
  Flow_network.t -> (Cluster.Types.task_id, Cluster.Types.machine_id) Hashtbl.t

(** [extract_partial net] reads placements out of a possibly {e infeasible
    or non-optimal} intermediate flow (an early-terminated solver run,
    paper §5.1/Fig. 10): each task's unit of flow is walked toward the
    sink with backtracking over a per-arc flow budget (an aborted branch
    refunds what it consumed, so a dead-end probe never leaks flow away
    from tasks sharing a path prefix); reaching a machine additionally
    claims a unit of its sink arc — via the O(1) cached handle
    ({!Flow_network.machine_sink_arc}) — so no machine is ever attributed
    more tasks than its flow toward the sink: placements are
    capacity-valid even on a pseudoflow with excess parked mid-graph.
    Tasks whose flow is unrouted or parks at an unscheduled aggregator
    report [None]. Unlike {!extract} this never fails, but concurrent
    units through an aggregator may be attributed to either upstream
    task. Budgets live in [workspace] (fresh one if omitted) and do not
    disturb its delta state. *)
val extract_partial : ?workspace:workspace -> Flow_network.t -> assignment list

