(** Scheduling-policy interface (paper §3.3, Fig. 6).

    A policy prices arcs; {!Flow_network} owns them. The policy decides
    which arcs a task gets and what they cost, and the network installs,
    re-prices, starts and prunes them, keeping the bookkeeping every
    policy shares in one place: a task's one arc to its job's unscheduled
    aggregator ({!Flow_network.ensure_unscheduled_arc}), that aggregator's
    sink capacity, the reroute-and-prune of a placement
    ({!Flow_network.start_task}) and the pruning of alternatives
    ({!Flow_network.prune_task_arcs}). The scheduler notifies the policy
    of every cluster event so it can make the corresponding graph changes
    (paper §5.2: all events reduce to supply, capacity, and cost changes),
    and calls {!refresh} once per scheduling round, right before the
    solver — that is where the two-pass statistics-update traversal of
    §6.3 happens (e.g. per-machine task counts, observed network
    bandwidth, task wait times). *)

type t = {
  name : string;
  task_submitted : Cluster.Workload.task -> unit;
      (** new task: add its node, unscheduled arc and preference arcs *)
  task_finished : Cluster.Workload.task -> unit;
      (** remove the task's node (with the efficient-removal heuristic when
          enabled), which releases its unscheduled arc *)
  task_started : Cluster.Workload.task -> Cluster.Types.machine_id -> unit;
      (** placement applied: adjust arcs so continuing on this machine is
          the task's cheapest choice *)
  task_preempted : Cluster.Workload.task -> unit;
      (** task returned to the wait queue: restore its submission arcs *)
  machine_failed : Cluster.Types.machine_id -> unit;
  machine_restored : Cluster.Types.machine_id -> unit;
  refresh : now:float -> unit;
}

(** How the scheduler builds a policy: over the network it owns and the
    cluster it schedules. [drain] enables the efficient-task-removal
    heuristic (paper §5.3.2). A policy keeps no state the network or the
    cluster does not hold, so a factory run over a restored network
    rebuilds the same policy. *)
type factory = drain:bool -> Flow_network.t -> Cluster.State.t -> t
