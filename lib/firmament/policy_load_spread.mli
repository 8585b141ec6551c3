(** Load-spreading policy (paper Fig. 6a).

    The simplest aggregator use: every task has an arc to a single
    cluster-wide aggregator [X]; the cost of each [X → machine] arc is
    proportional to the number of tasks already running there, so machines
    fill up evenly (as in Docker SwarmKit). The policy deliberately makes
    under-populated machines contended destinations, which is exactly the
    relaxation edge case of §4.3 (Fig. 9) and the incremental-cost-scaling
    workload of Fig. 11. *)

type config = {
  cost_per_running_task : int;  (** slope of the X→machine arc cost *)
  unscheduled_base : int;  (** cost of leaving a task waiting... *)
  wait_cost_per_second : int;  (** ...growing with its wait time *)
}

val default_config : config

(** [make ?config ~drain net cluster] wires the policy to a flow network
    and cluster state. [drain] enables the efficient-task-removal
    heuristic (paper §5.3.2). Creates the aggregator and the live
    machines' nodes up front, keeping the X→machine arcs already in a
    restored network. *)
val make :
  ?config:config -> drain:bool -> Flow_network.t -> Cluster.State.t -> Policy.t
