(** The scheduling flow network (paper §3.2).

    Wraps a {!Flowgraph.Graph.t} with the node roles of Firmament's
    scheduling graphs — task nodes (sources of one unit of flow), machine
    nodes, policy-defined aggregators (cluster, rack, per-job unscheduled,
    request aggregators), and the single sink — and keeps the id maps
    policies and the placement extractor need.

    It also owns each task's arcs: policies choose which arcs a task gets
    and price them; the calls under "Task arcs" install, re-price, start
    and prune them.

    Invariants maintained here:
    - every task node has supply 1; the sink's supply is always
      [-(number of task nodes)], adjusted on task addition/removal;
    - every task node has exactly one arc to an unscheduled aggregator,
      and each aggregator's arc to the sink has one unit of capacity per
      task holding such an arc; {!remove_task} removes an aggregator
      that no task holds an arc into any more;
    - machine nodes' only outgoing arc leads to the sink (checked by the
      placement extractor);
    - node handles remain valid across {!set_graph} because {!Race} deals
      in structure-preserving copies. *)

type node_kind =
  | Task_node of Cluster.Types.task_id
  | Machine_node of Cluster.Types.machine_id
  | Rack_node of Cluster.Types.rack_id
  | Cluster_agg
  | Unscheduled_agg of Cluster.Types.job_id
  | Request_agg of int  (** network-aware policy: keyed by bandwidth class *)
  | Sink

val pp_node_kind : Format.formatter -> node_kind -> unit

type t

(** [create ()] builds a network containing only the sink. The graph
    grows geometrically with what the policy adds. *)
val create : unit -> t

(** [restore ~graph ~kinds] rebuilds a network around a graph parsed
    from a snapshot: [kinds] assigns every live node its role (the one
    piece of information a DIMACS dump cannot carry). The sink-arc
    caches, each task's unscheduled arc and the task count are rederived
    from the graph and cross-checked.
    @raise Invalid_argument if the kind table and graph are inconsistent
    (missing/duplicate sink, unlabelled live node, machine without a
    sink arc, a task without exactly one unscheduled arc, an aggregator's
    sink capacity not matching its tasks, sink supply not matching the
    task count). *)
val restore :
  graph:Flowgraph.Graph.t ->
  kinds:(Flowgraph.Graph.node * node_kind) list ->
  t

val graph : t -> Flowgraph.Graph.t

(** [set_graph t g] adopts a structure-preserving copy returned by the
    solver race (same node ids). *)
val set_graph : t -> Flowgraph.Graph.t -> unit

val sink : t -> Flowgraph.Graph.node
val kind : t -> Flowgraph.Graph.node -> node_kind

(** [kind_opt t n] is {!kind} but returns [None] for a node the network no
    longer tracks — e.g. one removed since a solver snapshot was taken. *)
val kind_opt : t -> Flowgraph.Graph.node -> node_kind option

(** {1 Node management} *)

(** [add_task t tid] creates the task's source node (supply 1) and grows
    the sink demand. @raise Invalid_argument if [tid] already has a node. *)
val add_task : t -> Cluster.Types.task_id -> Flowgraph.Graph.node

(** [remove_task t tid ~drain] removes the task node, shrinks the sink
    demand and releases the task's unscheduled arc: its aggregator's sink
    capacity drops by one, and the job's last such arc takes the
    aggregator with it. With [~drain:true] (the efficient-task-removal heuristic,
    paper §5.3.2) the task's unit of flow is first walked to the sink and
    retired, leaving the solution balanced; with [false] the node is
    dropped directly, leaving demand at the downstream node for the next
    incremental solve to repair. *)
val remove_task : t -> Cluster.Types.task_id -> drain:bool -> unit

(** [reroute_direct t tid m] moves the task's unit of flow off whatever
    aggregator path currently carries it and onto the direct
    task→machine arc (creating that arc if missing, with the given
    [cost]). Policies call this when applying a placement so that the
    subsequent cheap continuation arc is {e saturated} rather than an
    open negative-reduced-cost arc — keeping the incremental solver's
    starting ε at the costliest true change (paper §6.2) instead of the
    full cost range. Returns [false] (graph untouched) if the task has no
    routed unit or its path does not traverse [m]. *)
val reroute_direct :
  t -> Cluster.Types.task_id -> Cluster.Types.machine_id -> cost:int -> bool

val task_node : t -> Cluster.Types.task_id -> Flowgraph.Graph.node option
val task_of_node : t -> Flowgraph.Graph.node -> Cluster.Types.task_id option

(** [ensure_machine t m] returns machine [m]'s node, creating it (with its
    arc to the sink, capacity [slots], cost 0) on first use. *)
val ensure_machine :
  t -> Cluster.Types.machine_id -> slots:int -> Flowgraph.Graph.node

val machine_node : t -> Cluster.Types.machine_id -> Flowgraph.Graph.node option
val machine_of_node : t -> Flowgraph.Graph.node -> Cluster.Types.machine_id option

(** [machine_sink_arc t m] is machine [m]'s cached machine→sink arc
    handle (the one created by {!ensure_machine}), or [None] for an
    unknown/removed machine. O(1); replaces the {!find_arc} out-list
    scans the placement extractor used to do per round. The handle stays
    valid across {!set_graph} because the race deals in
    structure-preserving copies. *)
val machine_sink_arc : t -> Cluster.Types.machine_id -> Flowgraph.Graph.arc option

(** [remove_machine t m] removes the machine node and all incident arcs
    (machine failure). *)
val remove_machine : t -> Cluster.Types.machine_id -> unit

val ensure_rack : t -> Cluster.Types.rack_id -> Flowgraph.Graph.node
val rack_node : t -> Cluster.Types.rack_id -> Flowgraph.Graph.node option
val ensure_cluster_agg : t -> Flowgraph.Graph.node

(** [ensure_unscheduled t j] returns job [j]'s unscheduled aggregator,
    creating it (with a zero-capacity arc to the sink, grown as tasks
    arrive) on first use. *)
val ensure_unscheduled : t -> Cluster.Types.job_id -> Flowgraph.Graph.node

val unscheduled_node : t -> Cluster.Types.job_id -> Flowgraph.Graph.node option

(** [unscheduled_sink_arc t j] is job [j]'s cached unscheduled-aggregator
    →sink arc (created by {!ensure_unscheduled}; an aggregator lives
    while some task holds an arc into it), or [None] for a job without
    an aggregator.
    O(1), valid across {!set_graph} like {!machine_sink_arc}. *)
val unscheduled_sink_arc : t -> Cluster.Types.job_id -> Flowgraph.Graph.arc option
val ensure_request_agg : t -> int -> Flowgraph.Graph.node
val remove_request_agg : t -> int -> unit

(** [iter_request_aggs t f] applies [f] to each request aggregator's
    bandwidth class and node; [f] may remove the aggregator it is given. *)
val iter_request_aggs : t -> (int -> Flowgraph.Graph.node -> unit) -> unit

(** {1 Task arcs} *)

(** [ensure_unscheduled_arc t tid ~job ~cost] prices task [tid]'s arc to
    job [job]'s unscheduled aggregator at [cost]. The first call installs
    the arc (creating the aggregator if needed) and grows the aggregator's
    sink capacity by one; later calls only re-price it, and leave the
    graph untouched when the cost is unchanged. The handle is kept per
    task, is valid across {!set_graph}, and {!restore} rederives it.
    @raise Invalid_argument if [tid] has no node. *)
val ensure_unscheduled_arc :
  t -> Cluster.Types.task_id -> job:Cluster.Types.job_id -> cost:int -> unit

(** [unscheduled_arc t tid] is the arc {!ensure_unscheduled_arc} keeps for
    [tid], or [None] for a task without one. *)
val unscheduled_arc : t -> Cluster.Types.task_id -> Flowgraph.Graph.arc option

(** [prune_task_arcs t tid ~keep] removes every outgoing arc of task [tid]
    whose head fails [keep], except its unscheduled arc, which is never
    pruned. A no-op for an unknown task. *)
val prune_task_arcs :
  t -> Cluster.Types.task_id -> keep:(Flowgraph.Graph.node -> bool) -> unit

(** [pin_task t tid m ~cost] sets (or adds) task [tid]'s direct arc to
    machine [m] at [cost], capacity 1. A no-op if either is unknown. *)
val pin_task :
  t -> Cluster.Types.task_id -> Cluster.Types.machine_id -> cost:int -> unit

(** [start_task t tid m ~cost] applies a placement: {!reroute_direct}
    onto a direct arc priced [cost], then prune every alternative but that
    arc (and the unscheduled one) so no stale-cost arc is left open, which
    would inflate the incremental solver's starting ε (paper §6.2). When
    the task's flow cannot be rerouted, it falls back to {!pin_task}.
    Alternatives a policy wants back on preemption it reinstalls. *)
val start_task :
  t -> Cluster.Types.task_id -> Cluster.Types.machine_id -> cost:int -> unit

(** {1 Arc helpers} *)

(** [find_arc t src dst] is the forward arc from [src] to [dst], if any
    (linear in [src]'s degree). *)
val find_arc :
  t -> Flowgraph.Graph.node -> Flowgraph.Graph.node -> Flowgraph.Graph.arc option

(** [set_or_add_arc t ~src ~dst ~cost ~cap] updates the existing arc's
    cost/capacity or creates it. Returns the arc. *)
val set_or_add_arc :
  t ->
  src:Flowgraph.Graph.node ->
  dst:Flowgraph.Graph.node ->
  cost:int ->
  cap:int ->
  Flowgraph.Graph.arc

val task_count : t -> int

(** [iter_task_nodes t f] / [iter_machine_nodes t f] iterate the id maps. *)
val iter_task_nodes : t -> (Cluster.Types.task_id -> Flowgraph.Graph.node -> unit) -> unit

(** {1 Task log}

    Every {!add_task} appends its task id to a log, so a reader that
    keeps up (the delta placement extractor) can find the tasks added
    since it last looked without walking all of them. Positions are
    absolute and per network ({!uid}). The log keeps at most about twice
    the live task count: past that it is dropped, and a reader that fell
    behind must walk {!iter_task_nodes} instead. *)

(** [uid t] tells networks apart (positions of one mean nothing in
    another). *)
val uid : t -> int

(** [task_log_end t] is the position just past the newest entry. *)
val task_log_end : t -> int

(** [iter_tasks_added_since t ~uid ~pos f] applies [f] to every task id
    logged at or after [pos], oldest first, and is [true] — or does
    nothing and is [false] when [uid] is not [t]'s or the entries from
    [pos] on are no longer kept. A task removed since, or added twice, is
    reported as logged. *)
val iter_tasks_added_since :
  t -> uid:int -> pos:int -> (Cluster.Types.task_id -> unit) -> bool

val iter_machine_nodes :
  t -> (Cluster.Types.machine_id -> Flowgraph.Graph.node -> unit) -> unit

(** [validate_structure t] checks the structural invariants listed above;
    returns human-readable violations (for tests and debug builds). *)
val validate_structure : t -> string list
