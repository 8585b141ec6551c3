(** Mutable flow networks with paired residual arcs.

    The graph stores the {e residual network} directly: every call to
    {!add_arc} creates a pair of residual arcs — a forward arc at an even
    index [a] holding the unused capacity, and its reverse at [a lxor 1]
    holding the flow (so reverse residual capacity {e is} the flow on the
    forward arc). Costs on the reverse arc are the negation of the forward
    cost. This is the representation every MCMF algorithm in {!Mcmf}
    operates on.

    The graph also maintains, per node:
    - the {e supply} [b(i)] (positive at sources, negative at sinks);
    - the {e excess} [b(i) - net outflow], kept up to date by {!push},
      {!set_supply}, arc removal and capacity reduction. A flow is
      {e feasible} iff every excess is zero;
    - the dual {e potential} [pi(i)], shared by solvers so that incremental
      re-optimization and price refine can warm-start from previous duals.

    Nodes and arcs are plain integer handles; removed handles are recycled,
    so holding a handle across a removal is a bug. Handle validity can be
    checked with {!node_is_live} and {!arc_is_live}.

    {b Hot-kernel accessors are unchecked.} The read accessors and list
    walkers on this interface ({!dst}, {!src}, {!cost}, {!rescap},
    {!excess}, {!potential}, {!reduced_cost}, {!first_out}/{!next_out},
    {!first_active}/{!next_active}) and the flow kernel {!push} sit in
    solver inner loops and use {!Vec.unsafe_get}/{!Vec.unsafe_set}:
    passing a handle that is not a live id of {e this} graph is undefined
    behaviour, not an exception. Structural mutators ({!add_arc},
    {!remove_arc}, {!set_cost}, …) still validate their arguments. *)

type node = int
type arc = int

type t

(** [create ()] is an empty graph. [node_hint]/[arc_hint] pre-size internal
    storage. *)
val create : ?node_hint:int -> ?arc_hint:int -> unit -> t

(** {1 Nodes} *)

(** [add_node g ~supply] creates a node with the given supply and zero
    potential. *)
val add_node : t -> supply:int -> node

(** [remove_node g n] removes [n] and every incident arc pair. Flow carried
    by removed arcs is credited back to the surviving endpoints' excesses
    (paper §5.2: removals manifest as supply changes). *)
val remove_node : t -> node -> unit

(** [node_bound g] is an exclusive upper bound on live node ids — size
    scratch arrays with this. *)
val node_bound : t -> int

(** [node_count g] is the number of live nodes. *)
val node_count : t -> int

val node_is_live : t -> node -> bool
val supply : t -> node -> int

(** [set_supply g n b] updates the supply, shifting the node's excess by
    the same delta. *)
val set_supply : t -> node -> int -> unit

val excess : t -> node -> int
val potential : t -> node -> int

(** [set_potential g n p] sets [n]'s potential. The dirty log no longer
    bounds the negative arcs afterwards ({!log_bounds_duals} turns false
    until the next {!sync_log}): every full solver and price refine
    writes potentials through here. *)
val set_potential : t -> node -> int -> unit

(** [set_potential_journaled] is {!set_potential} without that effect,
    for a caller whose potential writes either end in a whole-graph
    certification or are undone: the incremental repair, under its undo
    journal. *)
val set_potential_journaled : t -> node -> int -> unit
val iter_nodes : t -> (node -> unit) -> unit

(** {1 Arcs} *)

(** [add_arc g ~src ~dst ~cost ~cap] creates a forward/reverse residual
    pair carrying zero flow and returns the forward (even) arc.
    @raise Invalid_argument if [cap < 0] or an endpoint is dead. *)
val add_arc : t -> src:node -> dst:node -> cost:int -> cap:int -> arc

(** [remove_arc g a] removes the pair containing [a]; any flow on it is
    credited back to the endpoints' excesses. *)
val remove_arc : t -> arc -> unit

val arc_is_live : t -> arc -> bool

(** [arc_count g] is the number of live forward arcs. *)
val arc_count : t -> int

(** [arc_bound g] is an exclusive upper bound on live residual arc ids. *)
val arc_bound : t -> int

val src : t -> arc -> node
val dst : t -> arc -> node

(** [rev a] is the other member of [a]'s residual pair. *)
val rev : arc -> arc

(** [is_forward a] is [true] on the even, capacity-carrying member. *)
val is_forward : arc -> bool

val cost : t -> arc -> int

(** [rescap g a] is the residual capacity of residual arc [a]. *)
val rescap : t -> arc -> int

(** [flow g a] is the flow on forward arc [a] (i.e. [rescap g (rev a)]).
    @raise Invalid_argument on a reverse arc. *)
val flow : t -> arc -> int

(** [capacity g a] is the upper bound of forward arc [a]. *)
val capacity : t -> arc -> int

(** [arc_generation g a] is the process-unique stamp assigned to the arc
    pair occupying slot [a] when it was last created by {!add_arc} (0 if
    the slot was never used). Stamps survive {!copy}/{!copy_into} and
    change when a freed pair is recycled, so equal stamps across graph
    copies identify "the same arc" — the dirty-tracking primitive behind
    delta placement extraction. Works on dead slots (no liveness check);
    only bounds are validated. *)
val arc_generation : t -> arc -> int

(** [reduced_cost g a] is [cost a - pi (src a) + pi (dst a)]. *)
val reduced_cost : t -> arc -> int

(** [set_cost g a c] sets the forward cost to [c] (reverse to [-c]).
    @raise Invalid_argument on a reverse arc. *)
val set_cost : t -> arc -> int -> unit

(** [set_capacity g a u] resizes forward arc [a] to upper bound [u]. If the
    current flow exceeds [u], the overflow is pushed back into the
    endpoints' excesses (breaking feasibility, which the next incremental
    solve repairs — paper Table 3). *)
val set_capacity : t -> arc -> int -> unit

(** [push g a d] sends [d >= 0] units along residual arc [a], updating both
    residual capacities and the endpoint excesses.
    @raise Invalid_argument if [d] exceeds the residual capacity. *)
val push : t -> arc -> int -> unit

(** [iter_out g n f] applies [f] to every residual out-arc of [n] (both
    forward arcs leaving [n] and reverses of arcs entering it), regardless
    of residual capacity. *)
val iter_out : t -> node -> (arc -> unit) -> unit

(** [first_out g n] / [next_out g a] walk [n]'s residual out-list without
    allocating a closure ([-1] terminates). Hot-loop variant of
    {!iter_out}; the list is invalidated by arc insertion or removal at
    [n]. *)
val first_out : t -> node -> arc

val next_out : t -> arc -> arc

(** [first_active g n] / [next_active g a] walk the {e active} residual
    out-list of [n]: only arcs with positive residual capacity. Maintained
    incrementally by {!push}, {!set_capacity}, {!add_arc}, {!remove_arc}
    and {!reset_flow}. Scheduling graphs have high-degree aggregator nodes
    whose out-lists are dominated by zero-residual reverse arcs; shortest
    path and relaxation scans only ever need residual arcs, so walking the
    active list instead is the difference between O(active degree) and
    O(total degree) per scan. The list must not be mutated (no pushes on
    the scanned node's arcs) while being walked. *)
val first_active : t -> node -> arc

val next_active : t -> arc -> arc

(** [iter_arcs g f] applies [f] to every live forward arc. *)
val iter_arcs : t -> (arc -> unit) -> unit

(** [iter_negative g ~scale f] applies [f a rc] to every residual arc [a]
    with spare capacity whose scaled reduced cost
    [rc = cost a · scale − potential (src a) + potential (dst a)] is
    negative: the arcs that break dual feasibility. [f] may push flow or
    move potentials (later arcs see the updates) but must not add or
    remove nodes or arcs. A tight loop over the arc arrays, for the
    repair and certification passes that scan every arc. *)
val iter_negative : t -> scale:int -> (arc -> int -> unit) -> unit

(** [iter_dirty_negative g ~scale f] is {!iter_negative} restricted to
    the arc pairs in the dirty log (below). When {!log_bounds_duals}
    holds and the graph was dual feasible at [scale] at the last
    {!sync_log}, the two visit the same arcs. Same rules for [f]. *)
val iter_dirty_negative : t -> scale:int -> (arc -> int -> unit) -> unit

(** [negative_around g ~scale n]: some residual arc into or out of [n]
    with spare capacity has negative scaled reduced cost. The incremental
    repair's certificate reads it around each node whose potential it
    moved. *)
val negative_around : t -> scale:int -> node -> bool

(** [iter_pairs g f] applies [f k flow gen] to every arc-pair slot [k]
    below [arc_bound g / 2] (forward arc [2k]): [flow] is the pair's flow
    and [gen] its {!arc_generation}, both 0 on a dead slot. A tight loop
    over the arc arrays for the extractor's dirty scan when the dirty
    log (below) is unusable; [f] must not mutate [g]. *)
val iter_pairs : t -> (int -> int -> int -> unit) -> unit

val out_degree : t -> node -> int

(** {1 Whole-graph operations} *)

(** [total_cost g] is the primal objective: sum of [cost a * flow a] over
    forward arcs. *)
val total_cost : t -> int

(** [max_arc_cost g] is the largest absolute forward-arc cost (the [C] in
    complexity bounds), 0 if arcless. *)
val max_arc_cost : t -> int

(** [reset_flow g] zeroes all flow and potentials and restores every
    excess to its supply. *)
val reset_flow : t -> unit

(** [copy g] is a deep copy, safe to mutate from another domain. *)
val copy : t -> t

(** [copy_into dst src] makes [dst] observationally identical to
    [copy src] — same node/arc ids, supplies, excesses, potentials,
    costs, capacities, flows, adjacency and active lists, change
    counters — while reusing [dst]'s backing arrays whenever their
    capacity suffices (pure blits, zero allocation in steady state; a
    previously-larger [dst] shrinks correctly). This is the scratch-graph
    primitive behind {!Mcmf.Race}'s allocation-free rounds. No-op when
    [dst == src]. *)
val copy_into : t -> t -> unit

(** {1 Dirty log}

    The graph logs, each once, the arc pairs and nodes that its mutators
    touched since the last {!sync_log}: {!push}, {!add_arc},
    {!remove_arc} (which also logs both endpoints), {!set_cost},
    {!set_capacity}, {!set_supply} and {!add_node}. A consumer that
    synced the log at a point where the flow was feasible and optimal
    can then find what changed without scanning the graph: the only arcs
    whose flow or identity moved are logged pairs, and the only nodes
    with nonzero excess are logged nodes or endpoints of logged pairs.

    The log is {e dropped} (unusable until the next {!sync_log}, and it
    records nothing meanwhile) by {!copy} (on the copy), {!copy_into}
    (on the destination), {!reset_flow}, and by growing past a quarter
    of the graph's pairs or nodes. A {!set_potential} keeps the log but
    means it no longer bounds the negative arcs ({!log_bounds_duals}).
    A consumer that finds the log unusable falls back to its full pass.
    A new graph's log is complete from creation. *)

(** [sync_log g] empties the log and starts a complete one, under a new
    {!log_epoch}. *)
val sync_log : t -> unit

(** [log_complete g]: every mutation since the last {!sync_log} is in
    the log. *)
val log_complete : t -> bool

(** [log_bounds_duals g]: {!log_complete}, and no {!set_potential} since
    the last {!sync_log}. *)
val log_bounds_duals : t -> bool

(** [log_epoch g] is a process-unique stamp of the last {!sync_log} of
    [g], so a consumer can tell whether the log still runs from its own
    sync. *)
val log_epoch : t -> int

(** [iter_dirty_pairs g f] applies [f k] to each logged pair index [k]
    (forward arc [2k]; the slot may be dead now). [f] may push on arcs
    of logged pairs. *)
val iter_dirty_pairs : t -> (int -> unit) -> unit

(** [iter_dirty_nodes g f] applies [f] to every logged node and to both
    endpoints of every logged pair, possibly more than once and possibly
    to dead nodes (whose excess is 0). *)
val iter_dirty_nodes : t -> (node -> unit) -> unit

(** {1 Change tracking}

    Mutators accumulate a summary used by incremental solvers to warm-start
    (e.g. the ε at which incremental cost scaling must restart is bounded by
    the costliest changed arc — paper §6.2). *)

type change_summary = {
  structural : int;  (** node/arc additions and removals *)
  cost_changes : int;
  capacity_changes : int;
  supply_changes : int;
  max_changed_cost : int;
      (** max |cost| over arcs whose cost changed or that were added *)
}

val no_changes : change_summary

(** [take_changes g] returns the summary accumulated since the last call
    and resets it. *)
val take_changes : t -> change_summary

(** [peek_changes g] returns the summary without resetting. *)
val peek_changes : t -> change_summary
