(** O(changes) incremental flow repair (paper §5).

    Takes a graph carrying the previous round's adopted {e optimal} flow
    and potentials, already mutated by the round's change set, and
    restores an optimal solution with work proportional to the dirty
    region: repair each reduced-cost violation by a free local potential
    shift or else by saturating the arc, then route the resulting
    excesses to deficits in primal-dual phases — one multi-source
    Dijkstra whose potential update touches only settled nodes, then a
    blocking flow from all excesses to all deficits over the settled
    region's zero-reduced-cost arcs. Each Dijkstra stops as soon as its
    settled deficits can absorb the remaining excess. The result is
    certified (zero excess and no negative residual arc at the caller's
    scale) — any doubt returns {!Gave_up} and the caller runs the full
    race on the canonical graph, rolled back to its entry state.

    {b Dirty log.} The saturation scan, the excess sweep and the
    certificate read only the graph's dirty log
    ({!Flowgraph.Graph.log_bounds_duals}) when it holds, which requires
    the caller to have synced the log on a certified optimum at [scale]
    with zero excess (the scheduler syncs it at each delta extraction of
    an adopted optimum). The certificate then reads the logged nodes and
    pairs plus the arcs at each node whose potential the repair moved
    ({!log_certified}). Otherwise, or if the repair's own pushes grew
    the log past its cap, they scan the whole graph
    ({!whole_certified}), and the repair is counted once in
    [mcmf_incremental_full_scans_total]. Every 64th log-certified repair
    of a workspace is audited by the whole-graph pass; a disagreement
    logs an error, counts [mcmf_incremental_audit_failures_total] and
    gives up [Not_certified].

    {b Undo journal.} The kernel repairs its input in place. It records
    each of its pushes and the first write of each node's potential in
    the workspace, and every {!Gave_up} replays that journal backwards
    before returning: the flows, excesses, potentials and active-arc
    sets are then exactly as they were on entry (only the order of
    nodes' active lists may differ). A {!Repaired} graph keeps its
    journal until the next [repair] with the same workspace, so the
    caller can still take the repair back with {!rollback}.

    The potentials stay in the caller's units: cost scaling's scaled
    units at [scale], not plain costs. Re-price a copy with
    {!Price_refine.run} [~scale:1] to check it against
    {!Flowgraph.Validate.is_reduced_cost_optimal}. *)

(** Why a repair was abandoned (exported per-reason via telemetry
    [mcmf_incremental_giveup_*_total]). *)
type reason =
  | Oversized
      (** the searches scanned more than [max_scan] arcs (by default 32
          times as many as the graph has live arcs: the work cap) *)
  | No_path  (** an excess could not reach any deficit *)
  | Not_certified  (** repair finished but certification failed *)
  | Stopped_mid_repair  (** the stop callback fired *)

val reason_name : reason -> string

type outcome = Repaired of Solver_intf.stats | Gave_up of reason

(** Persistent Dijkstra + bookkeeping scratch, epoch-stamped. *)
type workspace

val create_workspace : unit -> workspace

(** [reserve ws bound] pre-sizes the workspace for graphs of node bound
    [bound] so first use doesn't grow mid-round. *)
val reserve : workspace -> int -> unit

(** [repair ~scale g] mutates [g] (flows {e and} potentials, in
    cost scaling's scaled units at [scale]) toward a certified optimal
    solution. On [Gave_up] the graph is rolled back to its entry state
    (see the journal above), so [g] may be the caller's canonical graph.
    The change set may be any size: the repair gives up [Oversized] only
    once its searches have scanned more than [max_scan] residual arcs
    (default: 32 times [g]'s live arc count; see DESIGN.md for how it was
    set). Allocates a constant amount per call (a few closures and the
    result), nothing per phase or per augmentation, once the journal has
    grown to the largest repair's size. *)
val repair :
  ?stop:Solver_intf.stop ->
  ?max_scan:int ->
  scale:int ->
  ?workspace:workspace ->
  Flowgraph.Graph.t ->
  outcome

(** [log_certified ws ~scale g] is the repair's log-driven certificate
    on [g] as it stands: zero excess at every logged node and endpoint of
    a logged pair, and no negative residual arc at [scale] among the
    logged pairs or at a node whose potential [ws]'s journal saw move
    (its entry potential differs from its current one). It reads a
    subset of what {!whole_certified} reads, so it passes whenever that
    does; the converse holds when [g]'s log was synced on a certified
    optimum with zero excess and, since then, [g] changed only through
    logged mutations and the potential writes of [ws]'s last repair. *)
val log_certified : workspace -> scale:int -> Flowgraph.Graph.t -> bool

(** [whole_certified ~scale g]: zero excess at every node and
    {!Price_refine.certified} [~scale] — the certificate over the whole
    graph. *)
val whole_certified : scale:int -> Flowgraph.Graph.t -> bool

(** [rollback ws g] takes back the last {!repair} of [g] made with [ws]
    that returned {!Repaired}: [g]'s flows, excesses, potentials and
    active-arc sets return to their state on that repair's entry. The
    journal is consumed.
    @raise Invalid_argument if [ws] holds no live journal for [g] (none
    was written, a later repair replaced it, or it was already rolled
    back), or if [g]'s structure, costs, capacities or supplies changed
    since the repair — a journal only undoes its own pushes. *)
val rollback : workspace -> Flowgraph.Graph.t -> unit
