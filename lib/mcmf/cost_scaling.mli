(** Cost scaling (Goldberg 1997) — the algorithm behind Quincy's cs2
    solver. Paper §4, Table 1: O(N²·M·log(N·C)).

    Push–relabel with ε-scaling: arc costs are multiplied by a scale factor
    [S > N] so that a 1-optimal flow on scaled costs is optimal on the
    originals; ε starts at the worst reduced-cost violation and is divided
    by the α-factor each iteration (Quincy used α = 2; the paper found
    α = 9 ≈ 30 % faster, §7.2). Each [refine] saturates negative
    reduced-cost arcs and discharges active nodes with the current-arc
    optimization.

    A {!state} value carries the α-factor and scale across runs, enabling
    {e incremental} re-optimization (paper §5.2): with [~incremental:true]
    the solver keeps the graph's flow and potentials and starts ε at the
    worst violation the latest graph changes introduced — after
    {!Price_refine}, that is bounded by the costliest changed arc (§6.2). *)

type state

(** [create ?alpha ()] makes solver state. [alpha >= 2] is the ε division
    factor. @raise Invalid_argument if [alpha < 2]. *)
val create : ?alpha:int -> unit -> state

val alpha : state -> int

(** [ensure_scale state g] adjusts the cost scale factor to track [g]'s
    live node count and returns it: it grows whenever the node count
    exceeds it, and shrinks back down when the cluster has contracted to
    less than half the stored value (rescaling [g]'s potentials into the
    new units so the warm start stays consistent). {!Price_refine} needs
    it to write potentials in the solver's scaled units. *)
val ensure_scale : state -> Flowgraph.Graph.t -> int

(** [solve ?stop ?incremental state g] optimizes [g] in place. With
    [~incremental:false] (default) flow and potentials are reset first.
    On [Stopped], the graph holds the ε-optimal intermediate pseudoflow
    reached so far (used by the Fig. 10 early-termination experiment). *)
val solve :
  ?stop:Solver_intf.stop ->
  ?incremental:bool ->
  state ->
  Flowgraph.Graph.t ->
  Solver_intf.stats

(** Fault injection for the differential fuzz harness: when set above 1,
    every solve truncates its ε ladder at this floor and stops at a merely
    ε-optimal flow {e while still reporting [Optimal]} — exactly the class
    of silent-wrong-answer bug the from-scratch oracle and
    {!Flowgraph.Validate.is_optimal} exist to catch. Default [1] (off).
    Never set this outside tests or [firmament_fuzz --inject-eps]. *)
val debug_eps_floor : int ref
