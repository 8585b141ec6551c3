(** Relaxation (Bertsekas–Tseng 1988, RELAX) — paper §4, Table 1:
    O(M³·C·U²), yet the fastest algorithm in practice on scheduling graphs
    (Fig. 7): it does minimal work when tasks' flow destinations are
    uncontested, routing most flow in a single pass.

    The algorithm maintains reduced-cost optimality and works toward
    feasibility by dual ascent: starting from a surplus node it grows a set
    [S] connected by balanced (zero reduced cost) residual arcs. Whenever
    the surplus inside [S] exceeds the balanced capacity leaving it, a
    {e price rise} on [S] strictly improves the dual; otherwise [S] is
    extended along a balanced arc, and reaching a deficit node triggers a
    flow augmentation along the tree path.

    {b Arc prioritization} (paper §5.3.1, Fig. 12a): when enabled,
    balanced arcs leading to nodes with demand jump the candidate queue, a
    hybrid traversal biased depth-first toward demand — ~45 % faster on
    contended graphs. Enabled by default; disable to reproduce the
    ablation.

    {b Incremental mode} (paper §5.2): keeps the existing flow/potentials
    and repairs optimality violations first. The paper found this can be
    {e slower} than from scratch (large pre-built zero-reduced-cost trees
    must be traversed per source), which is why Firmament runs relaxation
    from scratch and leaves incrementality to cost scaling. *)

(** Persistent scratch (node-indexed arrays, queues, heap) reused across
    solves. Arrays grow to the largest node bound seen and are logically
    cleared by epoch bumps, so a warm solve allocates nothing here. A
    workspace is single-solve-at-a-time (not thread-safe) but remains
    valid after a solve that raised or was stopped. *)
type workspace

val create_workspace : unit -> workspace

(** [solve g] runs RELAX to completion on [g]. Without [?workspace] a
    fresh one is allocated for the call. *)
val solve :
  ?stop:Solver_intf.stop ->
  ?incremental:bool ->
  ?arc_prioritization:bool ->
  ?workspace:workspace ->
  Flowgraph.Graph.t ->
  Solver_intf.stats
