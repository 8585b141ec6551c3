(** Firmament's solver orchestration (paper §6.1–6.2).

    Firmament races {e relaxation} against {e incremental cost scaling}
    on copies of the scheduling graph: relaxation wins the common case,
    and cost scaling bounds placement latency in relaxation's
    pathological ones (oversubscription, huge arriving jobs). That
    insurance is only needed in those cases, so the race is {e hedged}
    (send the backup only when the primary is late):

    - relaxation runs alone, in the caller's domain, on one scratch copy;
    - once it has run for the hedge deadline H, cost scaling starts on a
      second domain, on its own copy of the input, warm; the first
      Optimal result cancels the other, and {!solve} joins the hedge
      before it returns;
    - H is 2× the median of relaxation's last 8 optimal warm runtimes;
    - H is 0, so both start at once, when there is no history yet, on a
      [~scratch] retry, and while cost scaling holds the last raced
      round (until relaxation wins one back).

    The 2 and the 8 were chosen from settle and sweep traces (DESIGN.md
    "Hedged race"). [mcmf_race_hedges_total] counts rounds that started
    the hedge, and [mcmf_race_winner_only_total] rounds relaxation
    resolved before it started.

    Use {!prepare} on the {e previous} optimal solution before applying
    cluster changes: it price-refines the potentials so the next
    incremental cost scaling run starts at an ε bounded by the costliest
    changed arc (§6.2, Fig. 13).

    {b Memory discipline} (DESIGN.md): the orchestrator owns two scratch
    graphs and the solvers' persistent workspaces, so a steady-state round
    allocates (almost) nothing. Each {!solve} refreshes scratch copies
    with {!Flowgraph.Graph.copy_into}; a graph exposed in the result
    ([graph] on Optimal, [partial] on Stopped) leaves its slot and belongs
    to the caller, who should hand a graph it no longer needs back with
    {!recycle} — typically the replaced canonical graph after adopting an
    optimum, or a consumed partial. Never recycling is safe (the next
    round falls back to allocating); recycling keeps rounds
    allocation-free.

    {b In-place repair.} A round resolved by the repair path copies
    nothing: {!Incremental.repair} works on the input graph itself under
    its undo journal, and the result's [graph] {e is} the input. Every
    scratch copy the race takes (one per solver that runs) counts in
    [mcmf_race_graph_copies_total]. *)

(** What a round runs. The mode is the only switch: [Race] alone tries
    the in-place repair, and every other mode runs its solver(s) on every
    round. *)
type mode =
  | Race
      (** this repo's default: the {!Incremental.repair} of a certified
          graph first, the hedged race above on a give-up *)
  | Race_only  (** the hedged race on every round: the paper's Firmament *)
  | Relaxation_only
  | Incremental_cost_scaling_only
  | Cost_scaling_scratch_only  (** Quincy's configuration (cs2-style) *)

(** Every mode with its command-line name ([race], [race-only],
    [relaxation], [incremental-cs], [quincy-cs]), default first: the one
    table the CLIs, the fuzz harness and its repro artifacts read. *)
val modes : (string * mode) list

(** [mode_name m] is [m]'s name in {!modes}. *)
val mode_name : mode -> string

type t

(** [create ?alpha ?price_refine ~mode ()] builds an orchestrator.
    [alpha] is cost scaling's ε-division factor (paper tunes 9 for the
    Quincy policy); [price_refine] (default [true]) controls the §6.2
    transition optimization.

    In [mode = Race], {!prepare} tracks which graph's potentials certify
    its flow as optimal, and a later {!solve} of that same graph first
    tries to resolve the round by {!Incremental.repair} instead of running
    any solver. No other mode ever repairs.

    [node_hint]/[arc_hint] pre-size the solver workspaces and the two
    pooled scratch graphs so the first round runs steady-state (no
    workspace growth mid-round). [preallocate:false] still reserves the
    (cheap, O(nodes)) solver workspaces but skips the eager scratch-pool
    build — the hints over-provision for growth headroom, so on a large
    cluster the two pooled graphs cost seconds of zeroing + GC marking;
    a restart that must be live fast (snapshot restore) defers that to
    the first solve, which allocates at the actual graph size instead. *)
val create :
  ?alpha:int ->
  ?price_refine:bool ->
  ?preallocate:bool ->
  ?node_hint:int ->
  ?arc_hint:int ->
  mode:mode ->
  unit ->
  t

val mode : t -> mode

type winner =
  | Relaxation
  | Cost_scaling
  | Repair
      (** the round was resolved by the incremental flow-repair path;
          no solver ran *)

type result = {
  graph : Flowgraph.Graph.t;
      (** always a coherent graph to adopt as canonical: the winner's
          optimal solution when the round solved, and the {e untouched}
          input graph when it ended [Stopped] or [Infeasible] — a bad
          round never corrupts the caller's warm-start state. On a
          [Repair] win it is the input graph itself, repaired in place;
          adopting it needs no swap and leaves nothing to {!recycle} *)
  partial : Flowgraph.Graph.t option;
      (** on [Stopped]: the stopped solver's intermediate pseudoflow
          (a structure-preserving copy of the input), suitable for
          best-effort placement extraction
          ({!Firmament.Placement.extract_partial}); [None] otherwise *)
  winner : winner;
  stats : Solver_intf.stats;  (** the winner's stats — inspect [outcome] *)
  relaxation_stats : Solver_intf.stats option;
      (** [Some] whenever relaxation actually ran this round — in a
          hedged round that includes the loser (cancelled or [Stopped]
          runs report their partial work), so winner/loser margins stay
          observable. [None] in modes that never run the solver and in
          rounds resolved by the [Repair] path (both are [None]). *)
  cost_scaling_stats : Solver_intf.stats option;
      (** same guarantee for cost scaling — so [None] in a raced round
          relaxation finished before the hedge started *)
}

(** [prepare t g] must be called on the canonical graph while it still
    holds the previous optimal solution, {e before} applying the next batch
    of cluster changes. Price-refines the potentials (no-op when price
    refine is disabled, the mode never runs cost scaling, or the flow is
    not optimal — first run), and records whether [g]'s potentials now
    certify its flow: only then, and only in [Race] mode, may the next
    {!solve} take the incremental repair path. A graph just adopted from a [Repair]-winner
    round skips the refine pass — the repair already certified it. *)
val prepare : t -> Flowgraph.Graph.t -> unit

(** [solve ?stop ?scratch t g] solves [g]; every solver, the [Race]
    hedge included, has returned or been joined by then. Every solver
    runs on a structure-preserving copy (same node/arc ids), and
    [result.graph] is the copy to adopt on success or [g] itself on a
    degraded outcome. Never raises on infeasibility or cancellation —
    inspect [result.stats.outcome]. When a hedged round's solvers
    disagree, an [Infeasible] verdict (a sound proof) takes precedence
    over [Stopped].

    Repair path: when [t]'s mode is [Race], [~scratch] is not set and
    [g] is the graph the last {!prepare} certified, the round is first
    attempted as an O(changes) {!Incremental.repair} of [g]
    {e in place}, whatever the size of the change set — the kernel's own
    work cap decides when it is too big. On success the result has
    [winner = Repair] and [result.graph == g]; on any give-up (reasons
    exported as [mcmf_incremental_giveup_*_total]) the kernel has already
    rolled [g] back, and the hedged race runs on copies exactly as if no
    repair had been tried. That success is the only way [solve]
    mutates [g].

    [~scratch:true] discards the warm start: copies get a fresh
    {!Flowgraph.Graph.reset_flow}, cost scaling takes the full scratch ε
    ladder, and a raced round starts the hedge at once — the
    scheduler's second attempt after an [Infeasible] round. *)
val solve :
  ?stop:Solver_intf.stop ->
  ?scratch:bool ->
  t ->
  Flowgraph.Graph.t ->
  result

(** [recycle t g] donates [g]'s storage back to [t]'s scratch pool, to be
    refreshed by a later {!solve}. Call it on graphs you own and no longer
    need — the canonical graph just replaced by an adopted [result.graph],
    or a [partial] whose placements have been extracted. [g] must no
    longer be read by the caller afterwards. Recycling a graph already in
    the pool, or more graphs than the pool holds, is a safe no-op. *)
val recycle : t -> Flowgraph.Graph.t -> unit
