(** Price refine (Goldberg 1997; paper §6.2, Fig. 13).

    Recomputes node potentials to satisfy complementary slackness for the
    {e current} flow without changing the flow itself. Firmament applies it
    when switching from a relaxation solution to incremental cost scaling:
    relaxation's potentials satisfy only reduced-cost optimality and fit
    poorly into cost scaling's scaled-cost domain, forcing a high starting
    ε; refined potentials shrink the starting ε to the costliest arc
    change, making incremental cost scaling ≈4× faster.

    Implemented as a label-correcting shortest-path pass (SPFA) over the
    residual network from a virtual zero source: [pi(v) := -dist(v)] makes
    every residual reduced cost non-negative, which exists iff the flow is
    optimal. *)

(** Persistent SPFA scratch reused across runs; arrays are epoch-stamped
    or rewritten per live node, never refilled over the whole bound. *)
type workspace

val create_workspace : unit -> workspace

(** [certified ?scale g] is a read-only dual-feasibility check: [true] iff
    every residual arc has nonnegative {e scaled} reduced cost
    [cost·scale − p(src) + p(dst)] under [g]'s current potentials
    (default [scale = 1], i.e. plain reduced-cost optimality). Never
    mutates [g]. Used to certify incremental flow repairs whose
    potentials already live in cost scaling's scaled units. *)
val certified : ?scale:int -> Flowgraph.Graph.t -> bool

(** [run ?scale g] rewrites [g]'s potentials (multiplied by [scale], so
    they live in {!Cost_scaling}'s scaled-cost units; default 1). Returns
    [false] — leaving potentials untouched — if the current flow admits a
    negative residual cycle (i.e. is not optimal). Without [?workspace] a
    fresh one is allocated when the SPFA pass is needed. *)
val run : ?scale:int -> ?workspace:workspace -> Flowgraph.Graph.t -> bool
