module G = Flowgraph.Graph

(* Telemetry ids, registered once at module init. *)
let m = Telemetry.Metrics.global ()
let tr = Telemetry.Trace.global ()

let m_solves =
  Telemetry.Metrics.counter m ~help:"race rounds run" "mcmf_race_solves_total"

let m_wins_rx =
  Telemetry.Metrics.counter m ~help:"rounds won by relaxation"
    "mcmf_race_wins_relaxation_total"

let m_wins_cs =
  Telemetry.Metrics.counter m ~help:"rounds won by cost scaling"
    "mcmf_race_wins_cost_scaling_total"

let m_rx_ns =
  Telemetry.Metrics.histogram m ~help:"relaxation wall time per round (ns)"
    "mcmf_race_relaxation_ns"

let m_cs_ns =
  Telemetry.Metrics.histogram m ~help:"cost scaling wall time per round (ns)"
    "mcmf_race_cost_scaling_ns"

let m_margin_ns =
  Telemetry.Metrics.histogram m
    ~help:"winner margin (loser minus winner wall time, ns) in hedged rounds"
    "mcmf_race_margin_ns"

let m_wins_repair =
  Telemetry.Metrics.counter m
    ~help:"rounds resolved by the incremental flow-repair path (no solver ran)"
    "mcmf_race_wins_repair_total"

let m_winner_only =
  Telemetry.Metrics.counter m
    ~help:"raced rounds relaxation resolved before the cost-scaling hedge started"
    "mcmf_race_winner_only_total"

let m_hedges =
  Telemetry.Metrics.counter m
    ~help:"raced rounds that started the cost-scaling hedge"
    "mcmf_race_hedges_total"

let m_graph_copies =
  Telemetry.Metrics.counter m
    ~help:"scratch copies of the input graph taken by the race"
    "mcmf_race_graph_copies_total"

let t_rx = Telemetry.Trace.register tr "race.relaxation"
let t_cs = Telemetry.Trace.register tr "race.cost_scaling"

type mode =
  | Race
  | Race_only
  | Relaxation_only
  | Incremental_cost_scaling_only
  | Cost_scaling_scratch_only

let modes =
  [
    ("race", Race);
    ("race-only", Race_only);
    ("relaxation", Relaxation_only);
    ("incremental-cs", Incremental_cost_scaling_only);
    ("quincy-cs", Cost_scaling_scratch_only);
  ]

let mode_name m = fst (List.find (fun (_, m') -> m' = m) modes)

(* The hedge deadline is [hedge_factor] × the median of relaxation's last
   [hedge_window] optimal runtimes (DESIGN.md "Hedged race" has the
   traces that chose them). *)
let hedge_factor = 2
let hedge_window = 8

(* Besides the orchestration config, [t] owns the round-to-round memory:
   two scratch graphs (the solvers' working copies, refreshed by
   [G.copy_into] instead of reallocated) and the persistent solver
   workspaces. A scratch slot is empty while its graph is exposed to the
   caller (as [result.graph] or [partial]); graphs come back through
   {!recycle} or by losing the race. *)
type t = {
  mode : mode;
  price_refine : bool;
  cs_state : Cost_scaling.state;
  rx_ws : Relaxation.workspace;
  pr_ws : Price_refine.workspace;
  inc_ws : Incremental.workspace;
  mutable scratch_a : G.t option;
  mutable scratch_b : G.t option;
  (* The hedge's memory: a ring of relaxation's last [hedge_window]
     optimal warm runtimes (ns), a scratch array to take their median
     without allocating, and whether cost scaling won the last raced
     round (then the next one races from the start). *)
  rx_ring : int array;
  rx_sorted : int array;
  mutable rx_len : int;
  mutable rx_next : int;
  mutable cs_won : bool;
  (* Incremental-repair eligibility: the one graph (by physical identity)
     whose potentials are known to certify its flow as optimal, and the
     scaled-cost units those potentials live in. Set by {!prepare} after
     adoption; a graph not physically equal to [pot_graph] never takes
     the repair path, which makes partial rounds and failed refines safe by
     construction. *)
  mutable pot_graph : G.t option;
  mutable pot_scale : int;
  (* The graph a successful repair produced (the input itself, repaired
     in place), so {!prepare} can skip the refine pass when the scheduler
     adopts it: the repair already certified its potentials, at
     [repaired_scale]. *)
  mutable repaired_graph : G.t option;
  mutable repaired_scale : int;
}

and winner = Relaxation | Cost_scaling | Repair

and result = {
  graph : Flowgraph.Graph.t;
  partial : Flowgraph.Graph.t option;
  winner : winner;
  stats : Solver_intf.stats;
  relaxation_stats : Solver_intf.stats option;
  cost_scaling_stats : Solver_intf.stats option;
}

(* Everything starts empty and grows from the graphs it meets: the
   workspaces double to the largest node bound seen, and the first
   [take] of each scratch slot copies the graph at its actual size. *)
let create ?(alpha = 9) ?(price_refine = true) ~mode () =
  {
    mode;
    price_refine;
    cs_state = Cost_scaling.create ~alpha ();
    rx_ws = Relaxation.create_workspace ();
    pr_ws = Price_refine.create_workspace ();
    inc_ws = Incremental.create_workspace ();
    scratch_a = None;
    scratch_b = None;
    rx_ring = Array.make hedge_window 0;
    rx_sorted = Array.make hedge_window 0;
    rx_len = 0;
    rx_next = 0;
    cs_won = false;
    pot_graph = None;
    pot_scale = 1;
    repaired_graph = None;
    repaired_scale = 1;
  }

let mode t = t.mode

(* Pop a scratch slot and refresh it into a copy of [g]; fall back to a
   fresh allocation when both slots are out (first rounds, or a caller
   that never recycles). The physical-equality guards keep a buggy
   recycle of the live input from silently corrupting the round. *)
let take t g =
  Telemetry.Metrics.incr m m_graph_copies;
  match t.scratch_a with
  | Some s when s != g ->
      t.scratch_a <- None;
      G.copy_into s g;
      s
  | _ -> (
      match t.scratch_b with
      | Some s when s != g ->
          t.scratch_b <- None;
          G.copy_into s g;
          s
      | _ -> G.copy g)

let give_back t s =
  match (t.scratch_a, t.scratch_b) with
  | Some a, _ when a == s -> ()
  | _, Some b when b == s -> ()
  | None, _ -> t.scratch_a <- Some s
  | _, None -> t.scratch_b <- Some s
  | Some _, Some _ -> ()

let recycle = give_back

(* Return every working copy the result does not expose to its scratch
   slots. The exposed ones (adopted optimum, surfaced partial) belong to
   the caller until recycled. *)
let reclaim t result copies =
  List.iter
    (fun c ->
      if
        c != result.graph
        && (match result.partial with Some p -> c != p | None -> true)
      then give_back t c)
    copies

let uses_cost_scaling t =
  match t.mode with
  | Relaxation_only -> false
  | Race | Race_only | Incremental_cost_scaling_only | Cost_scaling_scratch_only ->
      true

let prepare t g =
  let repaired =
    match t.repaired_graph with Some r -> r == g | None -> false
  in
  t.repaired_graph <- None;
  if repaired then begin
    (* The repair itself certified this graph's potentials (at
       [repaired_scale]); the refine pass would be a no-op. *)
    t.pot_graph <- Some g;
    t.pot_scale <- t.repaired_scale
  end
  else if t.price_refine && uses_cost_scaling t then begin
    let scale = Cost_scaling.ensure_scale t.cs_state g in
    let ok = Price_refine.run ~scale ~workspace:t.pr_ws g in
    if ok && t.mode = Race then begin
      t.pot_graph <- Some g;
      t.pot_scale <- scale
    end
    else t.pot_graph <- None
  end
  else if t.mode = Race then begin
    (* No refine pass in this configuration; a read-only certification in
       unscaled units (relaxation's invariant) still unlocks the repair
       path when it holds. *)
    if Price_refine.certified ~scale:1 g then begin
      t.pot_graph <- Some g;
      t.pot_scale <- 1
    end
    else t.pot_graph <- None
  end;
  (* The next round of an armed graph is a repair: size its workspace
     now, at the graph's size, rather than inside that round. *)
  match t.pot_graph with
  | Some p when p == g -> Incremental.fit_workspace t.inc_ws g
  | _ -> ()

(* Assemble a result so that [graph] is always coherent: the winner's copy
   when it solved to optimality, otherwise the untouched input graph (the
   caller's warm start survives a bad round). A [Stopped] winner's
   intermediate pseudoflow is surfaced separately as [partial]. *)
let finish ~input ~solved ~winner ~relaxation_stats ~cost_scaling_stats stats =
  match stats.Solver_intf.outcome with
  | Solver_intf.Optimal ->
      { graph = solved; partial = None; winner; stats; relaxation_stats; cost_scaling_stats }
  | Solver_intf.Stopped ->
      { graph = input; partial = Some solved; winner; stats; relaxation_stats;
        cost_scaling_stats }
  | Solver_intf.Infeasible ->
      { graph = input; partial = None; winner; stats; relaxation_stats; cost_scaling_stats }

(* Pick between the two racers. Optimal beats everything (faster of two
   optima); an infeasibility proof is sound for the whole instance, so it
   beats a mere [Stopped]; two equal outcomes go to the faster solver. *)
let pick_cost_scaling rx cs =
  let open Solver_intf in
  match (rx.outcome, cs.outcome) with
  | Optimal, Optimal -> cs.runtime < rx.runtime
  | _, Optimal -> true
  | Optimal, _ -> false
  | Stopped, Infeasible -> true
  | Infeasible, Stopped -> false
  | _, _ -> cs.runtime < rx.runtime

let run_rx ?stop t c =
  let t0 = Telemetry.Trace.span_begin () in
  let rx = Relaxation.solve ?stop ~workspace:t.rx_ws c in
  Telemetry.Trace.span_end tr ~phase:t_rx ~t0;
  Telemetry.Metrics.observe m m_rx_ns (Telemetry.Clock.ns_of_s rx.Solver_intf.runtime);
  rx

(* [incremental] runs cost scaling warm from the copy's flow and
   potentials; otherwise it resets the flow and takes the full ε ladder. *)
let run_cs ?stop ~incremental t c =
  let t0 = Telemetry.Trace.span_begin () in
  let cs = Cost_scaling.solve ?stop ~incremental t.cs_state c in
  Telemetry.Trace.span_end tr ~phase:t_cs ~t0;
  Telemetry.Metrics.observe m m_cs_ns (Telemetry.Clock.ns_of_s cs.Solver_intf.runtime);
  cs

(* A round one solver resolved alone. *)
let one_solver ~input ~solved winner st =
  match winner with
  | Relaxation ->
      Telemetry.Metrics.incr m m_wins_rx;
      finish ~input ~solved ~winner ~relaxation_stats:(Some st) ~cost_scaling_stats:None st
  | Cost_scaling | Repair ->
      Telemetry.Metrics.incr m m_wins_cs;
      finish ~input ~solved ~winner ~relaxation_stats:None ~cost_scaling_stats:(Some st) st

(* Both racers' stats are always populated in a hedged round — that is
   what makes the loser's margin observable. The margin histogram records
   loser − winner runtime; bucket 0 (≤ 0) collects rounds the winner took
   on outcome rank (Optimal / Infeasible beats Stopped) despite being
   slower. *)
let two_solver_result ~input ~g_rx ~g_cs rx cs =
  let rx_ns = Telemetry.Clock.ns_of_s rx.Solver_intf.runtime in
  let cs_ns = Telemetry.Clock.ns_of_s cs.Solver_intf.runtime in
  if pick_cost_scaling rx cs then begin
    Telemetry.Metrics.incr m m_wins_cs;
    Telemetry.Metrics.observe m m_margin_ns (rx_ns - cs_ns);
    finish ~input ~solved:g_cs ~winner:Cost_scaling ~relaxation_stats:(Some rx)
      ~cost_scaling_stats:(Some cs) cs
  end
  else begin
    Telemetry.Metrics.incr m m_wins_rx;
    Telemetry.Metrics.observe m m_margin_ns (cs_ns - rx_ns);
    finish ~input ~solved:g_rx ~winner:Relaxation ~relaxation_stats:(Some rx)
      ~cost_scaling_stats:(Some cs) rx
  end

(* The single-solver modes; [solve] sends [Race] and [Race_only] to
   {!solve_race}. *)
let solve_single ?stop ~scratch t g =
  let c = take t g in
  if scratch then G.reset_flow c;
  let r =
    match t.mode with
    | Relaxation_only -> one_solver ~input:g ~solved:c Relaxation (run_rx ?stop t c)
    | Race | Race_only | Incremental_cost_scaling_only | Cost_scaling_scratch_only ->
        let incremental = t.mode = Incremental_cost_scaling_only && not scratch in
        one_solver ~input:g ~solved:c Cost_scaling (run_cs ?stop ~incremental t c)
  in
  reclaim t r [ c ];
  r

(* The hedge deadline in ns: 0 (race from the start) with no history, on
   a scratch retry, and while cost scaling holds the last raced round;
   otherwise [hedge_factor] × the median of the runtime ring, taken by an
   insertion sort of at most [hedge_window] ints. *)
let hedge_delay_ns t ~scratch =
  let n = t.rx_len in
  if scratch || t.cs_won || n = 0 then 0
  else begin
    let s = t.rx_sorted in
    Array.blit t.rx_ring 0 s 0 n;
    for i = 1 to n - 1 do
      let x = s.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && s.(!j) > x do
        s.(!j + 1) <- s.(!j);
        decr j
      done;
      s.(!j + 1) <- x
    done;
    hedge_factor * (s.((n - 1) / 2) + s.(n / 2)) / 2
  end

let record_rx t rx =
  t.rx_ring.(t.rx_next) <- Telemetry.Clock.ns_of_s rx.Solver_intf.runtime;
  t.rx_next <- (t.rx_next + 1) mod hedge_window;
  if t.rx_len < hedge_window then t.rx_len <- t.rx_len + 1

(* The hedged race (paper §6.1): relaxation runs alone in the caller's
   domain on one scratch copy. Once it has run for the hedge deadline —
   checked at its stop polls — cost scaling starts on a second domain,
   on its own copy of the input (nothing mutates [g] during the call),
   warm. The first Optimal result flips the shared cancel flag; the hedge
   is joined before returning. Each solver has its own persistent
   workspace ([rx_ws] vs. [cs_state]'s), and the hedge domain's [take]
   runs while this domain is inside relaxation and off the pool, so the
   sharing is race-free. *)
let solve_race ?(stop = Solver_intf.never_stop) ~scratch t g =
  let g_rx = take t g in
  if scratch then G.reset_flow g_rx;
  let cancel = Atomic.make false in
  let stop = Solver_intf.either_stop stop (Solver_intf.flag_stop cancel) in
  let hedge = ref None in
  let start_hedge () =
    Telemetry.Metrics.incr m m_hedges;
    hedge :=
      Some
        (Domain.spawn (fun () ->
             let g_cs = take t g in
             if scratch then G.reset_flow g_cs;
             let cs = run_cs ~stop ~incremental:(not scratch) t g_cs in
             if cs.Solver_intf.outcome = Solver_intf.Optimal then Atomic.set cancel true;
             (g_cs, cs)))
  in
  let delay = hedge_delay_ns t ~scratch in
  if delay = 0 then start_hedge ();
  let t0 = Telemetry.Clock.now_ns () in
  let rx_stop () =
    (match !hedge with
    | None when Telemetry.Clock.now_ns () - t0 >= delay -> start_hedge ()
    | None | Some _ -> ());
    stop ()
  in
  let rx = run_rx ~stop:rx_stop t g_rx in
  let optimal = rx.Solver_intf.outcome = Solver_intf.Optimal in
  if optimal then Atomic.set cancel true;
  if optimal && not scratch then record_rx t rx;
  match !hedge with
  | None ->
      Telemetry.Metrics.incr m m_winner_only;
      let r = one_solver ~input:g ~solved:g_rx Relaxation rx in
      reclaim t r [ g_rx ];
      r
  | Some d ->
      let g_cs, cs = Domain.join d in
      let r = two_solver_result ~input:g ~g_rx ~g_cs rx cs in
      t.cs_won <- r.winner = Cost_scaling;
      reclaim t r [ g_rx; g_cs ];
      r

(* Delta path: in [Race] mode, when the input graph is the one
   whose potentials {!prepare} certified, repair the input itself, in
   place, before dispatching any solver. The kernel alone decides when
   the delta is too big: it gives up once its searches outgrow the graph.
   A give-up (work cap, unroutable excess, failed certification, stop)
   has already rolled the input back through the kernel's undo journal,
   so the configured mode runs on exactly the graph it would have seen —
   the fallback ladder below never sees a difference. *)
let try_repair ?stop ~scratch t g =
  match t.pot_graph with
  | Some pg when t.mode = Race && (not scratch) && pg == g -> (
      match Incremental.repair ?stop ~scale:t.pot_scale ~workspace:t.inc_ws g with
      | Incremental.Repaired stats ->
          t.repaired_graph <- Some g;
          t.repaired_scale <- t.pot_scale;
          Telemetry.Metrics.incr m m_wins_repair;
          Some
            {
              graph = g;
              partial = None;
              winner = Repair;
              stats;
              relaxation_stats = None;
              cost_scaling_stats = None;
            }
      | Incremental.Gave_up _ -> None)
  | _ -> None

let solve ?stop ?(scratch = false) t g =
  Telemetry.Metrics.incr m m_solves;
  (* A repaired-graph marker is only meaningful between the solve that
     produced it and the {!prepare} of its adoption; a caller that never
     adopted it must not see it match a later graph. *)
  t.repaired_graph <- None;
  match try_repair ?stop ~scratch t g with
  | Some r -> r
  | None -> (
      match t.mode with
      | Race | Race_only -> solve_race ?stop ~scratch t g
      | Relaxation_only | Incremental_cost_scaling_only | Cost_scaling_scratch_only ->
          solve_single ?stop ~scratch t g)
