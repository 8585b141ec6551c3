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
    ~help:"winner margin (loser minus winner wall time, ns) in two-solver rounds"
    "mcmf_race_margin_ns"

let m_wins_repair =
  Telemetry.Metrics.counter m
    ~help:"rounds resolved by the incremental flow-repair path (no solver ran)"
    "mcmf_race_wins_repair_total"

let m_winner_only =
  Telemetry.Metrics.counter m
    ~help:"sequential rounds that skipped the loser after a stable win streak"
    "mcmf_race_winner_only_total"

let m_winner_only_misses =
  Telemetry.Metrics.counter m
    ~help:"winner-only rounds that failed to prove optimality and re-raced"
    "mcmf_race_winner_only_misses_total"

let m_graph_copies =
  Telemetry.Metrics.counter m
    ~help:"scratch copies of the input graph taken by the race (solver copies and repair detaches)"
    "mcmf_race_graph_copies_total"

let t_rx = Telemetry.Trace.register tr "race.relaxation"
let t_cs = Telemetry.Trace.register tr "race.cost_scaling"

type mode =
  | Race_parallel
  | Fastest_sequential
  | Relaxation_only
  | Incremental_cost_scaling_only
  | Cost_scaling_scratch_only

(* Besides the orchestration config, [t] owns the round-to-round memory:
   two scratch graphs (the racers' working copies, refreshed by
   [G.copy_into] instead of reallocated) and the persistent solver
   workspaces. A scratch slot is empty while its graph is exposed to the
   caller (as [result.graph] or [partial]); graphs come back through
   {!recycle} or by losing the race. *)
type t = {
  mode : mode;
  price_refine : bool;
  incremental : bool;
  cs_state : Cost_scaling.state;
  rx_ws : Relaxation.workspace;
  pr_ws : Price_refine.workspace;
  inc_ws : Incremental.workspace;
  mutable scratch_a : G.t option;
  mutable scratch_b : G.t option;
  (* The scratch pool and the solver workspaces are single-occupancy, so
     at most one submitted solve may be outstanding at a time. *)
  mutable in_flight : bool;
  (* Last round's winner, used by [Fastest_sequential] to run the likely
     winner first and budget the second solver by the first's runtime. *)
  mutable seq_first : winner;
  (* Incremental-repair eligibility: the one graph (by physical identity)
     whose potentials are known to certify its flow as optimal, and the
     scaled-cost units those potentials live in. Set by {!prepare} after
     adoption; a graph not physically equal to [pot_graph] never takes
     the repair path, which makes interleaved commits, partial rounds and
     failed refines safe by construction. *)
  mutable pot_graph : G.t option;
  mutable pot_scale : int;
  (* The graph a successful repair produced, so {!prepare} can skip the
     refine pass when the scheduler adopts it (its potentials were
     certified by the repair itself, at [repaired_scale]): the input
     itself, or the scratch copy {!detach} moved the repair to. *)
  mutable repaired_graph : G.t option;
  mutable repaired_scale : int;
  (* The result of the in-place repair whose undo journal is still live
     in [inc_ws]: the one round {!detach} can still split from its
     input. Its [graph] is the input until then. *)
  mutable armed : result ref option;
  (* Adaptive winner-only escalation ([Fastest_sequential]): after [wo_k]
     consecutive rounds won by the same solver with a stable margin, skip
     the loser entirely; re-race after [wo_period] winner-only rounds, or
     immediately when the lone solver fails to prove optimality. *)
  wo_k : int;
  wo_period : int;
  wo_ratio : float;
  mutable wo_streak : int;
  mutable wo_since_race : int;
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

let create ?(alpha = 9) ?(price_refine = true) ?(incremental = true)
    ?(winner_only_k = 8) ?(winner_only_period = 32) ?(winner_only_ratio = 1.2)
    ?(preallocate = true) ?node_hint ?arc_hint ~mode () =
  let t =
    {
      mode;
      price_refine;
      incremental;
      cs_state = Cost_scaling.create ~alpha ();
      rx_ws = Relaxation.create_workspace ();
      pr_ws = Price_refine.create_workspace ();
      inc_ws = Incremental.create_workspace ();
      scratch_a = None;
      scratch_b = None;
      in_flight = false;
      seq_first = Cost_scaling;
      pot_graph = None;
      pot_scale = 1;
      repaired_graph = None;
      repaired_scale = 1;
      armed = None;
      wo_k = winner_only_k;
      wo_period = winner_only_period;
      wo_ratio = winner_only_ratio;
      wo_streak = 0;
      wo_since_race = 0;
    }
  in
  (* First-round warmup: pre-size the solver workspaces and pre-build the
     scratch pool from the topology hints, so round 1 runs steady-state
     instead of paying workspace growth. The workspace reserves are
     cheap O(nodes) arrays and always worth it; the two scratch graphs
     are sized to the over-provisioned hints (growth headroom), so on a
     large cluster they cost seconds of zeroing + GC marking up front —
     [preallocate:false] skips just that pool build, deferring to the
     first [take], which falls back to a [G.copy] sized to the actual
     graph. Restart paths that must be live fast (snapshot restore) use
     it. *)
  (match node_hint with
  | Some n when n > 0 ->
      Relaxation.reserve t.rx_ws n;
      Cost_scaling.reserve t.cs_state n;
      Price_refine.reserve t.pr_ws n;
      Incremental.reserve t.inc_ws n;
      if preallocate then begin
        t.scratch_a <- Some (G.create ~node_hint:n ?arc_hint ());
        t.scratch_b <- Some (G.create ~node_hint:n ?arc_hint ())
      end
  | _ -> ());
  t

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
  | Race_parallel | Fastest_sequential | Incremental_cost_scaling_only
  | Cost_scaling_scratch_only ->
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
    if ok && t.incremental then begin
      t.pot_graph <- Some g;
      t.pot_scale <- scale
    end
    else t.pot_graph <- None
  end
  else if t.incremental then begin
    (* No refine pass in this configuration; a read-only certification in
       unscaled units (relaxation's invariant) still unlocks the repair
       path when it holds. *)
    if Price_refine.certified ~scale:1 g then begin
      t.pot_graph <- Some g;
      t.pot_scale <- 1
    end
    else t.pot_graph <- None
  end

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

(* Both racers' stats are always populated in a two-solver round — that is
   what makes the loser's margin observable. The margin histogram records
   loser − winner runtime; bucket 0 (≤ 0) collects rounds the winner took
   on outcome rank (Optimal / Infeasible beats Stopped) despite being
   slower. *)
let two_solver_result ~input ~g_rx ~g_cs rx cs =
  let rx_ns = Telemetry.Clock.ns_of_s rx.Solver_intf.runtime in
  let cs_ns = Telemetry.Clock.ns_of_s cs.Solver_intf.runtime in
  Telemetry.Metrics.observe m m_rx_ns rx_ns;
  Telemetry.Metrics.observe m m_cs_ns cs_ns;
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

(* Sequential "race": run last round's winner first, then give the other
   solver a time budget equal to the first's runtime (on top of the
   caller's stop). The cap is winner-preserving: a capped second solver
   either finishes Optimal faster than the first — and would have won
   uncapped too — or ends [Stopped]/slower and loses exactly as an
   uncapped slower run would ({!pick_cost_scaling} ranks Optimal above
   Stopped, ties by runtime). What the cap removes is the loser's
   unbounded tail: the round costs at most ~2× the winner instead of
   winner + loser. When the first solver does not prove optimality the
   second runs uncapped (it may still find an optimum, or a sound
   infeasibility proof). Capped losers land in the margin histogram's
   low buckets — the residual gap the solve_wait phase exposes. *)
let solve_sequential_full ?stop ~scratch t g =
  let g_rx = take t g in
  let g_cs = take t g in
  if scratch then begin
    G.reset_flow g_rx;
    G.reset_flow g_cs
  end;
  let run_rx ?stop () =
    let t0 = Telemetry.Trace.span_begin () in
    let rx = Relaxation.solve ?stop ~workspace:t.rx_ws g_rx in
    Telemetry.Trace.span_end tr ~phase:t_rx ~t0;
    rx
  in
  let run_cs ?stop () =
    let t0 = Telemetry.Trace.span_begin () in
    let cs = Cost_scaling.solve ?stop ~incremental:(not scratch) t.cs_state g_cs in
    Telemetry.Trace.span_end tr ~phase:t_cs ~t0;
    cs
  in
  let budget first =
    match first.Solver_intf.outcome with
    | Solver_intf.Optimal ->
        let cap = Solver_intf.deadline_stop first.Solver_intf.runtime in
        Some (match stop with None -> cap | Some s -> Solver_intf.either_stop s cap)
    | Solver_intf.Infeasible | Solver_intf.Stopped -> stop
  in
  let rx, cs =
    match t.seq_first with
    | Relaxation ->
        let rx = run_rx ?stop () in
        (rx, run_cs ?stop:(budget rx) ())
    | Cost_scaling | Repair ->
        let cs = run_cs ?stop () in
        (run_rx ?stop:(budget cs) (), cs)
  in
  let r = two_solver_result ~input:g ~g_rx ~g_cs rx cs in
  (* Streak accounting for the winner-only escalation: the margin is
     "stable" when the loser was budget-capped (it had not finished by
     the winner's runtime) or finished at least [wo_ratio] slower. Only
     warm rounds count — scratch retries are atypical. *)
  if not scratch then begin
    let winner_st, loser_st =
      match r.winner with
      | Relaxation -> (rx, cs)
      | Cost_scaling | Repair -> (cs, rx)
    in
    let margin_ok =
      loser_st.Solver_intf.outcome = Solver_intf.Stopped
      || loser_st.Solver_intf.runtime >= t.wo_ratio *. winner_st.Solver_intf.runtime
    in
    t.wo_streak <-
      (if not margin_ok then 0
       else if r.winner = t.seq_first then t.wo_streak + 1
       else 1);
    t.wo_since_race <- 0
  end;
  t.seq_first <- r.winner;
  reclaim t r [ g_rx; g_cs ];
  r

(* Winner-only round: after [wo_k] consecutive same-winner rounds with a
   stable margin, run only the expected winner. Any outcome other than a
   proven optimum immediately falls back to the full two-solver round
   (the skipped solver might have succeeded), and a full re-race happens
   every [wo_period] rounds regardless so a regime change (e.g. the
   cluster filling up, where relaxation degrades) is noticed. *)
let solve_sequential ?stop ~scratch t g =
  if
    scratch || t.wo_k <= 0 || t.wo_streak < t.wo_k
    || t.wo_since_race >= t.wo_period
  then solve_sequential_full ?stop ~scratch t g
  else begin
    let c = take t g in
    let st =
      match t.seq_first with
      | Relaxation ->
          let t0 = Telemetry.Trace.span_begin () in
          let rx = Relaxation.solve ?stop ~workspace:t.rx_ws c in
          Telemetry.Trace.span_end tr ~phase:t_rx ~t0;
          Telemetry.Metrics.observe m m_rx_ns
            (Telemetry.Clock.ns_of_s rx.Solver_intf.runtime);
          rx
      | Cost_scaling | Repair ->
          let t0 = Telemetry.Trace.span_begin () in
          let cs = Cost_scaling.solve ?stop ~incremental:true t.cs_state c in
          Telemetry.Trace.span_end tr ~phase:t_cs ~t0;
          Telemetry.Metrics.observe m m_cs_ns
            (Telemetry.Clock.ns_of_s cs.Solver_intf.runtime);
          cs
    in
    match st.Solver_intf.outcome with
    | Solver_intf.Optimal ->
        Telemetry.Metrics.incr m m_winner_only;
        t.wo_since_race <- t.wo_since_race + 1;
        let winner = t.seq_first in
        let relaxation_stats, cost_scaling_stats =
          match winner with
          | Relaxation ->
              Telemetry.Metrics.incr m m_wins_rx;
              (Some st, None)
          | Cost_scaling | Repair ->
              Telemetry.Metrics.incr m m_wins_cs;
              (None, Some st)
        in
        let r =
          finish ~input:g ~solved:c ~winner ~relaxation_stats
            ~cost_scaling_stats st
        in
        reclaim t r [ c ];
        r
    | Solver_intf.Infeasible | Solver_intf.Stopped ->
        (* The lone solver could not prove an optimum: the skipped one
           might have. Discard this attempt and re-race both. *)
        Telemetry.Metrics.incr m m_winner_only_misses;
        t.wo_streak <- 0;
        t.wo_since_race <- 0;
        give_back t c;
        solve_sequential_full ?stop ~scratch t g
  end

let solve_relaxation_only ?stop ~scratch t g =
  let c = take t g in
  if scratch then G.reset_flow c;
  let t0 = Telemetry.Trace.span_begin () in
  let rx = Relaxation.solve ?stop ~workspace:t.rx_ws c in
  Telemetry.Trace.span_end tr ~phase:t_rx ~t0;
  Telemetry.Metrics.observe m m_rx_ns (Telemetry.Clock.ns_of_s rx.Solver_intf.runtime);
  Telemetry.Metrics.incr m m_wins_rx;
  let r =
    finish ~input:g ~solved:c ~winner:Relaxation ~relaxation_stats:(Some rx)
      ~cost_scaling_stats:None rx
  in
  reclaim t r [ c ];
  r

let solve_cost_scaling_only ?stop ~incremental t g =
  let c = take t g in
  let t0 = Telemetry.Trace.span_begin () in
  let cs = Cost_scaling.solve ?stop ~incremental t.cs_state c in
  Telemetry.Trace.span_end tr ~phase:t_cs ~t0;
  Telemetry.Metrics.observe m m_cs_ns (Telemetry.Clock.ns_of_s cs.Solver_intf.runtime);
  Telemetry.Metrics.incr m m_wins_cs;
  let r =
    finish ~input:g ~solved:c ~winner:Cost_scaling ~relaxation_stats:None
      ~cost_scaling_stats:(Some cs) cs
  in
  reclaim t r [ c ];
  r

let solve_incremental_cs ?stop ~scratch t g =
  let c = take t g in
  if scratch then G.reset_flow c;
  let t0 = Telemetry.Trace.span_begin () in
  let cs = Cost_scaling.solve ?stop ~incremental:(not scratch) t.cs_state c in
  Telemetry.Trace.span_end tr ~phase:t_cs ~t0;
  Telemetry.Metrics.observe m m_cs_ns (Telemetry.Clock.ns_of_s cs.Solver_intf.runtime);
  Telemetry.Metrics.incr m m_wins_cs;
  let r =
    finish ~input:g ~solved:c ~winner:Cost_scaling ~relaxation_stats:None
      ~cost_scaling_stats:(Some cs) cs
  in
  reclaim t r [ c ];
  r

(* A submitted solve. The working copies were taken from the input at
   submit time, so the caller may mutate the input graph while the solve
   is outstanding. [Done] wraps a solve that ran eagerly during submit
   (sequential modes); [Running] tracks detached racing domains. *)
type inflight = {
  r_owner : t;
  r_copies : G.t list;
  r_done : int Atomic.t;  (* finished racers; poll is ready at [r_total] *)
  r_total : int;
  r_join : unit -> result;  (* joins the domains and assembles the result *)
  mutable r_result : result option;
}

(* [In_place r]: a round resolved by repairing the input in place; [r]
   is redirected to a scratch copy by {!detach}. *)
type handle = Done of result | Running of inflight | In_place of result ref

(* Parallel race, detached: both algorithms run in their own domain on
   their own copy; the first Optimal finisher flips the shared cancel
   flag. Each domain uses a distinct persistent workspace ([rx_ws] vs.
   [cs_state]'s), so the scratch sharing is race-free. The domains are
   joined by {!await}, behind the returned handle. *)
let submit_parallel ?(stop = Solver_intf.never_stop) ~scratch t g =
  let g_rx = take t g in
  let g_cs = take t g in
  if scratch then begin
    G.reset_flow g_rx;
    G.reset_flow g_cs
  end;
  let cancel = Atomic.make false in
  let stop' = Solver_intf.either_stop stop (Solver_intf.flag_stop cancel) in
  let announce stats =
    (match stats.Solver_intf.outcome with
    | Solver_intf.Optimal -> Atomic.set cancel true
    | Solver_intf.Infeasible | Solver_intf.Stopped -> ());
    stats
  in
  let finished = Atomic.make 0 in
  let d_rx =
    Domain.spawn (fun () ->
        let t0 = Telemetry.Trace.span_begin () in
        let st = announce (Relaxation.solve ~stop:stop' ~workspace:t.rx_ws g_rx) in
        Telemetry.Trace.span_end tr ~phase:t_rx ~t0;
        Atomic.incr finished;
        st)
  in
  let d_cs =
    Domain.spawn (fun () ->
        let t0 = Telemetry.Trace.span_begin () in
        let st =
          announce
            (Cost_scaling.solve ~stop:stop' ~incremental:(not scratch) t.cs_state g_cs)
        in
        Telemetry.Trace.span_end tr ~phase:t_cs ~t0;
        Atomic.incr finished;
        st)
  in
  t.in_flight <- true;
  let join () =
    let rx = Domain.join d_rx in
    let cs = Domain.join d_cs in
    two_solver_result ~input:g ~g_rx ~g_cs rx cs
  in
  Running
    {
      r_owner = t;
      r_copies = [ g_rx; g_cs ];
      r_done = finished;
      r_total = 2;
      r_join = join;
      r_result = None;
    }

(* Delta path: when the caller allows repair ([delta_budget]) and the
   input graph is the one whose potentials {!prepare} certified, count the
   input's excess nodes — O(n), no copy — and only when there are at most
   [delta_budget] of them repair the input itself, in place, before
   dispatching any solver. A give-up (oversized delta, unroutable excess,
   failed certification, stop) has already rolled the input back through
   the kernel's undo journal, so the configured mode runs on exactly the
   graph it would have seen — the fallback ladder below never sees a
   difference. A success leaves the journal armed for {!detach}. *)
let excess_nodes_within g budget =
  let n = ref 0 in
  (try
     G.iter_nodes g (fun v ->
         if G.excess g v > 0 then begin
           incr n;
           if !n > budget then raise Exit
         end)
   with Exit -> ());
  !n <= budget

let try_repair ?stop ~scratch ~delta_budget t g =
  if scratch || not t.incremental then None
  else
    match (delta_budget, t.pot_graph) with
    | Some budget, Some pg
      when pg == g && budget > 0 && excess_nodes_within g budget -> (
        match
          Incremental.repair ?stop ~scale:t.pot_scale ~budget
            ~workspace:t.inc_ws g
        with
        | Incremental.Repaired stats ->
            t.repaired_graph <- Some g;
            t.repaired_scale <- t.pot_scale;
            Telemetry.Metrics.incr m m_wins_repair;
            let r =
              ref
                {
                  graph = g;
                  partial = None;
                  winner = Repair;
                  stats;
                  relaxation_stats = None;
                  cost_scaling_stats = None;
                }
            in
            t.armed <- Some r;
            Some r
        | Incremental.Gave_up _ -> None)
    | _ -> None

let submit ?stop ?(scratch = false) ?delta_budget t g =
  if t.in_flight then invalid_arg "Race.submit: a solve is already in flight";
  Telemetry.Metrics.incr m m_solves;
  (* A repaired-copy marker is only meaningful between the submit that
     produced it and the {!prepare} of its adoption; a commit that did
     not adopt (interleaved reconcile) leaves it stale, and the copy may
     already be back in the scratch pool — drop it before it can
     spuriously match a future adoption. *)
  t.repaired_graph <- None;
  t.armed <- None;
  match try_repair ?stop ~scratch ~delta_budget t g with
  | Some r -> In_place r
  | None -> (
      match t.mode with
      | Relaxation_only -> Done (solve_relaxation_only ?stop ~scratch t g)
      | Incremental_cost_scaling_only -> Done (solve_incremental_cs ?stop ~scratch t g)
      | Cost_scaling_scratch_only ->
          Done (solve_cost_scaling_only ?stop ~incremental:false t g)
      | Fastest_sequential -> Done (solve_sequential ?stop ~scratch t g)
      | Race_parallel -> submit_parallel ?stop ~scratch t g)

let poll = function
  | Done _ | In_place _ -> true
  | Running i -> i.r_result <> None || Atomic.get i.r_done >= i.r_total

let await = function
  | Done r -> r
  | In_place r -> !r
  | Running i -> (
      match i.r_result with
      | Some r -> r
      | None ->
          let r = i.r_join () in
          reclaim i.r_owner r i.r_copies;
          i.r_owner.in_flight <- false;
          i.r_result <- Some r;
          r)

let solve ?stop ?scratch ?delta_budget t g =
  await (submit ?stop ?scratch ?delta_budget t g)

(* The lazy copy behind in-place repair: only a round whose input is
   touched before commit pays it. The repaired state moves to a scratch
   slot, which becomes the result (and the graph {!prepare} will
   recognise as certified), and the journal rolls the input back to the
   pre-round warm start. *)
let detach t = function
  | Done _ | Running _ -> ()
  | In_place r -> (
      match t.armed with
      | Some a when a == r ->
          t.armed <- None;
          let g = !r.graph in
          let c = take t g in
          Incremental.rollback t.inc_ws g;
          t.repaired_graph <- Some c;
          r := { !r with graph = c }
      | Some _ | None -> ())
