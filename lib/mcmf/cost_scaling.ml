module G = Flowgraph.Graph

(* Telemetry ids, registered once at module init (ids are ints; the
   hot-path record calls below are plain array writes). *)
let m = Telemetry.Metrics.global ()
let tr = Telemetry.Trace.global ()

let m_solves =
  Telemetry.Metrics.counter m ~help:"cost-scaling solves started"
    "mcmf_cost_scaling_solves_total"

let m_phases =
  Telemetry.Metrics.counter m ~help:"epsilon phases (refine passes) run"
    "mcmf_cost_scaling_phases_total"

let m_pushes =
  Telemetry.Metrics.counter m ~help:"pushes across all epsilon phases"
    "mcmf_cost_scaling_pushes_total"

let m_relabels =
  Telemetry.Metrics.counter m ~help:"relabels across all epsilon phases"
    "mcmf_cost_scaling_relabels_total"

let m_phase_ns =
  Telemetry.Metrics.histogram m ~help:"per-epsilon-phase wall time (ns)"
    "mcmf_cost_scaling_phase_ns"

let m_phase_pushes =
  Telemetry.Metrics.histogram m ~help:"pushes per epsilon phase"
    "mcmf_cost_scaling_phase_pushes"

let m_phase_relabels =
  Telemetry.Metrics.histogram m ~help:"relabels per epsilon phase"
    "mcmf_cost_scaling_phase_relabels"

let t_phase = Telemetry.Trace.register tr "cost_scaling.eps_phase"

(* Besides the ε-scale carried across runs, the state owns the solver's
   persistent workspace: node-indexed scratch reused by every [refine] of
   every solve. [in_queue] is epoch-stamped (= queue_epoch iff queued) so
   clearing it between refines is a counter bump; [cur_arc] and [p_start]
   are written for every live node at refine start, so stale entries are
   never read. *)
type state = {
  alpha : int;
  mutable scale : int;
  mutable nbound : int;
  mutable in_queue : int array;
  mutable cur_arc : int array;
  mutable p_start : int array;
  mutable queue_epoch : int;
  active : Int_deque.t;
}

let create ?(alpha = 2) () =
  if alpha < 2 then invalid_arg "Cost_scaling.create: alpha < 2";
  {
    alpha;
    scale = 2;
    nbound = 0;
    in_queue = [||];
    cur_arc = [||];
    p_start = [||];
    queue_epoch = 0;
    active = Int_deque.create ();
  }

let ws_ensure st bound =
  if bound > st.nbound then begin
    let n = ref (max 64 st.nbound) in
    while !n < bound do
      n := !n * 2
    done;
    let n = !n in
    st.in_queue <- Array.make n 0;
    st.cur_arc <- Array.make n (-1);
    st.p_start <- Array.make n 0;
    st.nbound <- n
  end

let alpha st = st.alpha

(* Fault injection for the differential fuzz harness: a floor > 1 truncates
   the ε ladder below, so the solver stops at an ε-optimal (not optimal)
   flow while still reporting [Optimal]. Off (= 1) unless a test or
   [firmament_fuzz --inject-eps] flips it. *)
let debug_eps_floor = ref 1

let ensure_scale st g =
  let needed = G.node_count g + 2 in
  if st.scale < needed then st.scale <- needed
  else if st.scale > 2 * needed then begin
    (* The cluster shrank well below the stored scale: a stale large S
       inflates the scratch ladder's starting ε (C·S) and every reduced
       cost, wasting refine passes. Rescale the warm potentials into the
       new units so their reduced-cost signs survive (up to ±1 rounding
       per endpoint), then adopt the tight scale. *)
    let old = st.scale in
    G.iter_nodes g (fun n -> G.set_potential g n (G.potential g n * needed / old));
    st.scale <- needed
  end;
  st.scale

(* All reduced costs below are in scaled units: rc(a) = cost(a)*S - p(u) + p(v),
   with p the graph potentials (written in scaled units by this solver and by
   Price_refine when handed ~scale). *)

let solve ?(stop = Solver_intf.never_stop) ?(incremental = false) st g =
  let t0 = Telemetry.Clock.now_ns () in
  Telemetry.Metrics.incr m m_solves;
  let s = ensure_scale st g in
  let pushes = ref 0 in
  let relabels = ref 0 in
  let iterations = ref 0 in
  (* ε-phase bookkeeping, hoisted so a phase cut short by Stop or
     Infeasible is still recorded (closed from [finish]). *)
  let phase_open = ref false in
  let phase_t0 = ref 0 in
  let phase_p0 = ref 0 in
  let phase_r0 = ref 0 in
  let end_phase () =
    if !phase_open then begin
      phase_open := false;
      let t1 = Telemetry.Clock.now_ns () in
      Telemetry.Metrics.observe m m_phase_ns (t1 - !phase_t0);
      Telemetry.Metrics.observe m m_phase_pushes (!pushes - !phase_p0);
      Telemetry.Metrics.observe m m_phase_relabels (!relabels - !phase_r0);
      Telemetry.Trace.span tr ~phase:t_phase ~t0:!phase_t0 ~t1
    end
  in
  let finish outcome =
    end_phase ();
    Telemetry.Metrics.add m m_pushes !pushes;
    Telemetry.Metrics.add m m_relabels !relabels;
    Solver_intf.stats ~iterations:!iterations ~pushes:!pushes ~relabels:!relabels outcome
      (Telemetry.Clock.s_of_ns (Telemetry.Clock.now_ns () - t0))
  in
  if not incremental then G.reset_flow g;
  let bound = max 1 (G.node_bound g) in
  let rc a = (G.cost g a * s) - G.potential g (G.src g a) + G.potential g (G.dst g a) in
  (* Starting ε. From scratch, scaling must begin at C·S and work down —
     the zero flow has no reduced-cost violations, but starting at ε = 1
     degenerates into unscaled push-relabel. Incrementally, the worst
     violation the graph changes introduced suffices (paper §6.2: bounded
     by the costliest changed arc after price refine). *)
  let scratch_eps = max 1 (G.max_arc_cost g * s) in
  let eps0 =
    let m = ref 1 in
    G.iter_arcs g (fun a0 ->
        if G.rescap g a0 > 0 && -rc a0 > !m then m := -rc a0;
        let a1 = G.rev a0 in
        if G.rescap g a1 > 0 && -rc a1 > !m then m := -rc a1);
    if not incremental then max !m scratch_eps
    else if !m > 8 * scratch_eps then begin
      (* The warm potentials are wildly inconsistent with the graph (e.g.
         many new zero-potential nodes against old scaled duals, and no
         price refine ran): a from-scratch solve is strictly cheaper than
         descending from such an ε. *)
      G.reset_flow g;
      scratch_eps
    end
    else begin
      (* A warm start only helps when little work is left. If a large
         share of the supply is unrouted (e.g. the first solve of a fresh
         graph, where zero flow at zero potentials shows no violation at
         all), routing it at a tiny ε degenerates into unscaled
         push-relabel — take the full ladder instead. *)
      let unrouted = ref 0 and supply_total = ref 0 in
      G.iter_nodes g (fun n ->
          let e = G.excess g n and b = G.supply g n in
          if e > 0 then unrouted := !unrouted + e;
          if b > 0 then supply_total := !supply_total + b);
      if !unrouted * 5 > !supply_total && !m < scratch_eps then scratch_eps else !m
    end
  in
  ws_ensure st bound;
  let active = st.active in
  let cur_arc = st.cur_arc in
  let p_start = st.p_start in
  let n_live = G.node_count g in
  let exception Infeasible in
  (* Unbounded relabeling is the signature of infeasibility, but potentials
     can legitimately rise by ~n·C·S when routing fresh supply. Guard
     adaptively: when a node's rise exceeds the current limit, run a real
     max-flow feasibility check (once); if feasible, raise the limit and
     keep going. *)
  let rise_limit = ref (((3 * n_live) + 8) * (G.max_arc_cost g + 1) * s) in
  let feasibility_known = ref false in
  let suspect_infeasible () =
    if !feasibility_known then ()
    else begin
      feasibility_known := true;
      if not (Max_flow.route (G.copy g)) then raise Infeasible
    end;
    rise_limit := !rise_limit * 8
  in
  let refine eps =
    incr iterations;
    Telemetry.Metrics.incr m m_phases;
    end_phase ();
    phase_open := true;
    phase_t0 := Telemetry.Clock.now_ns ();
    phase_p0 := !pushes;
    phase_r0 := !relabels;
    if stop () then raise Solver_intf.Stop;
    (* Make the pseudoflow 0-optimal at current prices. Both directions
       are checked inline — an inner [let fix a = ...] helper would be a
       fresh closure per arc, megabytes per pass on cluster graphs. *)
    G.iter_arcs g (fun a0 ->
        if G.rescap g a0 > 0 && rc a0 < 0 then G.push g a0 (G.rescap g a0);
        let a1 = G.rev a0 in
        if G.rescap g a1 > 0 && rc a1 < 0 then G.push g a1 (G.rescap g a1));
    (* ...then discharge active nodes, pushing on admissible (rc < 0)
       residual arcs and relabeling when the current node has none. *)
    Int_deque.clear active;
    st.queue_epoch <- st.queue_epoch + 1;
    let epoch = st.queue_epoch in
    let in_queue = st.in_queue in
    G.iter_nodes g (fun n ->
        p_start.(n) <- G.potential g n;
        cur_arc.(n) <- G.first_out g n;
        if G.excess g n > 0 then begin
          Int_deque.push_back active n;
          in_queue.(n) <- epoch
        end);
    let steps = ref 0 in
    (* Hoisted out of the relabel path: without flambda a local ref is a
       minor-heap allocation, and relabels dominate warm rounds. *)
    let min_rc = ref 0 and it = ref (-1) in
    while not (Int_deque.is_empty active) do
      incr steps;
      if !steps land 1023 = 0 && stop () then raise Solver_intf.Stop;
      let u = Int_deque.pop_front active in
      in_queue.(u) <- 0;
      (* Discharge u completely. *)
      let continue = ref (G.excess g u > 0) in
      while !continue do
        let a = cur_arc.(u) in
        if a < 0 then begin
          (* Relabel: raise p(u) until some out-arc becomes admissible. *)
          incr relabels;
          min_rc := max_int;
          it := G.first_out g u;
          while !it >= 0 do
            if G.rescap g !it > 0 then begin
              let r = rc !it in
              if r < !min_rc then min_rc := r
            end;
            it := G.next_out g !it
          done;
          if !min_rc = max_int then raise Infeasible;
          G.set_potential g u (G.potential g u + !min_rc + eps);
          if G.potential g u - p_start.(u) > !rise_limit then suspect_infeasible ();
          cur_arc.(u) <- G.first_out g u
        end
        else begin
          if G.rescap g a > 0 && rc a < 0 then begin
            let d = min (G.excess g u) (G.rescap g a) in
            let v = G.dst g a in
            G.push g a d;
            incr pushes;
            if G.excess g v > 0 && in_queue.(v) <> epoch then begin
              Int_deque.push_back active v;
              in_queue.(v) <- epoch
            end
          end;
          if G.excess g u > 0 then cur_arc.(u) <- G.next_out g a
        end;
        if G.excess g u <= 0 then continue := false
      done
    done
  in
  try
    let eps_floor = max 1 !debug_eps_floor in
    let eps = ref eps0 in
    refine !eps;
    while !eps > eps_floor do
      eps := max 1 (!eps / st.alpha);
      refine !eps
    done;
    finish Solver_intf.Optimal
  with
  | Solver_intf.Stop -> finish Solver_intf.Stopped
  | Infeasible -> finish Solver_intf.Infeasible
