module G = Flowgraph.Graph
module Deque = Int_deque

(* Telemetry ids, registered once at module init. *)
let m = Telemetry.Metrics.global ()

let m_solves =
  Telemetry.Metrics.counter m ~help:"relaxation solves started"
    "mcmf_relaxation_solves_total"

let m_passes =
  Telemetry.Metrics.counter m ~help:"dual-ascent phases run"
    "mcmf_relaxation_passes_total"

let m_pushes =
  Telemetry.Metrics.counter m ~help:"pushes across all ascent phases"
    "mcmf_relaxation_pushes_total"

let m_price_rises =
  Telemetry.Metrics.counter m ~help:"lazy price rises applied"
    "mcmf_relaxation_price_rises_total"

let m_ap_front =
  Telemetry.Metrics.counter m
    ~help:"candidate arcs fast-pathed to the deque front (deficit endpoint)"
    "mcmf_relaxation_ap_front_total"

let m_ap_back =
  Telemetry.Metrics.counter m
    ~help:"candidate arcs appended to the deque back"
    "mcmf_relaxation_ap_back_total"

(* Binary min-heap of (key, arc) pairs, no decrease-key (entries are
   advisory; staleness is checked at pop). Lives in the workspace; [clear]
   is O(1). *)
module Arc_heap = struct
  type t = { mutable keys : int array; mutable arcs : int array; mutable len : int }

  let create () = { keys = Array.make 64 0; arcs = Array.make 64 (-1); len = 0 }

  let clear h = h.len <- 0
  let is_empty h = h.len = 0

  let push h key arc =
    if h.len = Array.length h.keys then begin
      let keys' = Array.make (2 * h.len) 0 and arcs' = Array.make (2 * h.len) (-1) in
      Array.blit h.keys 0 keys' 0 h.len;
      Array.blit h.arcs 0 arcs' 0 h.len;
      h.keys <- keys';
      h.arcs <- arcs'
    end;
    let i = ref h.len in
    h.len <- h.len + 1;
    h.keys.(!i) <- key;
    h.arcs.(!i) <- arc;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      if h.keys.(p) > h.keys.(!i) then begin
        let tk = h.keys.(p) and ta = h.arcs.(p) in
        h.keys.(p) <- h.keys.(!i);
        h.arcs.(p) <- h.arcs.(!i);
        h.keys.(!i) <- tk;
        h.arcs.(!i) <- ta;
        i := p
      end
      else continue := false
    done

  let peek_key h = h.keys.(0)
  let peek_arc h = h.arcs.(0)

  let pop h =
    h.len <- h.len - 1;
    h.keys.(0) <- h.keys.(h.len);
    h.arcs.(0) <- h.arcs.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.len && h.keys.(l) < h.keys.(!m) then m := l;
      if r < h.len && h.keys.(r) < h.keys.(!m) then m := r;
      if !m <> !i then begin
        let tk = h.keys.(!m) and ta = h.arcs.(!m) in
        h.keys.(!m) <- h.keys.(!i);
        h.arcs.(!m) <- h.arcs.(!i);
        h.keys.(!i) <- tk;
        h.arcs.(!i) <- ta;
        i := !m
      end
      else continue := false
    done
end

(* Persistent per-solver scratch. All node-indexed arrays grow to the
   graph's node bound once and are then reused across solves; boolean sets
   are epoch-stamped so "clearing" them is a counter bump, never an
   O(bound) refill. Safe to reuse even after a solve aborted mid-phase
   (Stop / Infeasible): membership from a dead phase can never equal a
   fresh epoch. *)
type workspace = {
  mutable nbound : int;
  mutable in_s : int array; (* in_s.(n) = phase_epoch  <=>  n ∈ S *)
  mutable rise_at_join : int array;
  mutable pred : int array;
  mutable in_worklist : int array; (* = solve_epoch <=> queued *)
  mutable s_members : int array;
  mutable s_len : int;
  mutable phase_epoch : int;
  mutable solve_epoch : int;
  candidates : Deque.t;
  pos_heap : Arc_heap.t;
  worklist : Deque.t;
}

let create_workspace () =
  {
    nbound = 0;
    in_s = [||];
    rise_at_join = [||];
    pred = [||];
    in_worklist = [||];
    s_members = [||];
    s_len = 0;
    phase_epoch = 0;
    solve_epoch = 0;
    candidates = Deque.create ();
    pos_heap = Arc_heap.create ();
    worklist = Deque.create ();
  }

let ws_ensure ws bound =
  if bound > ws.nbound then begin
    let n = ref (max 64 ws.nbound) in
    while !n < bound do
      n := !n * 2
    done;
    let n = !n in
    (* Fresh zero-filled arrays: epochs start at 1, so stale zeros never
       read as current membership. *)
    ws.in_s <- Array.make n 0;
    ws.rise_at_join <- Array.make n 0;
    ws.pred <- Array.make n (-1);
    ws.in_worklist <- Array.make n 0;
    ws.s_members <- Array.make n 0;
    ws.nbound <- n
  end

(* One RELAX solve. The dual-ascent set S grows from a surplus node along
   balanced residual arcs; price rises are applied lazily (rise_total and
   per-member join marks) so a rise costs O(|S|)-free heap work instead of
   rescanning every member's adjacency — crucial on scheduling graphs
   whose aggregators have enormous degree. *)
let solve ?(stop = Solver_intf.never_stop) ?(incremental = false)
    ?(arc_prioritization = true) ?workspace g =
  let t0 = Telemetry.Clock.now_ns () in
  Telemetry.Metrics.incr m m_solves;
  let iterations = ref 0 in
  let pushes = ref 0 in
  let price_rises = ref 0 in
  let finish outcome =
    Telemetry.Metrics.add m m_passes !iterations;
    Telemetry.Metrics.add m m_pushes !pushes;
    Telemetry.Metrics.add m m_price_rises !price_rises;
    Solver_intf.stats ~iterations:!iterations ~pushes:!pushes ~relabels:!price_rises
      outcome
      (Telemetry.Clock.s_of_ns (Telemetry.Clock.now_ns () - t0))
  in
  if not incremental then G.reset_flow g;
  (* Establish reduced-cost optimality (possibly breaking feasibility). *)
  Ssp.establish_optimality g;
  let bound = max 1 (G.node_bound g) in
  let ws = match workspace with Some w -> w | None -> create_workspace () in
  ws_ensure ws bound;
  ws.solve_epoch <- ws.solve_epoch + 1;
  let solve_epoch = ws.solve_epoch in
  let in_s = ws.in_s in
  let rise_at_join = ws.rise_at_join in
  let pred = ws.pred in
  let in_worklist = ws.in_worklist in
  let candidates = ws.candidates in
  let pos_heap = ws.pos_heap in
  let worklist = ws.worklist in
  Deque.clear worklist;
  ws.s_len <- 0;
  let rise_total = ref 0 in
  let enqueue_surplus n =
    if G.excess g n > 0 && in_worklist.(n) <> solve_epoch then begin
      Deque.push_back worklist n;
      in_worklist.(n) <- solve_epoch
    end
  in
  G.iter_nodes g (fun n -> enqueue_surplus n);
  let exception Infeasible in
  let in_set n = in_s.(n) = ws.phase_epoch in
  let pending i = !rise_total - rise_at_join.(i) in
  (* Materialize the lazily accumulated price rises of this phase.
     Idempotent: committed members' join marks advance to the current
     rise level. *)
  let commit_rises () =
    for k = 0 to ws.s_len - 1 do
      let i = ws.s_members.(k) in
      let d = pending i in
      if d > 0 then begin
        G.set_potential g i (G.potential g i + d);
        rise_at_join.(i) <- !rise_total
      end
    done
  in
  let reset_phase () =
    ws.phase_epoch <- ws.phase_epoch + 1;
    ws.s_len <- 0;
    Deque.clear candidates;
    Arc_heap.clear pos_heap;
    rise_total := 0
  in
  let add_candidate a =
    if arc_prioritization && G.excess g (G.dst g a) < 0 then begin
      Telemetry.Metrics.incr m m_ap_front;
      Deque.push_front candidates a
    end
    else begin
      Telemetry.Metrics.incr m m_ap_back;
      Deque.push_back candidates a
    end
  in
  (* Phase accumulators and loop cursors, allocated once per solve: the
     helpers below mutate these instead of returning tuples — without
     flambda every tuple return and local ref is a minor-heap allocation,
     and these sit in the per-member hot path. *)
  let e_s = ref 0 and out_flux = ref 0 in
  let scan = ref (-1) in
  let pr_continue = ref false and pr_delta = ref 0 and pr_promoting = ref false in
  let running = ref false and phase_steps = ref 0 in
  (* Add node [j] to S, accumulating its contribution into [e_s] and
     [out_flux] and feeding the candidate deque / positive-arc heap. Only
     active (positive residual) arcs are scanned. out_flux tracks the
     rescap sum of deque entries; arcs that become internal are corrected
     lazily when their deque entry is popped (so no backward scan of j's
     full adjacency is ever needed). *)
  let add_to_s j =
    in_s.(j) <- ws.phase_epoch;
    rise_at_join.(j) <- !rise_total;
    ws.s_members.(ws.s_len) <- j;
    ws.s_len <- ws.s_len + 1;
    e_s := !e_s + G.excess g j;
    scan := G.first_active g j;
    while !scan >= 0 do
      let a = !scan in
      let k = G.dst g a in
      if not (in_set k) then begin
        (* pending(j) = 0 right now, so raw reduced cost is effective. *)
        let rc = G.reduced_cost g a in
        if rc = 0 then begin
          out_flux := !out_flux + G.rescap g a;
          add_candidate a
        end
        else if rc > 0 then Arc_heap.push pos_heap (rc + !rise_total) a
      end;
      scan := G.next_active g a
    done
  in
  (* Saturate the balanced crossing arcs (they go reduced-cost-negative
     once prices rise), pick the smallest positive crossing reduced cost
     from the heap, and promote newly balanced arcs to candidates.
     Updates [e_s] and [out_flux] in place. *)
  let price_rise () =
    incr price_rises;
    pr_continue := true;
    while !pr_continue do
      match Deque.pop_front candidates with
      | exception Not_found ->
          pr_continue := false;
          out_flux := 0
      | a ->
          let f = G.rescap g a in
          if (not (in_set (G.dst g a))) && f > 0 then begin
            G.push g a f;
            incr pushes;
            e_s := !e_s - f;
            enqueue_surplus (G.dst g a)
          end;
          (* Every pop removes the entry's contribution, stale or not. *)
          out_flux := !out_flux - f
    done;
    (* Find delta: smallest effective reduced cost among valid positive
       crossing arcs. *)
    pr_delta := -1;
    while !pr_delta < 0 do
      if Arc_heap.is_empty pos_heap then raise Infeasible;
      let key = Arc_heap.peek_key pos_heap and a = Arc_heap.peek_arc pos_heap in
      if in_set (G.dst g a) || G.rescap g a = 0 then Arc_heap.pop pos_heap
      else begin
        let eff = key - !rise_total in
        (* Entries are pushed with eff > 0 and eff only shrinks via
           rise_total; zero entries were promoted at their rise. *)
        pr_delta := max 1 eff
      end
    done;
    rise_total := !rise_total + !pr_delta;
    (* Promote arcs that just became balanced. *)
    pr_promoting := true;
    while !pr_promoting do
      if Arc_heap.is_empty pos_heap then pr_promoting := false
      else begin
        let key = Arc_heap.peek_key pos_heap and a = Arc_heap.peek_arc pos_heap in
        if in_set (G.dst g a) || G.rescap g a = 0 then Arc_heap.pop pos_heap
        else if key - !rise_total <= 0 then begin
          Arc_heap.pop pos_heap;
          out_flux := !out_flux + G.rescap g a;
          add_candidate a
        end
        else pr_promoting := false
      end
    done
  in
  (* Path helpers at solve level so augment allocates no closures. *)
  let rec bottleneck v acc =
    if pred.(v) < 0 then acc
    else bottleneck (G.src g pred.(v)) (min acc (G.rescap g pred.(v)))
  in
  let rec root v = if pred.(v) < 0 then v else root (G.src g pred.(v)) in
  let rec push_path v amount =
    if pred.(v) >= 0 then begin
      G.push g pred.(v) amount;
      incr pushes;
      push_path (G.src g pred.(v)) amount
    end
  in
  let augment t =
    let s = root t in
    (* Saturating pushes during price rises may have drained the phase
       root's own excess even though S as a whole kept surplus; the
       remaining members are re-enqueued by the phase epilogue. *)
    let amount =
      max 0 (min (G.excess g s) (min (- G.excess g t) (bottleneck t max_int)))
    in
    if amount > 0 then push_path t amount;
    enqueue_surplus s
  in
  let enqueue_members () =
    for k = 0 to ws.s_len - 1 do
      enqueue_surplus ws.s_members.(k)
    done
  in
  try
    while not (Deque.is_empty worklist) do
      let s = Deque.pop_front worklist in
      in_worklist.(s) <- 0;
      if G.excess g s > 0 then begin
        incr iterations;
        (* Poll on the first phase too: an already-expired deadline must
           stop the solve before any work, not 256 phases in. *)
        if !iterations land 255 = 1 && stop () then raise Solver_intf.Stop;
        reset_phase ();
        pred.(s) <- -1;
        e_s := 0;
        out_flux := 0;
        add_to_s s;
        (try
           running := true;
           phase_steps := 0;
           while !running do
             (* A single ascent phase can grow S across the whole graph;
                poll the deadline inside it too, not only per phase. The
                handler below commits pending rises, so stopping here
                still leaves materialized potentials. *)
             incr phase_steps;
             if !phase_steps land 1023 = 0 && stop () then raise Solver_intf.Stop;
             if !e_s <= 0 then
               (* The surplus moved out of S (saturating pushes). *)
               running := false
             else if !e_s > !out_flux then price_rise ()
             else begin
               (* Extend S along a balanced crossing arc. Entries going
                  stale (endpoint joined S) surrender their flux here. *)
               match Deque.pop_front candidates with
               | exception Not_found ->
                   (* Deque empty: true crossing flux is zero. *)
                   out_flux := 0
               | a ->
                   if in_set (G.dst g a) then out_flux := !out_flux - G.rescap g a
                   else begin
                     let j = G.dst g a in
                     pred.(j) <- a;
                     if G.excess g j < 0 then begin
                       commit_rises ();
                       augment j;
                       running := false
                     end
                     else begin
                       (* The popped arc is now internal: remove its
                          contribution; add_to_s accumulates the rest. *)
                       out_flux := !out_flux - G.rescap g a;
                       add_to_s j
                     end
                   end
             end
           done;
           (* Materialize any rises left pending by a non-augmenting
              phase end (idempotent after an augment), and hand surplus
              that moved between members back to the worklist. *)
           commit_rises ();
           enqueue_members ()
         with e ->
           commit_rises ();
           enqueue_members ();
           raise e)
      end
    done;
    (* No surplus left; any remaining deficit means supplies did not sum
       to zero, i.e. the instance was infeasible from the start. *)
    let infeasible = ref false in
    G.iter_nodes g (fun n -> if G.excess g n <> 0 then infeasible := true);
    if !infeasible then finish Solver_intf.Infeasible else finish Solver_intf.Optimal
  with
  | Solver_intf.Stop -> finish Solver_intf.Stopped
  | Infeasible -> finish Solver_intf.Infeasible
