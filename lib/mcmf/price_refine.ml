module G = Flowgraph.Graph

(* Persistent SPFA scratch. [dist] and [relax_count] are zeroed for every
   live node at the start of each run (O(live), not O(bound)); [in_queue]
   is epoch-stamped so stale entries from earlier runs never read as
   queued. *)
type workspace = {
  mutable nbound : int;
  mutable dist : int array;
  mutable in_queue : int array; (* = epoch <=> queued *)
  mutable relax_count : int array;
  mutable epoch : int;
  queue : Int_deque.t;
}

let create_workspace () =
  {
    nbound = 0;
    dist = [||];
    in_queue = [||];
    relax_count = [||];
    epoch = 0;
    queue = Int_deque.create ();
  }

let ws_ensure ws bound =
  if bound > ws.nbound then begin
    let n = ref (max 64 ws.nbound) in
    while !n < bound do
      n := !n * 2
    done;
    let n = !n in
    ws.dist <- Array.make n 0;
    ws.in_queue <- Array.make n 0;
    ws.relax_count <- Array.make n 0;
    ws.nbound <- n
  end

(* Read-only dual-feasibility check at an arbitrary scale: every residual
   arc must have nonnegative scaled reduced cost
   [cost·scale − p(src) + p(dst)]. With [scale = 1] and unscaled
   potentials this is plain reduced-cost optimality; with cost scaling's
   scale it certifies potentials already living in scaled units (e.g.
   after an incremental repair). *)
let certified ?(scale = 1) g =
  match G.iter_negative g ~scale (fun _ _ -> raise Exit) with
  | () -> true
  | exception Exit -> false

(* Fast path: if the stored potentials already satisfy reduced-cost
   optimality in unscaled units (true whenever relaxation produced the
   solution — it maintains that invariant), valid scaled potentials are
   just [scale · p]: rc_scaled = scale · rc_unscaled >= 0. *)
let rescale_if_certified ~scale g =
  let ok = certified ~scale:1 g in
  if ok then
    G.iter_nodes g (fun v -> G.set_potential g v (G.potential g v * scale));
  ok

let run_spfa ~scale ws g =
  let bound = max 1 (G.node_bound g) in
  ws_ensure ws bound;
  ws.epoch <- ws.epoch + 1;
  let epoch = ws.epoch in
  let dist = ws.dist in
  let in_queue = ws.in_queue in
  let relax_count = ws.relax_count in
  let queue = ws.queue in
  Int_deque.clear queue;
  let n = G.node_count g in
  G.iter_nodes g (fun v ->
      dist.(v) <- 0;
      relax_count.(v) <- 0;
      in_queue.(v) <- epoch;
      Int_deque.push_back queue v);
  let ok = ref true in
  (try
     while not (Int_deque.is_empty queue) do
       let u = Int_deque.pop_front queue in
       in_queue.(u) <- 0;
       let it = ref (G.first_active g u) in
       while !it >= 0 do
         let a = !it in
         let v = G.dst g a in
         let d = dist.(u) + (G.cost g a * scale) in
         if d < dist.(v) then begin
           dist.(v) <- d;
           relax_count.(v) <- relax_count.(v) + 1;
           if relax_count.(v) > n + 1 then begin
             (* Negative residual cycle: the flow is not optimal. *)
             ok := false;
             raise Exit
           end;
           if in_queue.(v) <> epoch then begin
             Int_deque.push_back queue v;
             in_queue.(v) <- epoch
           end
         end;
         it := G.next_active g a
       done
     done
   with Exit -> ());
  if !ok then G.iter_nodes g (fun v -> G.set_potential g v (- dist.(v)));
  !ok

let m = Telemetry.Metrics.global ()

let m_certified =
  Telemetry.Metrics.counter m
    ~help:"price-refine runs resolved by the certified rescale fast path"
    "mcmf_price_refine_certified_total"

let m_spfa_ok =
  Telemetry.Metrics.counter m
    ~help:"price-refine SPFA runs that produced valid potentials"
    "mcmf_price_refine_spfa_ok_total"

let m_spfa_fail =
  Telemetry.Metrics.counter m
    ~help:"price-refine SPFA runs aborted on a negative residual cycle"
    "mcmf_price_refine_spfa_fail_total"

let run ?(scale = 1) ?workspace g =
  if rescale_if_certified ~scale g then begin
    Telemetry.Metrics.incr m m_certified;
    true
  end
  else begin
    let ws = match workspace with Some w -> w | None -> create_workspace () in
    let ok = run_spfa ~scale ws g in
    Telemetry.Metrics.incr m (if ok then m_spfa_ok else m_spfa_fail);
    ok
  end
