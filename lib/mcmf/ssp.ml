module G = Flowgraph.Graph

(* Saturate every residual arc with negative reduced cost, establishing
   reduced-cost optimality at the price of feasibility (excesses appear at
   the endpoints). Shared with Relaxation. *)
let establish_optimality g =
  G.iter_negative g ~scale:1 (fun a _ -> G.push g a (G.rescap g a))

(* Persistent Dijkstra scratch. [dist]/[parent] entries are valid only
   when [seen] carries the current round's epoch; [settled] is its own
   epoch stamp. One epoch bump replaces the three O(bound) Array.fills a
   fresh round used to pay. *)
type workspace = {
  mutable nbound : int;
  mutable dist : int array;
  mutable parent : int array;
  mutable seen : int array; (* = epoch <=> dist/parent valid this round *)
  mutable settled : int array; (* = epoch <=> settled this round *)
  mutable epoch : int;
  heap : Heap.t;
}

let create_workspace () =
  {
    nbound = 0;
    dist = [||];
    parent = [||];
    seen = [||];
    settled = [||];
    epoch = 0;
    heap = Heap.create ~capacity:16;
  }

let ws_ensure ws bound =
  if bound > ws.nbound then begin
    let n = ref (max 64 ws.nbound) in
    while !n < bound do
      n := !n * 2
    done;
    let n = !n in
    ws.dist <- Array.make n 0;
    ws.parent <- Array.make n (-1);
    ws.seen <- Array.make n 0;
    ws.settled <- Array.make n 0;
    ws.nbound <- n
  end

let solve ?(stop = Solver_intf.never_stop) ?workspace g =
  let t0 = Telemetry.Clock.now_ns () in
  let iterations = ref 0 in
  let pushes = ref 0 in
  let finish outcome =
    Solver_intf.stats ~iterations:!iterations ~pushes:!pushes outcome
      (Telemetry.Clock.s_of_ns (Telemetry.Clock.now_ns () - t0))
  in
  let bound = max 1 (G.node_bound g) in
  let ws = match workspace with Some w -> w | None -> create_workspace () in
  ws_ensure ws bound;
  let dist = ws.dist in
  let parent = ws.parent in
  let seen = ws.seen in
  let settled = ws.settled in
  let heap = ws.heap in
  establish_optimality g;
  try
    let rec round () =
      if stop () then raise Solver_intf.Stop;
      (* Multi-source Dijkstra from every excess node over reduced costs,
         seeded directly into the heap — no intermediate source list, and
         the per-round clears are one epoch bump plus the heap's
         O(previous size) reset. *)
      ws.epoch <- ws.epoch + 1;
      let epoch = ws.epoch in
      Heap.clear heap;
      let nsources = ref 0 in
      let deficit_exists = ref false in
      G.iter_nodes g (fun n ->
          let e = G.excess g n in
          if e > 0 then begin
            incr nsources;
            dist.(n) <- 0;
            parent.(n) <- -1;
            seen.(n) <- epoch;
            Heap.insert heap n 0
          end;
          if e < 0 then deficit_exists := true);
      if !nsources = 0 then finish Solver_intf.Optimal
      else if not !deficit_exists then finish Solver_intf.Infeasible
      else begin
        incr iterations;
        let target = ref (-1) in
        while !target < 0 && not (Heap.is_empty heap) do
          let du = Heap.min_prio heap in
          let u = Heap.pop_min heap in
          if settled.(u) <> epoch then begin
            settled.(u) <- epoch;
            if G.excess g u < 0 then target := u
            else begin
              let it = ref (G.first_active g u) in
              while !it >= 0 do
                let a = !it in
                let v = G.dst g a in
                if settled.(v) <> epoch then begin
                  let rc = G.reduced_cost g a in
                  let dv = du + rc in
                  if seen.(v) <> epoch || dv < dist.(v) then begin
                    dist.(v) <- dv;
                    parent.(v) <- a;
                    seen.(v) <- epoch;
                    Heap.insert heap v dv
                  end
                end;
                it := G.next_active g a
              done
            end
          end
        done;
        if !target < 0 then finish Solver_intf.Infeasible
        else begin
          let t = !target in
          let dt = dist.(t) in
          (* Potential update keeps all reduced costs non-negative. *)
          G.iter_nodes g (fun v ->
              let dv = if seen.(v) <> epoch then dt else min dist.(v) dt in
              G.set_potential g v (G.potential g v - dv));
          (* Augment from the path's root down to t. *)
          let rec root v = if parent.(v) < 0 then v else root (G.src g parent.(v)) in
          let s = root t in
          let rec bottleneck v acc =
            if parent.(v) < 0 then acc
            else bottleneck (G.src g parent.(v)) (min acc (G.rescap g parent.(v)))
          in
          let amount = min (G.excess g s) (min (- G.excess g t) (bottleneck t max_int)) in
          let rec push v =
            if parent.(v) >= 0 then begin
              G.push g parent.(v) amount;
              incr pushes;
              push (G.src g parent.(v))
            end
          in
          push t;
          round ()
        end
      end
    in
    round ()
  with Solver_intf.Stop -> finish Solver_intf.Stopped
