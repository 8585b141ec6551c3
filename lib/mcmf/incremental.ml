module G = Flowgraph.Graph

(* O(changes) flow repair (paper §5: incremental min-cost max-flow).

   Input: a graph carrying the previous round's adopted optimal flow and
   its (scaled) potentials, mutated by the round's change set — node
   adds/removals, capacity cuts, cost changes, supply changes. The graph
   kernel keeps the pseudoflow consistent under those mutations
   (removals credit flow back as excesses, capacity cuts push overflow
   back), so what remains is a pseudoflow that is {e almost} optimal:
   reduced-cost violations and excesses appear only where the round
   touched the graph.

   Repair restores optimality locally with primal-dual phases:
   1. re-establish dual feasibility: repair every residual arc whose
      scaled reduced cost went negative by a free local potential shift,
      or else saturate it (creating excesses only at endpoints of
      changed arcs);
   2. collect the excess nodes, once: how many there are is no reason
      to give up — only the work cap below is.
      Steps 1 and 2 read the graph's dirty log when it bounds the
      negative arcs ({!Flowgraph.Graph.log_bounds_duals}): the caller
      synced it on the last certified optimum, so only logged pairs can
      be negative and only logged nodes and endpoints of logged pairs
      can hold excess. Otherwise they scan the whole graph;
   3. per phase, raise each remaining excess node's potential until its
      cheapest residual arc is tight, then run one multi-source Dijkstra
      over scaled reduced costs (all nonnegative after step 1) from all
      of them. It stops as soon as the settled deficits can absorb the
      whole excess: nodes tied at that label stay unsettled, so the
      search does not sweep the zero-cost plateau behind the cluster
      aggregator. A label equal to the one being settled (a
      zero-reduced-cost arc: most of them, on that plateau) goes on a
      FIFO instead of the heap.
      The potential update touches only the settled nodes: p(v) += D −
      dist(v), with D the last settled label, keeps every reduced cost
      nonnegative (every unsettled label is still ≥ D) and makes each
      shortest path zero-cost, unlike the full solvers' O(n) relabel;
   4. per phase, a blocking flow from all excesses to all deficits over
      the settled region's zero-reduced-cost arcs (DFS with current-arc
      pointers), so one search routes the whole batch instead of one
      unit per search;
   5. certify: zero excess and no negative residual arc at the
      caller's scale. When the log bounded the duals at entry and still
      does, only three places can break either: logged nodes and
      endpoints of logged pairs (excess), logged pairs (reduced cost and
      residual capacity), and the arcs at a node whose potential the
      repair moved, read off the journal. The log was synced on a
      certified optimum with zero excess, and nothing else changed
      since. Otherwise the certificate is the whole-graph pass (zero
      excess everywhere and {!Price_refine.certified}), counted in
      [mcmf_incremental_full_scans_total]. Every [audit_period]-th
      log-certified repair runs the whole-graph pass as well, the
      backstop should the log ever miss a change. Any failure returns
      the reason and the caller falls back to the untouched full race.

   Work cap: once the searches have scanned [scan_factor] times as many
   arcs as the graph has live arcs, the repair gives up [Oversized]: past
   that point a full race is likely the cheaper way out. The factor is
   measured, not derived — one graph's worth sent hard but repairable
   rounds of a 200-machine, 80%-utilization replay to full races that
   took far longer than the repairs they replaced (DESIGN.md).

   The kernel mutates [g] (flows and potentials) in place, under an undo
   journal: every push and the first write of each node's potential are
   recorded in the workspace. A give-up replays the journal backwards
   before returning, so the caller can repair its canonical graph
   directly and still fall back to a full solve of the untouched input;
   a successful repair keeps its journal until the next repair, so the
   caller can still take it back ({!rollback}). *)

type reason = Oversized | No_path | Not_certified | Stopped_mid_repair

let reason_name = function
  | Oversized -> "oversized"
  | No_path -> "no_path"
  | Not_certified -> "not_certified"
  | Stopped_mid_repair -> "stopped"

type outcome = Repaired of Solver_intf.stats | Gave_up of reason

(* Per-node search state within a phase, as an offset from the phase's
   base [4 · epoch]: a smaller value means untouched this phase. Stamping
   instead of clearing keeps a phase O(nodes it reaches). *)
let labelled = 0 (* [dist] is valid: in the heap or settled *)
let settled = 1
let on_path = 2 (* settled, on the blocking-flow DFS path *)
let dead = 3 (* settled, no admissible way on to a deficit this phase *)

(* Persistent scratch: Dijkstra labels and [state], the [touched] stack of
   the phase's settled nodes (the only ones whose potentials move), the
   [sources] stack of the round's excess nodes (collected once — phases
   only shrink excesses, never mint new ones), a current-arc pointer per
   settled node, and [stack]: the settled deficits whose expansion waits
   until the search moves past their label during Dijkstra, then the DFS
   path during the blocking flow. [fifo] holds the nodes labelled at the
   label being settled, from [qhead] to [qtail]. *)
type workspace = {
  mutable nbound : int;
  mutable dist : int array;
  mutable state : int array;
  mutable epoch : int;
  mutable cur : int array;
  mutable touched : int array;
  mutable sources : int array;
  mutable stack : int array;
  mutable fifo : int array;
  mutable qhead : int;
  mutable qtail : int;
  heap : Heap.t;
  (* Undo journal. [rid] numbers the repairs; [pot_mark.(v) = rid] once
     [v]'s entry potential is saved in [j_node]/[j_pot]. Pushes go to
     [j_arc]/[j_amt] in order. [j_graph]/[j_changes] name the graph the
     journal describes and its change counters when it was written, so a
     rollback onto anything else fails loudly. *)
  mutable rid : int;
  mutable pot_mark : int array;
  mutable j_node : int array;
  mutable j_pot : int array;
  mutable j_npot : int;
  mutable j_arc : int array;
  mutable j_amt : int array;
  mutable j_npush : int;
  mutable j_graph : G.t option;
  mutable j_changes : G.change_summary;
  (* Log-certified repairs made with this workspace: paces the audit. *)
  mutable log_certs : int;
}

let create_workspace () =
  {
    nbound = 0;
    dist = [||];
    state = [||];
    epoch = 0;
    cur = [||];
    touched = [||];
    sources = [||];
    stack = [||];
    fifo = [||];
    qhead = 0;
    qtail = 0;
    heap = Heap.create ~capacity:16;
    rid = 0;
    pot_mark = [||];
    j_node = [||];
    j_pot = [||];
    j_npot = 0;
    j_arc = [||];
    j_amt = [||];
    j_npush = 0;
    j_graph = None;
    j_changes = G.no_changes;
    log_certs = 0;
  }

let ws_ensure ws bound =
  if bound > ws.nbound then begin
    let n = ref (max 64 ws.nbound) in
    while !n < bound do
      n := !n * 2
    done;
    let n = !n in
    ws.dist <- Array.make n 0;
    ws.state <- Array.make n 0;
    ws.cur <- Array.make n (-1);
    ws.touched <- Array.make n 0;
    ws.sources <- Array.make n 0;
    ws.stack <- Array.make n 0;
    ws.fifo <- Array.make n 0;
    ws.pot_mark <- Array.make n 0;
    ws.nbound <- n
  end

let fit_workspace ws g = ws_ensure ws (max 1 (G.node_bound g))

let m = Telemetry.Metrics.global ()

let m_repairs =
  Telemetry.Metrics.counter m
    ~help:"incremental repairs that restored a certified optimal flow"
    "mcmf_incremental_repairs_total"

let m_giveup_oversized =
  Telemetry.Metrics.counter m
    ~help:"incremental repairs abandoned: searches outgrew the work cap (32x live arcs)"
    "mcmf_incremental_giveup_oversized_total"

let m_giveup_no_path =
  Telemetry.Metrics.counter m
    ~help:"incremental repairs abandoned: an excess could not reach a deficit"
    "mcmf_incremental_giveup_no_path_total"

let m_giveup_not_certified =
  Telemetry.Metrics.counter m
    ~help:"incremental repairs abandoned: price-refine certification failed"
    "mcmf_incremental_giveup_not_certified_total"

let m_giveup_stopped =
  Telemetry.Metrics.counter m
    ~help:"incremental repairs abandoned: stop callback fired mid-repair"
    "mcmf_incremental_giveup_stopped_total"

let m_full_scans =
  Telemetry.Metrics.counter m
    ~help:"incremental repairs that scanned or certified the whole graph: its dirty log was unusable"
    "mcmf_incremental_full_scans_total"

let m_audit_failures =
  Telemetry.Metrics.counter m
    ~help:"log-certified repairs that the whole-graph audit refuted (given up not_certified)"
    "mcmf_incremental_audit_failures_total"

let m_repair_ns =
  Telemetry.Metrics.histogram m
    ~help:"wall time of successful incremental repairs (ns)"
    "mcmf_incremental_repair_ns"

let m_repair_phases =
  Telemetry.Metrics.histogram m
    ~help:"primal-dual phases (Dijkstra + blocking flow) per successful incremental repair"
    "mcmf_incremental_repair_phases"

let m_repair_scanned =
  Telemetry.Metrics.histogram m
    ~help:"residual arcs scanned by the searches of a successful incremental repair"
    "mcmf_incremental_repair_scanned"

let m_repair_touched =
  Telemetry.Metrics.histogram m
    ~help:"nodes settled (dirty-region size) per successful incremental repair"
    "mcmf_incremental_repair_touched"

let giveup_counter = function
  | Oversized -> m_giveup_oversized
  | No_path -> m_giveup_no_path
  | Not_certified -> m_giveup_not_certified
  | Stopped_mid_repair -> m_giveup_stopped

exception Give_up of reason

(* The kernel's only two graph writes, journaled. A node's entry
   potential is saved once per repair; pushes are logged in order. The
   logs grow by doubling to the largest repair seen and are kept, so they
   cost what repairs touch, not what the graph holds. *)
let grow a = Array.append a (Array.make (max 256 (Array.length a)) 0)

let set_pot ws g v p =
  if Array.unsafe_get ws.pot_mark v <> ws.rid then begin
    Array.unsafe_set ws.pot_mark v ws.rid;
    let n = ws.j_npot in
    if n >= Array.length ws.j_node then begin
      ws.j_node <- grow ws.j_node;
      ws.j_pot <- grow ws.j_pot
    end;
    ws.j_node.(n) <- v;
    ws.j_pot.(n) <- G.potential g v;
    ws.j_npot <- n + 1
  end;
  G.set_potential_journaled g v p

let push ws g a d =
  if d > 0 then begin
    let n = ws.j_npush in
    if n >= Array.length ws.j_arc then begin
      ws.j_arc <- grow ws.j_arc;
      ws.j_amt <- grow ws.j_amt
    end;
    ws.j_arc.(n) <- a;
    ws.j_amt.(n) <- d;
    ws.j_npush <- n + 1;
    G.push g a d
  end

let discard ws =
  ws.j_npot <- 0;
  ws.j_npush <- 0;
  ws.j_graph <- None

(* Replay the journal backwards: each push is cancelled by pushing the
   same amount back along its reverse arc (which restores residual
   capacities, excesses and active-arc membership), then every touched
   node gets its entry potential back. *)
let undo ws g =
  for i = ws.j_npush - 1 downto 0 do
    G.push g (G.rev ws.j_arc.(i)) ws.j_amt.(i)
  done;
  for i = 0 to ws.j_npot - 1 do
    G.set_potential_journaled g ws.j_node.(i) ws.j_pot.(i)
  done;
  discard ws

let rollback ws g =
  match ws.j_graph with
  | Some jg when jg == g ->
      if G.peek_changes g <> ws.j_changes then
        invalid_arg "Incremental.rollback: the graph changed after the repair";
      undo ws g
  | Some _ | None -> invalid_arg "Incremental.rollback: no live repair journal for this graph"

(* The saturation pass's dual alternative. A residual arc [b] with
   negative reduced cost −[amount] can also be repaired by lowering the
   potential of its tail by [amount], when every residual arc into the
   tail has at least that much reduced cost to give (or symmetrically by
   raising its head's potential). That repairs the dual without minting an
   excess/deficit pair — which matters when the pair could only be
   cancelled the long way round: a finish frees a slot on a full machine
   whose sink arc is strictly negative, and saturating it leaves a deficit
   that the search can reach only after settling everything cheaper.
   Only short adjacency lists are probed, so hubs always saturate. *)
let probe = 64

let try_shift ws g ~scale v ~amount ~lower =
  let pv = G.potential g v in
  let ok = ref true in
  let n = ref 0 in
  let a = ref (G.first_out g v) in
  while !ok && !a >= 0 do
    incr n;
    if !n > probe then ok := false
    else begin
      (* [r] is the residual arc at [v] whose reduced cost the shift
         lowers: into [v] when lowering, out of [v] when raising. *)
      let r = if lower then G.rev !a else !a in
      if G.rescap g r > 0 then begin
        let rc =
          (G.cost g r * scale) - G.potential g (G.src g r) + G.potential g (G.dst g r)
        in
        if rc < amount then ok := false
      end
    end;
    a := G.next_out g !a
  done;
  if !ok then set_pot ws g v (if lower then pv - amount else pv + amount);
  !ok

(* Re-establish dual feasibility at the cost-scaling scale: potentials
   carried over from the previous round live in scaled units, so
   feasibility is judged there too. Each residual arc with negative scaled
   reduced cost is repaired by a local potential shift when one is free,
   and saturated otherwise (creating an excess at its head and a deficit
   at its tail). [dirty] restricts the scan to the graph's dirty log. *)
let saturate ws g ~scale ~dirty =
  let fix b rc =
    if
      (not (try_shift ws g ~scale (G.src g b) ~amount:(- rc) ~lower:true))
      && not (try_shift ws g ~scale (G.dst g b) ~amount:(- rc) ~lower:false)
    then push ws g b (G.rescap g b)
  in
  if dirty then G.iter_dirty_negative g ~scale fix else G.iter_negative g ~scale fix

(* Raise source [s]'s potential until its cheapest residual out-arc has
   zero reduced cost. Arcs into [s] only gain reduced cost, so duals stay
   feasible. Every source then starts its search at its own nearest
   neighbour: a new task node arrives at potential 0, far from the
   potentials around it, and without the raise the sources' different
   offsets would put their shortest paths on different phases. *)
let raise_price ws g ~scale s =
  let ps = G.potential g s in
  let least = ref max_int in
  let it = ref (G.first_active g s) in
  while !it >= 0 do
    let a = !it in
    let rc = (G.cost g a * scale) - ps + G.potential g (G.dst g a) in
    if rc < !least then least := rc;
    it := G.next_active g a
  done;
  if !least > 0 && !least < max_int then set_pot ws g s (ps + !least)

(* Relax [u]'s active out-arcs from label [du], the label being settled:
   a neighbour reached at [du] itself goes on the FIFO, any other on the
   heap. *)
let expand ws g ~scale ~scanned u du =
  let dist = ws.dist and state = ws.state in
  let base = 4 * ws.epoch in
  let pu = G.potential g u in
  let it = ref (G.first_active g u) in
  while !it >= 0 do
    let a = !it in
    let v = G.dst g a in
    if state.(v) <= base + labelled then begin
      let dv = du + (G.cost g a * scale) - pu + G.potential g v in
      if state.(v) < base || dv < dist.(v) then begin
        dist.(v) <- dv;
        state.(v) <- base + labelled;
        if dv = du then begin
          ws.fifo.(ws.qtail) <- v;
          ws.qtail <- ws.qtail + 1
        end
        else Heap.insert ws.heap v dv
      end
    end;
    incr scanned;
    it := G.next_active g a
  done

(* One phase's Dijkstra from every remaining excess (all seeded on the
   FIFO at label 0 by the caller). It stops as soon as the settled
   deficits can absorb [want] units, or when nothing is left to settle.
   The nodes tied at that last label D stay unsettled: they are at
   least D, which is all the potential update needs, and on the
   scheduling graph they are the aggregator's zero-cost plateau. The
   next node is the FIFO's head while the FIFO holds any (all at the
   current label, the smallest outstanding), else the heap's minimum; a
   node moved onto the FIFO keeps its older, larger heap entry, which
   is skipped as stale once popped. A deficit is expanded only if the
   search moves past its label: one at label D needs no expansion for
   the potential update to stay valid, and not expanding it keeps a
   deficit hub (the sink) from pulling its whole zero-reduced-cost
   neighbourhood into the search. Every settled node goes on [touched]
   with its current arc reset; returns the number settled. [scanned]
   accumulates across phases and trips the work cap. *)
let dijkstra ws g ~scale ~want ~scanned ~cap =
  let dist = ws.dist and state = ws.state and touched = ws.touched in
  let deferred = ws.stack and heap = ws.heap and fifo = ws.fifo in
  let base = 4 * ws.epoch in
  let tlen = ref 0 in
  let ndef = ref 0 in
  let got = ref 0 in
  let cur = ref 0 in
  let go = ref true in
  while !go do
    let from_fifo = ws.qhead < ws.qtail in
    if not from_fifo then
      while (not (Heap.is_empty heap)) && state.(Heap.min_elt heap) > base + labelled do
        ignore (Heap.pop_min heap)
      done;
    if (not from_fifo) && Heap.is_empty heap then go := false
    else begin
      let du = if from_fifo then !cur else Heap.min_prio heap in
      if !ndef > 0 && du > dist.(deferred.(0)) then begin
        for i = 0 to !ndef - 1 do
          let v = deferred.(i) in
          expand ws g ~scale ~scanned v dist.(v)
        done;
        ndef := 0
      end
      else begin
        let u =
          if from_fifo then begin
            let u = fifo.(ws.qhead) in
            ws.qhead <- ws.qhead + 1;
            u
          end
          else Heap.pop_min heap
        in
        cur := du;
        state.(u) <- base + settled;
        ws.cur.(u) <- G.first_active g u;
        touched.(!tlen) <- u;
        incr tlen;
        let e = G.excess g u in
        if e < 0 then begin
          got := !got - e;
          if !got >= want then go := false;
          deferred.(!ndef) <- u;
          incr ndef
        end
        else expand ws g ~scale ~scanned u du
      end;
      if !scanned > cap then raise (Give_up Oversized)
    end
  done;
  if !got = 0 then raise (Give_up No_path);
  !tlen

(* [v] may extend the DFS path: settled this phase, neither on the path
   nor dead, and reached over a zero-reduced-cost arc. *)
let admissible ws g ~scale ~pu a =
  let v = G.dst g a in
  ws.state.(v) = (4 * ws.epoch) + settled
  && (G.cost g a * scale) - pu + G.potential g v = 0

(* Route [s]'s excess to settled deficits along admissible arcs. A node
   whose current arc runs off its active list is dead for the phase. After
   each augmentation the search restarts from [s]; a saturated path arc
   advances its tail's current arc to the successor read before the push
   (the push unlinks it from the active list; pushes only ever insert at
   a list's head, behind every current arc). Returns the pushes made. *)
let drain_source ws g ~scale s =
  let state = ws.state and cur = ws.cur and path = ws.stack in
  let base = 4 * ws.epoch in
  let pushes = ref 0 in
  let depth = ref 0 in
  let u = ref s in
  state.(s) <- base + on_path;
  while G.excess g s > 0 && state.(s) = base + on_path do
    let x = !u in
    if G.excess g x < 0 then begin
      let amount = ref (min (G.excess g s) (- G.excess g x)) in
      for j = 0 to !depth - 1 do
        amount := min !amount (G.rescap g path.(j))
      done;
      for j = 0 to !depth - 1 do
        let a = path.(j) in
        let next = G.next_active g a in
        push ws g a !amount;
        if G.rescap g a = 0 then cur.(G.src g a) <- next;
        state.(G.dst g a) <- base + settled
      done;
      pushes := !pushes + !depth;
      depth := 0;
      u := s
    end
    else begin
      let pu = G.potential g x in
      let a = ref cur.(x) in
      while !a >= 0 && not (admissible ws g ~scale ~pu !a) do
        a := G.next_active g !a
      done;
      cur.(x) <- !a;
      if !a >= 0 then begin
        path.(!depth) <- !a;
        incr depth;
        let v = G.dst g !a in
        state.(v) <- base + on_path;
        u := v
      end
      else begin
        state.(x) <- base + dead;
        if !depth > 0 then begin
          decr depth;
          let back = path.(!depth) in
          let p = G.src g back in
          cur.(p) <- G.next_active g back;
          u := p
        end
      end
    end
  done;
  if state.(s) = base + on_path then state.(s) <- base + settled;
  !pushes

let scan_factor = 32

(* Step 5 over the dirty log. Sound when the log bounded the duals at
   the repair's entry and still does (see the header); it reads a subset
   of what {!whole_certified} reads, by the same tests, so it can only
   err by passing. *)
let log_certified ws ~scale g =
  match
    G.iter_dirty_nodes g (fun v -> if G.excess g v <> 0 then raise Exit);
    G.iter_dirty_negative g ~scale (fun _ _ -> raise Exit);
    for i = 0 to ws.j_npot - 1 do
      let v = ws.j_node.(i) in
      if ws.j_pot.(i) <> G.potential g v && G.negative_around g ~scale v then raise Exit
    done
  with
  | () -> true
  | exception Exit -> false

let whole_certified ~scale g =
  match G.iter_nodes g (fun v -> if G.excess g v <> 0 then raise Exit) with
  | () -> Price_refine.certified ~scale g
  | exception Exit -> false

let log_src = Logs.Src.create "mcmf.incremental" ~doc:"Incremental flow repair"

module Log = (val Logs.src_log log_src)

(* A fixed pace, not a setting: a log that misses changes shows within
   64 repaired rounds (under a second of steady churn), and the
   whole-graph pass stays out of the other 63. *)
let audit_period = 64

let certify ws ~scale ~dirty g =
  if not (dirty && G.log_bounds_duals g) then begin
    (* Entry without the log was counted already. *)
    if dirty then Telemetry.Metrics.incr m m_full_scans;
    whole_certified ~scale g
  end
  else if not (log_certified ws ~scale g) then false
  else begin
    ws.log_certs <- ws.log_certs + 1;
    ws.log_certs mod audit_period <> 0
    || whole_certified ~scale g
    || begin
         Log.err (fun f ->
             f "log-driven certificate passed a repair the whole-graph pass refutes");
         Telemetry.Metrics.incr m m_audit_failures;
         false
       end
  end

let repair ?(stop = Solver_intf.never_stop) ?max_scan ~scale ?workspace g =
  let t0 = Telemetry.Clock.now_ns () in
  let ws = match workspace with Some w -> w | None -> create_workspace () in
  let bound = max 1 (G.node_bound g) in
  ws_ensure ws bound;
  let phases = ref 0 in
  let pushes = ref 0 in
  let relabels = ref 0 in
  let scanned = ref 0 in
  let cap = match max_scan with Some c -> c | None -> scan_factor * G.arc_count g in
  discard ws;
  ws.rid <- ws.rid + 1;
  let dirty = G.log_bounds_duals g in
  if not dirty then Telemetry.Metrics.incr m m_full_scans;
  try
    saturate ws g ~scale ~dirty;
    (* One excess sweep: phases only move flow from an excess to a
       deficit, so no node turns into a source later — the list is
       complete for the whole repair. The log-driven sweep meets a node
       more than once; it takes its own search epoch to stamp the ones
       it has seen. *)
    let sources = ws.sources in
    let nsrc = ref 0 in
    let deficit_exists = ref false in
    let visit v =
      let e = G.excess g v in
      if e > 0 then begin
        sources.(!nsrc) <- v;
        incr nsrc
      end
      else if e < 0 then deficit_exists := true
    in
    if dirty then begin
      ws.epoch <- ws.epoch + 1;
      let seen = 4 * ws.epoch in
      G.iter_dirty_nodes g (fun v ->
          if ws.state.(v) < seen then begin
            ws.state.(v) <- seen;
            visit v
          end)
    end
    else G.iter_nodes g visit;
    if !nsrc > 0 && not !deficit_exists then raise (Give_up No_path);
    let heap = ws.heap in
    while !nsrc > 0 do
      if stop () then raise (Give_up Stopped_mid_repair);
      ws.epoch <- ws.epoch + 1;
      let base = 4 * ws.epoch in
      Heap.clear heap;
      ws.qhead <- 0;
      ws.qtail <- 0;
      (* Drop drained sources and seed the rest at label 0. *)
      let live = ref 0 in
      let want = ref 0 in
      for i = 0 to !nsrc - 1 do
        let s = sources.(i) in
        let e = G.excess g s in
        if e > 0 then begin
          sources.(!live) <- s;
          incr live;
          want := !want + e;
          raise_price ws g ~scale s;
          ws.dist.(s) <- 0;
          ws.state.(s) <- base + labelled;
          ws.fifo.(ws.qtail) <- s;
          ws.qtail <- ws.qtail + 1
        end
      done;
      nsrc := !live;
      if !live > 0 then begin
        incr phases;
        let tlen = dijkstra ws g ~scale ~want:!want ~scanned ~cap in
        (* Settled-only potential update: p(v) += D − dist(v), D the last
           (largest) settled label. Settled→settled arcs keep rc ≥ 0 by
           Dijkstra optimality and shortest-path arcs drop to rc = 0;
           settled→unsettled arcs keep rc ≥ 0 because every unsettled
           label is ≥ D; arcs out of unsettled nodes only gain reduced
           cost. *)
        let d = ws.dist.(ws.touched.(tlen - 1)) in
        for i = 0 to tlen - 1 do
          let v = ws.touched.(i) in
          set_pot ws g v (G.potential g v + d - ws.dist.(v))
        done;
        relabels := !relabels + tlen;
        (* Blocking flow over the zero-reduced-cost arcs of the settled
           region. Dijkstra settled at least one deficit on a zero-cost
           path from a settled source, so every phase moves flow. *)
        for i = 0 to !nsrc - 1 do
          let s = sources.(i) in
          if ws.state.(s) = base + settled then
            pushes := !pushes + drain_source ws g ~scale s
        done
      end
    done;
    (* Certify before claiming optimality: every excess must be gone
       (deficits cancel exactly when the sources drain — verified
       directly) and the potentials must prove it. *)
    if not (certify ws ~scale ~dirty g) then raise (Give_up Not_certified);
    ws.j_graph <- Some g;
    ws.j_changes <- G.peek_changes g;
    let dt_ns = Telemetry.Clock.now_ns () - t0 in
    Telemetry.Metrics.incr m m_repairs;
    Telemetry.Metrics.observe m m_repair_ns dt_ns;
    Telemetry.Metrics.observe m m_repair_phases !phases;
    Telemetry.Metrics.observe m m_repair_touched !relabels;
    Telemetry.Metrics.observe m m_repair_scanned !scanned;
    Repaired
      (Solver_intf.stats ~iterations:!phases ~pushes:!pushes
         ~relabels:!relabels Solver_intf.Optimal
         (Telemetry.Clock.s_of_ns dt_ns))
  with Give_up r ->
    undo ws g;
    Telemetry.Metrics.incr m (giveup_counter r);
    Gave_up r
