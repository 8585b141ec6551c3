module G = Flowgraph.Graph
module FN = Flow_network

type assignment = {
  task : Cluster.Types.task_id;
  machine : Cluster.Types.machine_id option;
}

let fail fmt = Format.kasprintf failwith fmt

(* Stored decomposition paths are shallow: the deepest policy graph is
   task -> request-agg -> rack -> machine -> sink, four hops. The cap only
   bounds the preallocated per-task path storage (three ints per hop);
   exceeding it means the graph is not the layered DAG the policies build
   and extraction fails. *)
let max_hops = 8

(* Hop cap for the backtracking pseudoflow walk ([extract_partial]),
   which may revisit layers while probing. Matches the historical cap. *)
let walk_hops = 64

exception Desync of string

let m = Telemetry.Metrics.global ()

let m_full_scans =
  Telemetry.Metrics.counter m
    ~help:"delta extractions that read every arc pair: the graph's dirty log was unusable"
    "sched_extract_full_scans_total"

(* A reusable extraction workspace (DESIGN.md "Memory discipline"): flat
   int arrays indexed by forward-arc slot [a/2] or by task slot, plus an
   {!Int_table} mapping task id -> slot. Holds two independent pieces of
   state:

   - the {e delta decomposition}: one stored sink path per task of the
     last graph synced via [extract_delta]/[extract], with [used.(s)]
     counting stored-path crossings of arc slot [s] (equal to that arc's
     flow when synced) and [gen.(s)] remembering the arc-pair generation
     stamp, so the next sync can walk only arcs whose flow or identity
     changed. Each path hop is an {e entry} [slot * max_hops + i], and
     [on_arc.(s)] heads a doubly-linked list ([e_next]/[e_prev]) of the
     entries crossing arc slot [s], so a dirty arc finds its paths
     without a walk over every task;
   - scratch budgets for the backtracking pseudoflow walk
     ([extract_partial]), epoch-stamped so they reset in O(1) and never
     disturb the delta state. *)
type workspace = {
  (* delta decomposition, per forward-arc slot *)
  mutable used : int array;
  mutable gen : int array;
  mutable on_arc : int array; (* -1 = no stored path crosses the arc *)
  (* the arc slots found dirty by this sync, [2 * slot + 1] if the pair's
     identity changed, [2 * slot] if only its flow did *)
  mutable dirty : int array;
  mutable ndirty : int;
  (* tracked tasks: task id -> slot via [slots]; slot-indexed arrays *)
  slots : Int_table.t;
  mutable s_tid : int array; (* -1 = free slot *)
  mutable s_mach : int array; (* -1 = unscheduled *)
  mutable s_len : int array;
  mutable s_path : int array; (* entry -> forward arc *)
  mutable e_next : int array; (* entry -> next entry on its arc, -1 *)
  mutable e_prev : int array; (* entry -> previous entry, -1 = list head *)
  mutable s_top : int;
  mutable s_free : int array; (* free-slot stack *)
  mutable s_free_top : int;
  mutable n_unsched : int;
  mutable synced : bool;
  (* Where this workspace last read the network's task log
     ({!Flow_network.iter_tasks_added_since}); [log_uid = -1] forces the
     next sync to walk every task. *)
  mutable log_uid : int;
  mutable log_pos : int;
  (* The {!Flowgraph.Graph.log_epoch} this workspace last synced the
     graph's dirty log at, -1 if it did not: a sync that finds the same
     epoch reads only the logged arc pairs. *)
  mutable graph_log : int;
  (* pending (tid, prev-mach) pairs during a sync *)
  mutable pend : int array;
  mutable pend_top : int;
  (* scratch budgets for the pseudoflow walk, per forward-arc slot *)
  mutable budget : int array;
  mutable budget_mark : int array; (* epoch marks *)
  mutable budget_epoch : int;
}

(* [node_hint]/[arc_hint] pre-size the slot- and arc-indexed arrays from
   the topology (one forward-arc slot per arc pair, and one tracked task
   per two hinted nodes: the scheduler hints two nodes per slot and
   machine), so the first adopted round syncs steady-state instead of
   growth-doubling through the whole cluster. *)
let create_workspace ?(node_hint = 0) ?(arc_hint = 0) () =
  let slot_cap = max 64 (node_hint / 2) in
  let arc_cap = max 0 ((arc_hint + 1) / 2) in
  {
    used = Array.make arc_cap 0;
    gen = Array.make arc_cap 0;
    on_arc = Array.make arc_cap (-1);
    dirty = Array.make 256 0;
    ndirty = 0;
    slots = Int_table.create ();
    s_tid = Array.make slot_cap (-1);
    s_mach = Array.make slot_cap (-1);
    s_len = Array.make slot_cap 0;
    s_path = Array.make (slot_cap * max_hops) (-1);
    e_next = Array.make (slot_cap * max_hops) (-1);
    e_prev = Array.make (slot_cap * max_hops) (-1);
    s_top = 0;
    s_free = Array.make 64 0;
    s_free_top = 0;
    n_unsched = 0;
    synced = false;
    log_uid = -1;
    log_pos = 0;
    graph_log = -1;
    pend = Array.make 128 0;
    pend_top = 0;
    budget = Array.make arc_cap 0;
    budget_mark = Array.make arc_cap 0;
    budget_epoch = 0;
  }

let grow_copy a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_arc_capacity ws n =
  if Array.length ws.used < n then begin
    let cap = max n (2 * Array.length ws.used) in
    ws.used <- grow_copy ws.used cap 0;
    ws.gen <- grow_copy ws.gen cap 0;
    ws.on_arc <- grow_copy ws.on_arc cap (-1)
  end

let ensure_budget_capacity ws n =
  if Array.length ws.budget < n then begin
    let cap = max n (2 * Array.length ws.budget) in
    ws.budget <- grow_copy ws.budget cap 0;
    ws.budget_mark <- grow_copy ws.budget_mark cap 0
  end

let alloc_slot ws tid =
  let s =
    if ws.s_free_top > 0 then begin
      ws.s_free_top <- ws.s_free_top - 1;
      ws.s_free.(ws.s_free_top)
    end
    else begin
      if ws.s_top >= Array.length ws.s_tid then begin
        let cap = 2 * Array.length ws.s_tid in
        ws.s_tid <- grow_copy ws.s_tid cap (-1);
        ws.s_mach <- grow_copy ws.s_mach cap (-1);
        ws.s_len <- grow_copy ws.s_len cap 0;
        ws.s_path <- grow_copy ws.s_path (cap * max_hops) (-1);
        ws.e_next <- grow_copy ws.e_next (cap * max_hops) (-1);
        ws.e_prev <- grow_copy ws.e_prev (cap * max_hops) (-1)
      end;
      let s = ws.s_top in
      ws.s_top <- ws.s_top + 1;
      s
    end
  in
  ws.s_tid.(s) <- tid;
  ws.s_mach.(s) <- -1;
  ws.s_len.(s) <- 0;
  Int_table.set ws.slots tid s;
  s

let free_slot ws s =
  Int_table.remove ws.slots ws.s_tid.(s);
  ws.s_tid.(s) <- -1;
  if ws.s_free_top >= Array.length ws.s_free then
    ws.s_free <- grow_copy ws.s_free (2 * Array.length ws.s_free) 0;
  ws.s_free.(ws.s_free_top) <- s;
  ws.s_free_top <- ws.s_free_top + 1

let reset ws =
  Array.fill ws.used 0 (Array.length ws.used) 0;
  Array.fill ws.gen 0 (Array.length ws.gen) 0;
  Array.fill ws.on_arc 0 (Array.length ws.on_arc) (-1);
  Int_table.clear ws.slots;
  Array.fill ws.s_tid 0 (Array.length ws.s_tid) (-1);
  ws.s_top <- 0;
  ws.s_free_top <- 0;
  ws.n_unsched <- 0;
  ws.pend_top <- 0;
  ws.synced <- false;
  ws.log_uid <- -1;
  ws.graph_log <- -1

let push_pending ws tid prev =
  if ws.pend_top + 2 > Array.length ws.pend then
    ws.pend <- grow_copy ws.pend (2 * Array.length ws.pend) 0;
  ws.pend.(ws.pend_top) <- tid;
  ws.pend.(ws.pend_top + 1) <- prev;
  ws.pend_top <- ws.pend_top + 2

let push_dirty ws x =
  if ws.ndirty >= Array.length ws.dirty then
    ws.dirty <- grow_copy ws.dirty (2 * Array.length ws.dirty) 0;
  ws.dirty.(ws.ndirty) <- x;
  ws.ndirty <- ws.ndirty + 1

(* Drop task slot [s]'s stored path, returning its units of [used] and
   unlinking its entries from their arcs' lists. *)
let revoke_path ws s =
  for i = 0 to ws.s_len.(s) - 1 do
    let e = (s * max_hops) + i in
    let k = ws.s_path.(e) lsr 1 in
    ws.used.(k) <- ws.used.(k) - 1;
    let p = ws.e_prev.(e) and n = ws.e_next.(e) in
    if p >= 0 then ws.e_next.(p) <- n else ws.on_arc.(k) <- n;
    if n >= 0 then ws.e_prev.(n) <- p
  done;
  if ws.s_mach.(s) < 0 then ws.n_unsched <- ws.n_unsched - 1;
  free_slot ws s

(* Route task [tid]'s unit greedily along spare flow (flow - used > 0).
   On a feasible flow whose [used] never exceeds per-arc flow, spare
   obeys flow conservation at interior nodes, so the walk cannot dead-end
   and terminates on the layered policy DAG. *)
let route_task ws net g sink tid node =
  let s = alloc_slot ws tid in
  let v = ref node in
  let prev = ref node in
  let hops = ref 0 in
  while !v <> sink do
    if !hops >= max_hops then raise (Desync "path exceeds hop cap");
    let carrier = ref (-1) in
    let it = ref (G.first_out g !v) in
    while !carrier < 0 && !it >= 0 do
      let a = !it in
      if G.is_forward a && G.rescap g (G.rev a) - ws.used.(a lsr 1) > 0 then carrier := a;
      it := G.next_out g a
    done;
    if !carrier < 0 then
      raise (Desync (Printf.sprintf "no spare outgoing flow at node %d" !v));
    let a = !carrier in
    let e = (s * max_hops) + !hops in
    let k = a lsr 1 in
    ws.s_path.(e) <- a;
    ws.used.(k) <- ws.used.(k) + 1;
    let h = ws.on_arc.(k) in
    ws.e_prev.(e) <- -1;
    ws.e_next.(e) <- h;
    if h >= 0 then ws.e_prev.(h) <- e;
    ws.on_arc.(k) <- e;
    incr hops;
    prev := !v;
    v := G.dst g a
  done;
  ws.s_len.(s) <- !hops;
  match FN.kind_opt net !prev with
  | Some (FN.Machine_node m) -> ws.s_mach.(s) <- m
  | Some (FN.Unscheduled_agg _) ->
      ws.s_mach.(s) <- -1;
      ws.n_unsched <- ws.n_unsched + 1
  | _ ->
      raise
        (Desync (Printf.sprintf "node %d sends task flow directly to the sink" !prev))

(* Revoke stored path [s] and queue its task for re-routing; a task no
   longer in the network just drops out of the decomposition. *)
let revoke_and_requeue ws net s =
  let tid = ws.s_tid.(s) and prev = ws.s_mach.(s) in
  revoke_path ws s;
  if FN.task_node net tid <> None then push_pending ws tid prev

(* One sync pass: dirty-scan the arcs, revoke paths the new flow no
   longer supports, re-route revoked and new tasks, [emit] each task
   whose stored path was (re)built. [delta] reads only the arc pairs in
   the graph's dirty log when the log still runs from this workspace's
   last delta sync, and re-syncs the log at the end; otherwise (and
   always for a full [extract]) every pair is read. Raises {!Desync} if
   the stored state and the graph disagree structurally. *)
let sync_pass ws net ~delta ~emit =
  let g = FN.graph net in
  let sink = FN.sink net in
  let nslots = (G.arc_bound g + 1) / 2 in
  ensure_arc_capacity ws nslots;
  ws.ndirty <- 0;
  (* Pass 1: per-arc dirty scan — flow or generation changed since the
     last sync. Dead slots read as flow 0 / generation 0. *)
  let used = ws.used and gen = ws.gen in
  let mark k flw gn =
    if gn <> Array.unsafe_get gen k then begin
      Array.unsafe_set gen k gn;
      push_dirty ws ((2 * k) + 1)
    end
    else if flw <> Array.unsafe_get used k then push_dirty ws (2 * k)
  in
  let logged = delta && ws.graph_log = G.log_epoch g && G.log_complete g in
  if logged then
    G.iter_dirty_pairs g (fun k ->
        let a = 2 * k in
        if G.arc_is_live g a then mark k (G.rescap g (a + 1)) (G.arc_generation g a)
        else mark k 0 0)
  else begin
    if delta then Telemetry.Metrics.incr m m_full_scans;
    G.iter_pairs g mark
  end;
  let any_dirty = ws.ndirty > 0 in
  ws.pend_top <- 0;
  (* The task log is read whether or not the passes below run, so the
     next sync starts where this one ended. *)
  let log_complete = ref true in
  let untracked tid = if Int_table.find ws.slots tid < 0 then push_pending ws tid (-2) in
  if any_dirty || FN.task_count net <> Int_table.length ws.slots then begin
    (* Pass 2: revoke stored paths invalidated by the dirty arcs, read
       off each dirty arc's entry list. Every path across an arc whose
       identity changed must go, and those are revoked first, since they
       also return units on the arcs whose flow only fell. Then each
       arc carrying more stored paths than its new flow sheds paths
       until it fits, so exactly the overuse is revoked. An arc whose
       flow rose keeps its paths: re-routing fills the spare. *)
    for i = 0 to ws.ndirty - 1 do
      let x = ws.dirty.(i) in
      if x land 1 = 1 then begin
        let k = x lsr 1 in
        while ws.on_arc.(k) >= 0 do
          revoke_and_requeue ws net (ws.on_arc.(k) / max_hops)
        done
      end
    done;
    for i = 0 to ws.ndirty - 1 do
      let x = ws.dirty.(i) in
      if x land 1 = 0 then begin
        let k = x lsr 1 in
        let a = 2 * k in
        let flw = if G.arc_is_live g a then G.rescap g (a + 1) else 0 in
        while ws.used.(k) > flw do
          revoke_and_requeue ws net (ws.on_arc.(k) / max_hops)
        done
      end
    done;
    (* Pass 3: tasks the network has that we do not track yet. After a
       successful sync every live task is tracked, and pass 2 revoked
       every tracked task that left, so the untracked ones are exactly
       those added since: read them off the network's task log. A fresh
       or reset workspace, or one the log has moved past, walks every
       task instead. *)
    if
      not
        (FN.iter_tasks_added_since net ~uid:ws.log_uid ~pos:ws.log_pos untracked)
    then begin
      log_complete := false;
      FN.iter_task_nodes net (fun tid _node -> untracked tid)
    end;
    (* Pass 4: re-route. A task revoked in pass 2 is untracked by the
       time pass 3 scans, so it is pushed twice; the slot check routes
       (and emits) it exactly once. Emitted unconditionally — the
       caller's commit no-ops on unchanged assignments, and emitting
       re-routed tasks even when they land on the same machine keeps the
       delta sound if a task id is ever removed and re-added between
       syncs. *)
    let n = ws.pend_top in
    let i = ref 0 in
    while !i < n do
      let tid = ws.pend.(!i) in
      (match FN.task_node net tid with
      | None -> ()
      | Some node ->
          if Int_table.find ws.slots tid < 0 then begin
            route_task ws net g sink tid node;
            let m = ws.s_mach.(Int_table.find ws.slots tid) in
            emit tid (if m < 0 then None else Some m)
          end);
      i := !i + 2
    done
  end;
  ws.log_uid <- FN.uid net;
  ws.log_pos <- FN.task_log_end net;
  if delta then begin
    G.sync_log g;
    ws.graph_log <- G.log_epoch g
  end
  else ws.graph_log <- -1;
  (* Every live task must be tracked now. If the log missed one, a full
     walk finds it (Desync-grade: it should not happen). *)
  if !log_complete && Int_table.length ws.slots <> FN.task_count net then
    raise (Desync "task log missed an untracked task")

let sync_with_rebuild ws net ~delta ~emit =
  ws.synced <- false;
  (try sync_pass ws net ~delta ~emit
   with Desync _ ->
     (* Stored state diverged from the graph (should not happen when the
        caller only syncs adopted optimal flows): rebuild from scratch.
        A failure on a clean rebuild is a genuine structural violation. *)
     reset ws;
     (try sync_pass ws net ~delta ~emit
      with Desync msg -> fail "Placement.extract: %s" msg));
  ws.synced <- true

let extract_delta ws net =
  if not ws.synced then reset ws;
  let changes = ref [] in
  let emit tid m = changes := (tid, m) :: !changes in
  sync_with_rebuild ws net ~delta:true ~emit;
  !changes

let delta_assignments ws =
  let out = ref [] in
  for s = ws.s_top - 1 downto 0 do
    let tid = ws.s_tid.(s) in
    if tid >= 0 then begin
      let m = ws.s_mach.(s) in
      out := { task = tid; machine = (if m < 0 then None else Some m) } :: !out
    end
  done;
  List.sort (fun a b -> compare a.task b.task) !out

let delta_lookup ws tid =
  match Int_table.find ws.slots tid with
  | -1 -> None
  | s ->
      let m = ws.s_mach.(s) in
      Some (if m < 0 then None else Some m)

let delta_unscheduled ws = ws.n_unsched
let delta_synced ws = ws.synced

let extract ?workspace net =
  let g = FN.graph net in
  G.iter_nodes g (fun n ->
      if G.excess g n <> 0 then
        fail "Placement.extract: infeasible flow (node %d has excess %d)" n (G.excess g n));
  let ws = match workspace with Some w -> w | None -> create_workspace () in
  ensure_arc_capacity ws ((G.arc_bound g + 1) / 2);
  reset ws;
  sync_with_rebuild ws net ~delta:false ~emit:(fun _ _ -> ());
  delta_assignments ws

(* --- backtracking pseudoflow walk (early-terminated solver states) --- *)

(* Arm the epoch-stamped per-arc budgets: [remaining] defaults to the
   arc's current flow the first time a slot is touched this walk. *)
let arm_budgets ws g =
  ensure_budget_capacity ws ((G.arc_bound g + 1) / 2);
  ws.budget_epoch <- ws.budget_epoch + 1

let remaining ws g a =
  let k = a lsr 1 in
  if ws.budget_mark.(k) = ws.budget_epoch then ws.budget.(k) else G.flow g a

let consume ws g a =
  let k = a lsr 1 in
  ws.budget.(k) <- remaining ws g a - 1;
  ws.budget_mark.(k) <- ws.budget_epoch

let refund ws g a =
  let k = a lsr 1 in
  ws.budget.(k) <- remaining ws g a + 1;
  ws.budget_mark.(k) <- ws.budget_epoch

let extract_partial ?workspace net =
  let g = FN.graph net in
  let sink = FN.sink net in
  let ws = match workspace with Some w -> w | None -> create_workspace () in
  arm_budgets ws g;
  (* Walk one unit of flow from [n] toward a machine, consuming it from
     the per-arc budget so two tasks never claim the same unit. The walk
     backtracks: a branch that dead-ends (hop limit, exhausted budget,
     unscheduled aggregator) refunds every unit it consumed and the
     parent tries its next arc — an aborted probe must not leak flow
     that tasks sharing a path prefix could still claim. *)
  let rec walk n hops =
    if hops > walk_hops then None
    else if n = sink then None
    else
      match FN.kind net n with
      | FN.Machine_node m -> (
          (* Claim a unit of the machine's sink arc: a mid-solve
             pseudoflow may park excess at a machine node, and without
             this check more tasks could land here than the machine's
             slot capacity admits. O(1) via the cached handle. *)
          match FN.machine_sink_arc net m with
          | Some a when remaining ws g a > 0 ->
              consume ws g a;
              Some m
          | Some _ | None -> None)
      | FN.Unscheduled_agg _ -> None
      | FN.Task_node _ | FN.Rack_node _ | FN.Cluster_agg | FN.Request_agg _ | FN.Sink ->
          let result = ref None in
          let it = ref (G.first_out g n) in
          while !result = None && !it >= 0 do
            let a = !it in
            if G.is_forward a && remaining ws g a > 0 then begin
              consume ws g a;
              match walk (G.dst g a) (hops + 1) with
              | Some _ as r -> result := r
              | None -> refund ws g a
            end;
            it := G.next_out g a
          done;
          !result
  in
  let out = ref [] in
  FN.iter_task_nodes net (fun tid node ->
      out := { task = tid; machine = walk node 0 } :: !out);
  List.sort (fun a b -> compare a.task b.task) !out

let extract_map net =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun { task; machine } ->
      match machine with Some m -> Hashtbl.replace tbl task m | None -> ())
    (extract net);
  tbl
