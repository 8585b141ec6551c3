type node = int
type arc = int

(* Struct-of-arrays layout. Residual arcs come in pairs: forward at even
   index [a], reverse at [a lxor 1]. Adjacency is a doubly-linked list of
   residual arc ids threaded through [next_out]/[prev_out], headed at
   [first_out.(n)], so arc removal is O(1). *)
type t = {
  (* per node *)
  supply : int Vec.t;
  excess : int Vec.t;
  potential : int Vec.t;
  first_out : int Vec.t; (* head of out-list, -1 if empty *)
  node_live : bool Vec.t;
  free_nodes : int Vec.t;
  mutable live_nodes : int;
  (* per residual arc *)
  head : int Vec.t; (* destination of the residual arc *)
  arc_cost : int Vec.t;
  rescap : int Vec.t;
  next_out : int Vec.t;
  prev_out : int Vec.t; (* -1 means "I am the list head" *)
  (* Active adjacency: per-node list of residual arcs with rescap > 0,
     maintained on every residual-capacity transition. *)
  first_active : int Vec.t;
  next_active : int Vec.t;
  prev_active : int Vec.t;
  active_flag : bool Vec.t;
  arc_live : bool Vec.t;
  (* Process-unique stamp assigned at [add_arc] (stored at the even slot
     of the pair). Survives [copy]/[copy_into], changes whenever a freed
     slot is recycled for a new arc — the delta placement extractor uses
     it to tell "same arc, changed flow" from "different arc reusing the
     id". *)
  arc_gen : int Vec.t;
  free_pairs : int Vec.t; (* even base index of each free pair *)
  mutable live_arcs : int; (* forward arcs only *)
  (* change tracking *)
  mutable ch_structural : int;
  mutable ch_cost : int;
  mutable ch_capacity : int;
  mutable ch_supply : int;
  mutable ch_max_cost : int;
  (* Dirty log: each arc pair (by pair index [a/2]) and node mutated since
     the last [sync_log], once, with a byte mark per pair/node for the
     dedup. [log_on] says the log is complete since that sync;
     [log_duals] that no unjournaled potential write happened since
     either. A log longer than [log_cap] is dropped (off) instead of
     grown: past that a full pass is as cheap as reading it. *)
  log_pairs : int Vec.t;
  log_nodes : int Vec.t;
  mutable pair_mark : Bytes.t;
  mutable node_mark : Bytes.t;
  mutable log_on : bool;
  mutable log_duals : bool;
  mutable log_epoch : int;
}

type change_summary = {
  structural : int;
  cost_changes : int;
  capacity_changes : int;
  supply_changes : int;
  max_changed_cost : int;
}

let no_changes =
  {
    structural = 0;
    cost_changes = 0;
    capacity_changes = 0;
    supply_changes = 0;
    max_changed_cost = 0;
  }

(* Process-wide stamp source for [sync_log]: a stamp names one graph's
   log since one sync, so a reader can tell its own sync point from
   anyone else's without holding the graph. *)
let log_counter = Atomic.make 1

let create () =
  (* Starting capacities; every [Vec] grows geometrically from here.
     Residual storage holds two entries per arc pair. *)
  let n = 16 and r = 128 in
  {
    supply = Vec.create ~capacity:n ~dummy:0 ();
    excess = Vec.create ~capacity:n ~dummy:0 ();
    potential = Vec.create ~capacity:n ~dummy:0 ();
    first_out = Vec.create ~capacity:n ~dummy:(-1) ();
    node_live = Vec.create ~capacity:n ~dummy:false ();
    free_nodes = Vec.create ~dummy:(-1) ();
    live_nodes = 0;
    head = Vec.create ~capacity:r ~dummy:(-1) ();
    arc_cost = Vec.create ~capacity:r ~dummy:0 ();
    rescap = Vec.create ~capacity:r ~dummy:0 ();
    next_out = Vec.create ~capacity:r ~dummy:(-1) ();
    prev_out = Vec.create ~capacity:r ~dummy:(-1) ();
    first_active = Vec.create ~capacity:n ~dummy:(-1) ();
    next_active = Vec.create ~capacity:r ~dummy:(-1) ();
    prev_active = Vec.create ~capacity:r ~dummy:(-1) ();
    active_flag = Vec.create ~capacity:r ~dummy:false ();
    arc_live = Vec.create ~capacity:r ~dummy:false ();
    arc_gen = Vec.create ~capacity:r ~dummy:0 ();
    free_pairs = Vec.create ~dummy:(-1) ();
    live_arcs = 0;
    ch_structural = 0;
    ch_cost = 0;
    ch_capacity = 0;
    ch_supply = 0;
    ch_max_cost = 0;
    (* A new graph's log is complete from creation: every node and arc it
       will hold is logged as it is added. *)
    log_pairs = Vec.create ~dummy:0 ();
    log_nodes = Vec.create ~dummy:0 ();
    pair_mark = Bytes.empty;
    node_mark = Bytes.empty;
    log_on = true;
    log_duals = true;
    log_epoch = Atomic.fetch_and_add log_counter 1;
  }

let node_bound g = Vec.length g.supply
let node_count g = g.live_nodes
let node_is_live g n = n >= 0 && n < node_bound g && Vec.get g.node_live n
let arc_bound g = Vec.length g.head
let arc_count g = g.live_arcs
let arc_is_live g a = a >= 0 && a < arc_bound g && Vec.get g.arc_live a

let check_node g n ctx = if not (node_is_live g n) then invalid_arg ("Graph: dead node in " ^ ctx)
let check_arc g a ctx = if not (arc_is_live g a) then invalid_arg ("Graph: dead arc in " ^ ctx)

(* {2 Dirty log} *)

let log_cap bound = max 1024 (bound / 4)

let drop_log g =
  for i = 0 to Vec.length g.log_pairs - 1 do
    Bytes.unsafe_set g.pair_mark (Vec.unsafe_get g.log_pairs i) '\000'
  done;
  for i = 0 to Vec.length g.log_nodes - 1 do
    Bytes.unsafe_set g.node_mark (Vec.unsafe_get g.log_nodes i) '\000'
  done;
  Vec.clear g.log_pairs;
  Vec.clear g.log_nodes;
  g.log_on <- false;
  g.log_duals <- false

let grow_marks b i =
  let b' = Bytes.make (max (i + 1) (max 1024 (2 * Bytes.length b))) '\000' in
  Bytes.blit b 0 b' 0 (Bytes.length b);
  b'

let log_pair g k =
  if k >= Bytes.length g.pair_mark then g.pair_mark <- grow_marks g.pair_mark k;
  if Bytes.unsafe_get g.pair_mark k = '\000' then begin
    Bytes.unsafe_set g.pair_mark k '\001';
    ignore (Vec.push g.log_pairs k);
    if Vec.length g.log_pairs > log_cap (Vec.length g.head / 2) then drop_log g
  end

let log_node g n =
  if n >= Bytes.length g.node_mark then g.node_mark <- grow_marks g.node_mark n;
  if Bytes.unsafe_get g.node_mark n = '\000' then begin
    Bytes.unsafe_set g.node_mark n '\001';
    ignore (Vec.push g.log_nodes n);
    if Vec.length g.log_nodes > log_cap (Vec.length g.supply) then drop_log g
  end

(* The mutators' entry points: a dropped log records nothing, so the
   full solvers' pushes on their scratch copies cost one test. *)
let[@inline] note_pair g a = if g.log_on then log_pair g (a lsr 1)
let[@inline] note_node g n = if g.log_on then log_node g n

let sync_log g =
  drop_log g;
  g.log_on <- true;
  g.log_duals <- true;
  g.log_epoch <- Atomic.fetch_and_add log_counter 1

let log_complete g = g.log_on
let log_bounds_duals g = g.log_on && g.log_duals
let log_epoch g = g.log_epoch

let iter_dirty_pairs g f =
  let i = ref 0 in
  while !i < Vec.length g.log_pairs do
    f (Vec.unsafe_get g.log_pairs !i);
    incr i
  done

let iter_dirty_nodes g f =
  for i = 0 to Vec.length g.log_nodes - 1 do
    f (Vec.unsafe_get g.log_nodes i)
  done;
  for i = 0 to Vec.length g.log_pairs - 1 do
    let a = 2 * Vec.unsafe_get g.log_pairs i in
    f (Vec.unsafe_get g.head a);
    f (Vec.unsafe_get g.head (a + 1))
  done

let note_cost_change g c =
  g.ch_cost <- g.ch_cost + 1;
  if abs c > g.ch_max_cost then g.ch_max_cost <- abs c

let add_node g ~supply =
  g.ch_structural <- g.ch_structural + 1;
  g.live_nodes <- g.live_nodes + 1;
  let n =
    if Vec.is_empty g.free_nodes then begin
      let n = Vec.push g.supply supply in
      ignore (Vec.push g.excess supply);
      ignore (Vec.push g.potential 0);
      ignore (Vec.push g.first_out (-1));
      ignore (Vec.push g.first_active (-1));
      ignore (Vec.push g.node_live true);
      n
    end
    else begin
      let n = Vec.pop g.free_nodes in
      Vec.set g.supply n supply;
      Vec.set g.excess n supply;
      Vec.set g.potential n 0;
      Vec.set g.first_out n (-1);
      Vec.set g.first_active n (-1);
      Vec.set g.node_live n true;
      n
    end
  in
  note_node g n;
  n

(* Unchecked Vec accessors for the kernels below. Every index fed to them
   is proven live by construction: it came off one of the graph's own
   intrusive lists, or was bounds-checked once on entry (see push). The
   checked API stays in force everywhere else — see DESIGN.md. *)
let uget = Vec.unsafe_get
let uset = Vec.unsafe_set

let rev a = a lxor 1
let is_forward a = a land 1 = 0
let dst g a = uget g.head a
let src g a = uget g.head (rev a)
let cost g a = uget g.arc_cost a
let rescap g a = uget g.rescap a

let flow g a =
  if not (is_forward a) then invalid_arg "Graph.flow: reverse arc";
  Vec.get g.rescap (rev a)

let capacity g a =
  if not (is_forward a) then invalid_arg "Graph.capacity: reverse arc";
  Vec.get g.rescap a + Vec.get g.rescap (rev a)

(* Generation stamp of the (live or dead) pair occupying slot [a]; 0 if
   the slot was never used. Deliberately unchecked on liveness so dirty
   scans can read dead slots. *)
let arc_generation g a =
  let a = a land lnot 1 in
  if a < 0 || a >= arc_bound g then invalid_arg "Graph.arc_generation: out of bounds";
  Vec.get g.arc_gen a

let supply g n = Vec.get g.supply n

let set_supply g n b =
  check_node g n "set_supply";
  let old = Vec.get g.supply n in
  if b <> old then begin
    Vec.set g.supply n b;
    Vec.set g.excess n (Vec.get g.excess n + b - old);
    g.ch_supply <- g.ch_supply + 1;
    note_node g n
  end

let excess g n = uget g.excess n
let potential g n = uget g.potential n
let set_potential g n p =
  uset g.potential n p;
  g.log_duals <- false

let set_potential_journaled g n p = uset g.potential n p

let reduced_cost g a =
  uget g.arc_cost a - uget g.potential (src g a) + uget g.potential (dst g a)

(* Link residual arc [a] (with head already set) into [from]'s out-list. *)
let link_out g ~from a =
  let h = Vec.get g.first_out from in
  Vec.set g.next_out a h;
  Vec.set g.prev_out a (-1);
  if h >= 0 then Vec.set g.prev_out h a;
  Vec.set g.first_out from a

let unlink_out g ~from a =
  let p = Vec.get g.prev_out a and n = Vec.get g.next_out a in
  if p >= 0 then Vec.set g.next_out p n else Vec.set g.first_out from n;
  if n >= 0 then Vec.set g.prev_out n p;
  Vec.set g.next_out a (-1);
  Vec.set g.prev_out a (-1)

(* Insert residual arc [a] (tail [from]) into the active list. *)
let activate g ~from a =
  if not (uget g.active_flag a) then begin
    uset g.active_flag a true;
    let h = uget g.first_active from in
    uset g.next_active a h;
    uset g.prev_active a (-1);
    if h >= 0 then uset g.prev_active h a;
    uset g.first_active from a
  end

let deactivate g ~from a =
  if uget g.active_flag a then begin
    uset g.active_flag a false;
    let p = uget g.prev_active a and n = uget g.next_active a in
    if p >= 0 then uset g.next_active p n else uset g.first_active from n;
    if n >= 0 then uset g.prev_active n p;
    uset g.next_active a (-1);
    uset g.prev_active a (-1)
  end

(* Reconcile arc [a]'s active-list membership with its residual capacity. *)
let sync_active g a =
  let from = uget g.head (rev a) in
  if uget g.rescap a > 0 then activate g ~from a else deactivate g ~from a

(* Process-wide arc-generation counter: every [add_arc] in any graph gets
   a distinct stamp, so a stamp equality across graph copies identifies
   "the same arc" even after a slot was freed and recycled. Atomic only
   for safety — arcs are added from the coordinating thread, never from
   solver domains. *)
let gen_counter = Atomic.make 1

let add_arc g ~src:s ~dst:d ~cost:c ~cap =
  if cap < 0 then invalid_arg "Graph.add_arc: negative capacity";
  check_node g s "add_arc";
  check_node g d "add_arc";
  g.ch_structural <- g.ch_structural + 1;
  if abs c > g.ch_max_cost then g.ch_max_cost <- abs c;
  g.live_arcs <- g.live_arcs + 1;
  let gen = Atomic.fetch_and_add gen_counter 1 in
  let a =
    if Vec.is_empty g.free_pairs then begin
      let a = Vec.push g.head d in
      ignore (Vec.push g.head s);
      ignore (Vec.push g.arc_cost c);
      ignore (Vec.push g.arc_cost (-c));
      ignore (Vec.push g.rescap cap);
      ignore (Vec.push g.rescap 0);
      ignore (Vec.push g.next_out (-1));
      ignore (Vec.push g.next_out (-1));
      ignore (Vec.push g.prev_out (-1));
      ignore (Vec.push g.prev_out (-1));
      ignore (Vec.push g.next_active (-1));
      ignore (Vec.push g.next_active (-1));
      ignore (Vec.push g.prev_active (-1));
      ignore (Vec.push g.prev_active (-1));
      ignore (Vec.push g.active_flag false);
      ignore (Vec.push g.active_flag false);
      ignore (Vec.push g.arc_live true);
      ignore (Vec.push g.arc_live true);
      ignore (Vec.push g.arc_gen gen);
      ignore (Vec.push g.arc_gen gen);
      a
    end
    else begin
      let a = Vec.pop g.free_pairs in
      Vec.set g.head a d;
      Vec.set g.head (a + 1) s;
      Vec.set g.arc_cost a c;
      Vec.set g.arc_cost (a + 1) (-c);
      Vec.set g.rescap a cap;
      Vec.set g.rescap (a + 1) 0;
      Vec.set g.arc_live a true;
      Vec.set g.arc_live (a + 1) true;
      Vec.set g.arc_gen a gen;
      Vec.set g.arc_gen (a + 1) gen;
      a
    end
  in
  link_out g ~from:s a;
  link_out g ~from:d (a + 1);
  sync_active g a;
  sync_active g (a + 1);
  note_pair g a;
  a

let remove_arc g a0 =
  check_arc g a0 "remove_arc";
  let a = a0 land lnot 1 in
  (* Credit flow back to the endpoints. Removing an arc carrying f units
     means src regains f of outflow (excess rises) and dst loses f of
     inflow (excess falls). *)
  let f = Vec.get g.rescap (a + 1) in
  let s = Vec.get g.head (a + 1) and d = Vec.get g.head a in
  if f > 0 then begin
    Vec.set g.excess s (Vec.get g.excess s + f);
    Vec.set g.excess d (Vec.get g.excess d - f)
  end;
  deactivate g ~from:s a;
  deactivate g ~from:d (a + 1);
  unlink_out g ~from:s a;
  unlink_out g ~from:d (a + 1);
  Vec.set g.arc_live a false;
  Vec.set g.arc_live (a + 1) false;
  g.live_arcs <- g.live_arcs - 1;
  g.ch_structural <- g.ch_structural + 1;
  (* The endpoints are logged as nodes too: a recycled slot's pair entry
     names its new endpoints, not these. *)
  note_pair g a;
  note_node g s;
  note_node g d;
  ignore (Vec.push g.free_pairs a)

let remove_node g n =
  check_node g n "remove_node";
  (* Each incident pair appears exactly once in n's out-list (the forward
     member for arcs leaving n, the reverse member for arcs entering). *)
  let rec drop () =
    let a = Vec.get g.first_out n in
    if a >= 0 then begin
      remove_arc g a;
      drop ()
    end
  in
  drop ();
  Vec.set g.node_live n false;
  Vec.set g.first_active n (-1);
  Vec.set g.supply n 0;
  Vec.set g.excess n 0;
  Vec.set g.potential n 0;
  g.live_nodes <- g.live_nodes - 1;
  g.ch_structural <- g.ch_structural + 1;
  ignore (Vec.push g.free_nodes n)

let set_cost g a c =
  check_arc g a "set_cost";
  if not (is_forward a) then invalid_arg "Graph.set_cost: reverse arc";
  if Vec.get g.arc_cost a <> c then begin
    Vec.set g.arc_cost a c;
    Vec.set g.arc_cost (rev a) (-c);
    note_cost_change g c;
    note_pair g a
  end

let set_capacity g a u =
  check_arc g a "set_capacity";
  if not (is_forward a) then invalid_arg "Graph.set_capacity: reverse arc";
  if u < 0 then invalid_arg "Graph.set_capacity: negative capacity";
  let f = Vec.get g.rescap (rev a) in
  g.ch_capacity <- g.ch_capacity + 1;
  if u >= f then Vec.set g.rescap a (u - f)
  else begin
    (* Push the overflow back: the arc now carries exactly u. *)
    let over = f - u in
    let s = src g a and d = dst g a in
    Vec.set g.rescap (rev a) u;
    Vec.set g.rescap a 0;
    Vec.set g.excess s (Vec.get g.excess s + over);
    Vec.set g.excess d (Vec.get g.excess d - over)
  end;
  sync_active g a;
  sync_active g (rev a);
  note_pair g a

let push g a d =
  if d < 0 then invalid_arg "Graph.push: negative amount";
  (* This checked read also validates [a]; everything below may go
     unchecked (rev a lives in the same pair, heads are live nodes). *)
  if d > Vec.get g.rescap a then invalid_arg "Graph.push: exceeds residual capacity";
  if d > 0 then begin
    let s = src g a and t = dst g a in
    uset g.rescap a (uget g.rescap a - d);
    uset g.rescap (rev a) (uget g.rescap (rev a) + d);
    uset g.excess s (uget g.excess s - d);
    uset g.excess t (uget g.excess t + d);
    if uget g.rescap a = 0 then deactivate g ~from:s a;
    activate g ~from:t (rev a);
    note_pair g a
  end

let iter_out g n f =
  let rec go a =
    if a >= 0 then begin
      let nxt = Vec.get g.next_out a in
      f a;
      go nxt
    end
  in
  go (Vec.get g.first_out n)

let first_out g n = uget g.first_out n
let next_out g a = uget g.next_out a
let first_active g n = uget g.first_active n
let next_active g a = uget g.next_active a

let iter_nodes g f =
  for n = 0 to node_bound g - 1 do
    if Vec.get g.node_live n then f n
  done

let iter_arcs g f =
  let bound = arc_bound g in
  let a = ref 0 in
  while !a < bound do
    if Vec.get g.arc_live !a then f !a;
    a := !a + 2
  done

(* The dual-feasibility scan, on the incremental repair's O(arcs) path:
   the per-arc arrays are hoisted once so the loop makes no accessor
   calls. [f] may push flow and move potentials — neither grows the
   arrays — and every value is re-read per arc, so it sees its own
   updates. *)
let iter_negative g ~scale f =
  let live = Vec.unsafe_data g.arc_live and head = Vec.unsafe_data g.head in
  let cost = Vec.unsafe_data g.arc_cost and rescap = Vec.unsafe_data g.rescap in
  let pot = Vec.unsafe_data g.potential in
  let bound = arc_bound g in
  let a = ref 0 in
  while !a < bound do
    let a0 = !a in
    if Array.unsafe_get live a0 then begin
      let rc =
        (Array.unsafe_get cost a0 * scale)
        - Array.unsafe_get pot (Array.unsafe_get head (a0 + 1))
        + Array.unsafe_get pot (Array.unsafe_get head a0)
      in
      if rc < 0 then begin
        if Array.unsafe_get rescap a0 > 0 then f a0 rc
      end
      else if rc > 0 && Array.unsafe_get rescap (a0 + 1) > 0 then f (a0 + 1) (- rc)
    end;
    a := a0 + 2
  done

(* [iter_negative] over the logged pairs only. *)
let iter_dirty_negative g ~scale f =
  let i = ref 0 in
  while !i < Vec.length g.log_pairs do
    let a0 = 2 * Vec.unsafe_get g.log_pairs !i in
    if uget g.arc_live a0 then begin
      let rc =
        (uget g.arc_cost a0 * scale)
        - uget g.potential (uget g.head (a0 + 1))
        + uget g.potential (uget g.head a0)
      in
      if rc < 0 then begin
        if uget g.rescap a0 > 0 then f a0 rc
      end
      else if rc > 0 && uget g.rescap (a0 + 1) > 0 then f (a0 + 1) (- rc)
    end;
    incr i
  done

(* The log-driven certificate's read around a node whose potential
   moved: [n]'s out-list holds one member of each incident pair, so both
   residual directions of every arc at [n] are read off it (the reverse
   of [a] has reduced cost [- rc a]). Hoisted like [iter_negative]. *)
let negative_around g ~scale n =
  let head = Vec.unsafe_data g.head and next = Vec.unsafe_data g.next_out in
  let cost = Vec.unsafe_data g.arc_cost and rescap = Vec.unsafe_data g.rescap in
  let pot = Vec.unsafe_data g.potential in
  let pn = Array.unsafe_get pot n in
  let found = ref false in
  let a = ref (uget g.first_out n) in
  while (not !found) && !a >= 0 do
    let a0 = !a in
    let rc =
      (Array.unsafe_get cost a0 * scale) - pn + Array.unsafe_get pot (Array.unsafe_get head a0)
    in
    if
      (rc < 0 && Array.unsafe_get rescap a0 > 0)
      || (rc > 0 && Array.unsafe_get rescap (a0 lxor 1) > 0)
    then found := true;
    a := Array.unsafe_get next a0
  done;
  !found

(* Pass 1 of delta placement extraction reads every pair slot when the
   dirty log is unusable; hoisting the arrays replaces three checked
   cross-module reads per slot with one closure call. *)
let iter_pairs g f =
  let live = Vec.unsafe_data g.arc_live and rescap = Vec.unsafe_data g.rescap in
  let gen = Vec.unsafe_data g.arc_gen in
  for k = 0 to (arc_bound g / 2) - 1 do
    let a = 2 * k in
    if Array.unsafe_get live a then
      f k (Array.unsafe_get rescap (a + 1)) (Array.unsafe_get gen a)
    else f k 0 0
  done

let out_degree g n =
  let d = ref 0 in
  iter_out g n (fun _ -> incr d);
  !d

let total_cost g =
  let acc = ref 0 in
  iter_arcs g (fun a -> acc := !acc + (cost g a * flow g a));
  !acc

let max_arc_cost g =
  let m = ref 0 in
  iter_arcs g (fun a -> if abs (cost g a) > !m then m := abs (cost g a));
  !m

let reset_flow g =
  drop_log g;
  iter_arcs g (fun a ->
      let u = capacity g a in
      Vec.set g.rescap a u;
      Vec.set g.rescap (rev a) 0;
      sync_active g a;
      sync_active g (rev a));
  iter_nodes g (fun n ->
      Vec.set g.excess n (Vec.get g.supply n);
      Vec.set g.potential n 0)

let copy g =
  {
    supply = Vec.copy g.supply;
    excess = Vec.copy g.excess;
    potential = Vec.copy g.potential;
    first_out = Vec.copy g.first_out;
    node_live = Vec.copy g.node_live;
    free_nodes = Vec.copy g.free_nodes;
    live_nodes = g.live_nodes;
    head = Vec.copy g.head;
    arc_cost = Vec.copy g.arc_cost;
    rescap = Vec.copy g.rescap;
    next_out = Vec.copy g.next_out;
    prev_out = Vec.copy g.prev_out;
    first_active = Vec.copy g.first_active;
    next_active = Vec.copy g.next_active;
    prev_active = Vec.copy g.prev_active;
    active_flag = Vec.copy g.active_flag;
    arc_live = Vec.copy g.arc_live;
    arc_gen = Vec.copy g.arc_gen;
    free_pairs = Vec.copy g.free_pairs;
    live_arcs = g.live_arcs;
    ch_structural = g.ch_structural;
    ch_cost = g.ch_cost;
    ch_capacity = g.ch_capacity;
    ch_supply = g.ch_supply;
    ch_max_cost = g.ch_max_cost;
    log_pairs = Vec.create ~dummy:0 ();
    log_nodes = Vec.create ~dummy:0 ();
    pair_mark = Bytes.empty;
    node_mark = Bytes.empty;
    log_on = false;
    log_duals = false;
    log_epoch = 0;
  }

let copy_into dst src =
  if dst != src then begin
    drop_log dst;
    Vec.copy_into_int dst.supply src.supply;
    Vec.copy_into_int dst.excess src.excess;
    Vec.copy_into_int dst.potential src.potential;
    Vec.copy_into_int dst.first_out src.first_out;
    Vec.copy_into_bool dst.node_live src.node_live;
    Vec.copy_into_int dst.free_nodes src.free_nodes;
    dst.live_nodes <- src.live_nodes;
    Vec.copy_into_int dst.head src.head;
    Vec.copy_into_int dst.arc_cost src.arc_cost;
    Vec.copy_into_int dst.rescap src.rescap;
    Vec.copy_into_int dst.next_out src.next_out;
    Vec.copy_into_int dst.prev_out src.prev_out;
    Vec.copy_into_int dst.first_active src.first_active;
    Vec.copy_into_int dst.next_active src.next_active;
    Vec.copy_into_int dst.prev_active src.prev_active;
    Vec.copy_into_bool dst.active_flag src.active_flag;
    Vec.copy_into_bool dst.arc_live src.arc_live;
    Vec.copy_into_int dst.arc_gen src.arc_gen;
    Vec.copy_into_int dst.free_pairs src.free_pairs;
    dst.live_arcs <- src.live_arcs;
    dst.ch_structural <- src.ch_structural;
    dst.ch_cost <- src.ch_cost;
    dst.ch_capacity <- src.ch_capacity;
    dst.ch_supply <- src.ch_supply;
    dst.ch_max_cost <- src.ch_max_cost
  end

let peek_changes g =
  {
    structural = g.ch_structural;
    cost_changes = g.ch_cost;
    capacity_changes = g.ch_capacity;
    supply_changes = g.ch_supply;
    max_changed_cost = g.ch_max_cost;
  }

let take_changes g =
  let s = peek_changes g in
  g.ch_structural <- 0;
  g.ch_cost <- 0;
  g.ch_capacity <- 0;
  g.ch_supply <- 0;
  g.ch_max_cost <- 0;
  s
