module G = Flowgraph.Graph

type node_kind =
  | Task_node of Cluster.Types.task_id
  | Machine_node of Cluster.Types.machine_id
  | Rack_node of Cluster.Types.rack_id
  | Cluster_agg
  | Unscheduled_agg of Cluster.Types.job_id
  | Request_agg of int
  | Sink

let pp_node_kind ppf = function
  | Task_node t -> Format.fprintf ppf "task:%d" t
  | Machine_node m -> Format.fprintf ppf "machine:%d" m
  | Rack_node r -> Format.fprintf ppf "rack:%d" r
  | Cluster_agg -> Format.pp_print_string ppf "cluster-agg"
  | Unscheduled_agg j -> Format.fprintf ppf "unscheduled:%d" j
  | Request_agg b -> Format.fprintf ppf "request-agg:%d" b
  | Sink -> Format.pp_print_string ppf "sink"

type t = {
  mutable g : G.t;
  sink : G.node;
  kinds : (G.node, node_kind) Hashtbl.t;
  tasks : (Cluster.Types.task_id, G.node) Hashtbl.t;
  machines : (Cluster.Types.machine_id, G.node) Hashtbl.t;
  racks : (Cluster.Types.rack_id, G.node) Hashtbl.t;
  unscheduled : (Cluster.Types.job_id, G.node) Hashtbl.t;
  request_aggs : (int, G.node) Hashtbl.t;
  (* Cached machine->sink arc handles, maintained by
     [ensure_machine]/[remove_machine]. Arc ids survive graph copies and
     [set_graph] swaps between structure-preserving copies, so readers
     (placement extraction, validation) can use them on any adopted
     solution graph without re-scanning out-lists. *)
  sink_arcs : (Cluster.Types.machine_id, G.arc) Hashtbl.t;
  (* The same cache for each job's unscheduled-aggregator->sink arc,
     maintained by [ensure_unscheduled]. That arc sits at the tail of the
     aggregator's out-list, behind the reverse arc of every task of the
     job, so a [find_arc] per capacity update scans the whole job. *)
  unsched_arcs : (Cluster.Types.job_id, G.arc) Hashtbl.t;
  (* Each task's arc to its job's unscheduled aggregator, installed and
     re-priced by [ensure_unscheduled_arc] and released by [remove_task].
     The aggregator->sink capacity counts the tasks holding one. *)
  task_unsched : (Cluster.Types.task_id, G.arc) Hashtbl.t;
  mutable cluster_agg : G.node option;
  mutable n_tasks : int;
  (* Log of the task ids [add_task] saw, in order, so the placement
     extractor can find the tasks it does not track yet without walking
     every task. Entry [i] of [added] has absolute position
     [added_start + i]; the log is dropped whole (and [added_start]
     advanced past it) once it outgrows the task population, so a reader
     that fell behind sees a gap and falls back to a full walk. [uid]
     tells networks apart, since positions are per network. *)
  uid : int;
  added : int Flowgraph.Vec.t;
  mutable added_start : int;
}

let uid_counter = Atomic.make 0

let empty g ~sink ~kinds =
  {
    g;
    sink;
    kinds;
    tasks = Hashtbl.create 256;
    machines = Hashtbl.create 64;
    racks = Hashtbl.create 16;
    unscheduled = Hashtbl.create 16;
    request_aggs = Hashtbl.create 16;
    sink_arcs = Hashtbl.create 64;
    unsched_arcs = Hashtbl.create 16;
    task_unsched = Hashtbl.create 256;
    cluster_agg = None;
    n_tasks = 0;
    uid = Atomic.fetch_and_add uid_counter 1;
    added = Flowgraph.Vec.create ~dummy:0 ();
    added_start = 0;
  }

let create () =
  let g = G.create () in
  let sink = G.add_node g ~supply:0 in
  let kinds = Hashtbl.create 256 in
  Hashtbl.replace kinds sink Sink;
  empty g ~sink ~kinds

let graph t = t.g
let set_graph t g = t.g <- g
let sink t = t.sink

let kind t n =
  match Hashtbl.find_opt t.kinds n with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Flow_network.kind: unknown node %d" n)

let kind_opt t n = Hashtbl.find_opt t.kinds n

let task_count t = t.n_tasks

let find_arc t src dst =
  let found = ref None in
  let it = ref (G.first_out t.g src) in
  while !found = None && !it >= 0 do
    let a = !it in
    if G.is_forward a && G.dst t.g a = dst then found := Some a;
    it := G.next_out t.g a
  done;
  !found

let set_or_add_arc t ~src ~dst ~cost ~cap =
  match find_arc t src dst with
  | Some a ->
      G.set_cost t.g a cost;
      G.set_capacity t.g a cap;
      a
  | None -> G.add_arc t.g ~src ~dst ~cost ~cap

(* Forward arcs from node [n] into any job's unscheduled aggregator. *)
let unscheduled_arcs_of t n =
  let acc = ref [] in
  G.iter_out t.g n (fun a ->
      if G.is_forward a then
        match Hashtbl.find_opt t.kinds (G.dst t.g a) with
        | Some (Unscheduled_agg _) -> acc := a :: !acc
        | _ -> ());
  !acc

(* Each job's aggregator->sink capacity must count the tasks with an arc
   into the aggregator (one reverse residual arc each). *)
let unscheduled_capacity_errors t =
  Hashtbl.fold
    (fun j u errs ->
      let held = ref 0 in
      G.iter_out t.g u (fun a ->
          match Hashtbl.find_opt t.kinds (G.dst t.g a) with
          | Some (Task_node _) when not (G.is_forward a) -> incr held
          | _ -> ());
      match Hashtbl.find_opt t.unsched_arcs j with
      | Some s when G.arc_is_live t.g s && G.capacity t.g s <> !held ->
          Printf.sprintf "job %d unscheduled sink capacity %d but %d tasks hold an arc" j
            (G.capacity t.g s) !held
          :: errs
      | _ -> errs)
    t.unscheduled []

(* Rebuild the network around a graph parsed from a snapshot. The
   side-band [kinds] assoc (node handle -> role) is the only information
   a DIMACS dump cannot carry; everything else — the sink-arc caches, each
   task's unscheduled arc, the task count — is rederived from the graph
   itself and cross-checked. *)
let restore ~graph:g ~kinds:kind_list =
  let fail fmt = Format.kasprintf invalid_arg ("Flow_network.restore: " ^^ fmt) in
  let sink =
    match List.filter (fun (_, k) -> k = Sink) kind_list with
    | [ (n, _) ] -> n
    | [] -> fail "no sink record"
    | _ -> fail "multiple sink records"
  in
  let t = empty g ~sink ~kinds:(Hashtbl.create (List.length kind_list * 2)) in
  List.iter
    (fun (n, k) ->
      if not (G.node_is_live g n) then fail "%a maps to dead node %d" pp_node_kind k n;
      if Hashtbl.mem t.kinds n then fail "duplicate kind record for node %d" n;
      Hashtbl.replace t.kinds n k;
      match k with
      | Task_node tid ->
          if Hashtbl.mem t.tasks tid then fail "duplicate task %d" tid;
          Hashtbl.replace t.tasks tid n;
          t.n_tasks <- t.n_tasks + 1
      | Machine_node m ->
          if Hashtbl.mem t.machines m then fail "duplicate machine %d" m;
          Hashtbl.replace t.machines m n
      | Rack_node r -> Hashtbl.replace t.racks r n
      | Cluster_agg ->
          if t.cluster_agg <> None then fail "multiple cluster aggregators";
          t.cluster_agg <- Some n
      | Unscheduled_agg j -> Hashtbl.replace t.unscheduled j n
      | Request_agg b -> Hashtbl.replace t.request_aggs b n
      | Sink -> ())
    kind_list;
  (* Every live node must have a role: an unlabelled node means the kind
     table and the graph came from different snapshots. *)
  G.iter_nodes g (fun n ->
      if not (Hashtbl.mem t.kinds n) then fail "live node %d has no kind record" n);
  Hashtbl.iter
    (fun m n ->
      match find_arc t n sink with
      | Some a -> Hashtbl.replace t.sink_arcs m a
      | None -> fail "machine %d has no arc to the sink" m)
    t.machines;
  Hashtbl.iter
    (fun j n ->
      match find_arc t n sink with
      | Some a -> Hashtbl.replace t.unsched_arcs j a
      | None -> fail "unscheduled aggregator of job %d has no arc to the sink" j)
    t.unscheduled;
  Hashtbl.iter
    (fun tid n ->
      match unscheduled_arcs_of t n with
      | [ a ] -> Hashtbl.replace t.task_unsched tid a
      | l -> fail "task %d has %d unscheduled arcs, expected 1" tid (List.length l))
    t.tasks;
  List.iter (fun e -> fail "%s" e) (unscheduled_capacity_errors t);
  if G.supply g t.sink <> -t.n_tasks then
    fail "sink supply %d does not match -%d task nodes" (G.supply g t.sink) t.n_tasks;
  t

let add_task t tid =
  if Hashtbl.mem t.tasks tid then
    invalid_arg (Printf.sprintf "Flow_network.add_task: task %d already present" tid);
  let n = G.add_node t.g ~supply:1 in
  Hashtbl.replace t.kinds n (Task_node tid);
  Hashtbl.replace t.tasks tid n;
  t.n_tasks <- t.n_tasks + 1;
  let len = Flowgraph.Vec.length t.added in
  if len >= max 1024 (2 * t.n_tasks) then begin
    t.added_start <- t.added_start + len;
    Flowgraph.Vec.clear t.added
  end;
  ignore (Flowgraph.Vec.push t.added tid);
  G.set_supply t.g t.sink (- t.n_tasks);
  n

let task_node t tid = Hashtbl.find_opt t.tasks tid

let task_of_node t n =
  match Hashtbl.find_opt t.kinds n with Some (Task_node tid) -> Some tid | _ -> None

let machine_node t m = Hashtbl.find_opt t.machines m

let machine_of_node t n =
  match Hashtbl.find_opt t.kinds n with Some (Machine_node m) -> Some m | _ -> None

(* The first outgoing forward arc of [n] that carries flow, or -1. *)
let carrier t n =
  let c = ref (-1) in
  let it = ref (G.first_out t.g n) in
  while !c < 0 && !it >= 0 do
    let a = !it in
    if G.is_forward a && G.rescap t.g (G.rev a) > 0 then c := a;
    it := G.next_out t.g a
  done;
  !c

(* Walk the task's unit of flow to the sink and retire it (paper §5.3.2):
   after this the rest of the solution is untouched and stays balanced. *)
let drain_task_flow t node =
  let rec walk n =
    let a = if n = t.sink then -1 else carrier t n in
    if a >= 0 then begin
      G.push t.g (G.rev a) 1;
      walk (G.dst t.g a)
    end
  in
  walk node

(* The job whose unscheduled aggregator task arc [a] enters. *)
let holder_job t a =
  match Hashtbl.find t.kinds (G.dst t.g a) with
  | Unscheduled_agg j -> j
  | _ -> invalid_arg "Flow_network: cached unscheduled arc leaves its aggregator"

(* One task of job [j] let go of its unscheduled arc. The last one takes
   the aggregator with it; [ensure_unscheduled] makes a new one when the
   job has a task again. *)
let release_unscheduled t j =
  let s = Hashtbl.find t.unsched_arcs j in
  let cap = G.capacity t.g s - 1 in
  if cap > 0 then G.set_capacity t.g s cap
  else begin
    let u = Hashtbl.find t.unscheduled j in
    G.remove_node t.g u;
    Hashtbl.remove t.unscheduled j;
    Hashtbl.remove t.unsched_arcs j;
    Hashtbl.remove t.kinds u
  end

let remove_task t tid ~drain =
  match Hashtbl.find_opt t.tasks tid with
  | None -> invalid_arg (Printf.sprintf "Flow_network.remove_task: unknown task %d" tid)
  | Some n ->
      (* Find the aggregator while the task's arc is live. *)
      let held = Option.map (holder_job t) (Hashtbl.find_opt t.task_unsched tid) in
      if drain then drain_task_flow t n;
      G.remove_node t.g n;
      Hashtbl.remove t.tasks tid;
      Hashtbl.remove t.task_unsched tid;
      Hashtbl.remove t.kinds n;
      t.n_tasks <- t.n_tasks - 1;
      G.set_supply t.g t.sink (- t.n_tasks);
      Option.iter (release_unscheduled t) held

(* Move the task's unit onto the direct task->machine arc. The task's own
   first hop is cancelled, and one unit of any flow-decomposition path from
   that hop's head to the machine is cancelled via a backward search from
   the machine along flow-carrying arcs. The search never expands task
   nodes and stops at the target aggregator, so high-degree aggregators
   are never scanned. *)
let reroute_direct t tid m ~cost =
  match (Hashtbl.find_opt t.tasks tid, Hashtbl.find_opt t.machines m) with
  | Some tn, Some mn ->
      (* The task's unique carrier (its one unit of flow). *)
      let first_hop = carrier t tn in
      if first_hop < 0 then false (* unrouted *)
      else if G.dst t.g first_hop = mn then true (* already direct *)
      else begin
        let target = G.dst t.g first_hop in
        (* Backward DFS from the machine: follow reverse residual arcs
           (one per unit of inbound flow) until reaching [target]. *)
        let parent : (G.node, G.arc) Hashtbl.t = Hashtbl.create 16 in
        let stack = ref [ mn ] in
        let found = ref false in
        while (not !found) && !stack <> [] do
          match !stack with
          | [] -> ()
          | n :: rest ->
              stack := rest;
              let it = ref (G.first_active t.g n) in
              while (not !found) && !it >= 0 do
                let a = !it in
                (* Reverse residual arcs n->p mirror flow p->n. *)
                if not (G.is_forward a) then begin
                  let p = G.dst t.g a in
                  if p = target then begin
                    Hashtbl.replace parent p a;
                    found := true
                  end
                  else if not (Hashtbl.mem parent p) then begin
                    match Hashtbl.find_opt t.kinds p with
                    | Some (Rack_node _ | Cluster_agg | Request_agg _) ->
                        Hashtbl.replace parent p a;
                        stack := p :: !stack
                    | Some
                        ( Task_node _ | Machine_node _ | Unscheduled_agg _ | Sink )
                    | None ->
                        ()
                  end
                end;
                it := G.next_active t.g a
              done
        done;
        if not !found then false
        else begin
          (* Cancel the task's own first hop... *)
          G.push t.g (G.rev first_hop) 1;
          (* ...cancel one unit along the discovered chain (pushing on the
             reverse arcs walks the reduction from the machine back to the
             target aggregator)... *)
          let rec unwind n =
            if n <> mn then begin
              let a = Hashtbl.find parent n in
              (* a runs src->n with src closer to the machine. *)
              G.push t.g a 1;
              unwind (G.src t.g a)
            end
          in
          unwind target;
          (* ...and route the unit directly. *)
          let direct =
            match find_arc t tn mn with
            | Some a ->
                G.set_cost t.g a cost;
                a
            | None -> G.add_arc t.g ~src:tn ~dst:mn ~cost ~cap:1
          in
          G.push t.g direct 1;
          true
        end
      end
  | _ -> false

let prune_task_arcs t tid ~keep =
  match Hashtbl.find_opt t.tasks tid with
  | None -> ()
  | Some tn ->
      let u = Option.value ~default:(-1) (Hashtbl.find_opt t.task_unsched tid) in
      let stale = ref [] in
      let it = ref (G.first_out t.g tn) in
      while !it >= 0 do
        let a = !it in
        if G.is_forward a && a <> u && not (keep (G.dst t.g a)) then stale := a :: !stale;
        it := G.next_out t.g a
      done;
      List.iter (G.remove_arc t.g) !stale

let pin_task t tid m ~cost =
  match (Hashtbl.find_opt t.tasks tid, Hashtbl.find_opt t.machines m) with
  | Some tn, Some mn -> ignore (set_or_add_arc t ~src:tn ~dst:mn ~cost ~cap:1)
  | _ -> ()

let start_task t tid m ~cost =
  if reroute_direct t tid m ~cost then begin
    let mn = Hashtbl.find t.machines m in
    prune_task_arcs t tid ~keep:(fun n -> n = mn)
  end
  else pin_task t tid m ~cost

let ensure_machine t m ~slots =
  match Hashtbl.find_opt t.machines m with
  | Some n -> n
  | None ->
      let n = G.add_node t.g ~supply:0 in
      Hashtbl.replace t.kinds n (Machine_node m);
      Hashtbl.replace t.machines m n;
      let a = G.add_arc t.g ~src:n ~dst:t.sink ~cost:0 ~cap:slots in
      Hashtbl.replace t.sink_arcs m a;
      n

let remove_machine t m =
  match Hashtbl.find_opt t.machines m with
  | None -> ()
  | Some n ->
      G.remove_node t.g n;
      Hashtbl.remove t.machines m;
      Hashtbl.remove t.sink_arcs m;
      Hashtbl.remove t.kinds n

let machine_sink_arc t m = Hashtbl.find_opt t.sink_arcs m

let ensure_rack t r =
  match Hashtbl.find_opt t.racks r with
  | Some n -> n
  | None ->
      let n = G.add_node t.g ~supply:0 in
      Hashtbl.replace t.kinds n (Rack_node r);
      Hashtbl.replace t.racks r n;
      n

let rack_node t r = Hashtbl.find_opt t.racks r

let ensure_cluster_agg t =
  match t.cluster_agg with
  | Some n -> n
  | None ->
      let n = G.add_node t.g ~supply:0 in
      Hashtbl.replace t.kinds n Cluster_agg;
      t.cluster_agg <- Some n;
      n

let ensure_unscheduled t j =
  match Hashtbl.find_opt t.unscheduled j with
  | Some n -> n
  | None ->
      let n = G.add_node t.g ~supply:0 in
      Hashtbl.replace t.kinds n (Unscheduled_agg j);
      Hashtbl.replace t.unscheduled j n;
      Hashtbl.replace t.unsched_arcs j (G.add_arc t.g ~src:n ~dst:t.sink ~cost:0 ~cap:0);
      n

let unscheduled_node t j = Hashtbl.find_opt t.unscheduled j
let unscheduled_sink_arc t j = Hashtbl.find_opt t.unsched_arcs j
let unscheduled_arc t tid = Hashtbl.find_opt t.task_unsched tid

let ensure_unscheduled_arc t tid ~job ~cost =
  match Hashtbl.find_opt t.task_unsched tid with
  | Some a -> G.set_cost t.g a cost
  | None -> (
      match Hashtbl.find_opt t.tasks tid with
      | None ->
          invalid_arg
            (Printf.sprintf "Flow_network.ensure_unscheduled_arc: unknown task %d" tid)
      | Some tn ->
          let u = ensure_unscheduled t job in
          Hashtbl.replace t.task_unsched tid (G.add_arc t.g ~src:tn ~dst:u ~cost ~cap:1);
          let s = Hashtbl.find t.unsched_arcs job in
          G.set_capacity t.g s (G.capacity t.g s + 1))

let ensure_request_agg t b =
  match Hashtbl.find_opt t.request_aggs b with
  | Some n -> n
  | None ->
      let n = G.add_node t.g ~supply:0 in
      Hashtbl.replace t.kinds n (Request_agg b);
      Hashtbl.replace t.request_aggs b n;
      n

let remove_request_agg t b =
  match Hashtbl.find_opt t.request_aggs b with
  | None -> ()
  | Some n ->
      G.remove_node t.g n;
      Hashtbl.remove t.request_aggs b;
      Hashtbl.remove t.kinds n

let iter_request_aggs t f =
  List.iter
    (fun (b, n) -> f b n)
    (Hashtbl.fold (fun b n acc -> (b, n) :: acc) t.request_aggs [])

let iter_task_nodes t f = Hashtbl.iter f t.tasks
let task_log_end t = t.added_start + Flowgraph.Vec.length t.added

let iter_tasks_added_since t ~uid ~pos f =
  uid = t.uid
  && pos >= t.added_start
  && pos <= task_log_end t
  && begin
       for i = pos - t.added_start to Flowgraph.Vec.length t.added - 1 do
         f (Flowgraph.Vec.get t.added i)
       done;
       true
     end

let uid t = t.uid
let iter_machine_nodes t f = Hashtbl.iter f t.machines

let validate_structure t =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  if G.supply t.g t.sink <> -t.n_tasks then
    err "sink supply %d does not match -%d task nodes" (G.supply t.g t.sink) t.n_tasks;
  Hashtbl.iter
    (fun tid n ->
      if not (G.node_is_live t.g n) then err "task %d maps to dead node %d" tid n
      else begin
        if G.supply t.g n <> 1 then err "task %d has supply %d" tid (G.supply t.g n);
        (* Exactly one arc into an unscheduled aggregator: the cached one. *)
        match (Hashtbl.find_opt t.task_unsched tid, unscheduled_arcs_of t n) with
        | Some a, [ a' ] when a = a' -> ()
        | None, _ -> err "task %d has no cached unscheduled arc" tid
        | Some a, l ->
            err "task %d: cached unscheduled arc %d, %d live unscheduled arcs" tid a
              (List.length l)
      end)
    t.tasks;
  Hashtbl.iter
    (fun m n ->
      if not (G.node_is_live t.g n) then err "machine %d maps to dead node %d" m n
      else begin
        (* The cached sink-arc handle must be a live n->sink arc... *)
        (match Hashtbl.find_opt t.sink_arcs m with
        | None -> err "machine %d has no cached sink arc" m
        | Some a ->
            if not (G.arc_is_live t.g a) then err "machine %d cached sink arc %d is dead" m a
            else if G.src t.g a <> n || G.dst t.g a <> t.sink then
              err "machine %d cached sink arc %d runs %d->%d, expected %d->sink" m a
                (G.src t.g a) (G.dst t.g a) n);
        (* ...and remain the machine's only outgoing forward arc. *)
        let it = ref (G.first_out t.g n) in
        while !it >= 0 do
          let a = !it in
          if G.is_forward a && G.dst t.g a <> t.sink then
            err "machine %d has a non-sink outgoing arc to node %d" m (G.dst t.g a);
          it := G.next_out t.g a
        done
      end)
    t.machines;
  Hashtbl.iter
    (fun j n ->
      match Hashtbl.find_opt t.unsched_arcs j with
      | None -> err "unscheduled aggregator of job %d has no cached sink arc" j
      | Some a ->
          if not (G.arc_is_live t.g a) then
            err "job %d cached unscheduled sink arc %d is dead" j a
          else if G.src t.g a <> n || G.dst t.g a <> t.sink then
            err "job %d cached unscheduled sink arc %d runs %d->%d, expected %d->sink" j
              a (G.src t.g a) (G.dst t.g a) n)
    t.unscheduled;
  List.iter (fun e -> err "%s" e) (unscheduled_capacity_errors t);
  List.rev !errs
