module G = Flowgraph.Graph
module FN = Flow_network

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let () =
  Printexc.register_printer (function
    | Corrupt msg -> Some (Printf.sprintf "Firmament.Snapshot.Corrupt: %s" msg)
    | _ -> None)

type event =
  | Job of Cluster.Workload.job
  | Finish of Cluster.Types.task_id * float
  | Preempt of Cluster.Types.task_id
  | Fail_machine of Cluster.Types.machine_id
  | Restore_machine of Cluster.Types.machine_id

(* %.17g round-trips every finite double exactly through
   float_of_string, so timestamps and durations survive the text form. *)
let f2s x = Printf.sprintf "%.17g" x

let tokens line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let encode_kind = function
  | FN.Task_node tid -> Printf.sprintf "task %d" tid
  | FN.Machine_node m -> Printf.sprintf "machine %d" m
  | FN.Rack_node r -> Printf.sprintf "rack %d" r
  | FN.Cluster_agg -> "cluster"
  | FN.Unscheduled_agg j -> Printf.sprintf "unsched %d" j
  | FN.Request_agg b -> Printf.sprintf "req %d" b
  | FN.Sink -> "sink"

let int_tok s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> corrupt "expected integer, got %S" s

let float_tok s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> corrupt "expected float, got %S" s

let decode_kind = function
  | [ "task"; t ] -> FN.Task_node (int_tok t)
  | [ "machine"; m ] -> FN.Machine_node (int_tok m)
  | [ "rack"; r ] -> FN.Rack_node (int_tok r)
  | [ "cluster" ] -> FN.Cluster_agg
  | [ "unsched"; j ] -> FN.Unscheduled_agg (int_tok j)
  | [ "req"; b ] -> FN.Request_agg (int_tok b)
  | [ "sink" ] -> FN.Sink
  | toks -> corrupt "unknown node kind %S" (String.concat " " toks)

(* One job as record lines. [prefix] is "" in the base image and "d " in
   the journal; the task lines carry everything a policy consumes
   (locality, input size, bandwidth demand) so arcs rebuilt on replay
   match the originals. *)
let job_lines ~prefix (j : Cluster.Workload.job) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%sjob %d %s %s %d\n" prefix j.Cluster.Workload.jid
       (match j.Cluster.Workload.klass with
       | Cluster.Types.Batch -> "batch"
       | Cluster.Types.Service -> "service")
       (f2s j.Cluster.Workload.job_submit_time)
       (Array.length j.Cluster.Workload.tasks));
  Array.iter
    (fun (task : Cluster.Workload.task) ->
      Buffer.add_string buf
        (Printf.sprintf "%stask %d %d %s %s %s %d %d%s\n" prefix
           task.Cluster.Workload.tid task.Cluster.Workload.job
           (f2s task.Cluster.Workload.submit_time)
           (f2s task.Cluster.Workload.duration)
           (f2s task.Cluster.Workload.input_mb)
           task.Cluster.Workload.net_demand_mbps
           (List.length task.Cluster.Workload.input_machines)
           (String.concat ""
              (List.map (Printf.sprintf " %d") task.Cluster.Workload.input_machines))))
    j.Cluster.Workload.tasks;
  Buffer.contents buf

let parse_task ~prefix toks =
  let strip = function
    | "d" :: rest when prefix -> rest
    | toks when not prefix -> toks
    | _ -> corrupt "malformed task record"
  in
  match strip toks with
  | "task" :: tid :: jid :: submit :: dur :: imb :: nd :: k :: rest ->
      let k = int_tok k in
      let ms = List.map int_tok rest in
      if List.length ms <> k then corrupt "task record lists %d input machines, header says %d" (List.length ms) k;
      Cluster.Workload.make_task ~tid:(int_tok tid) ~job:(int_tok jid)
        ~submit_time:(float_tok submit) ~duration:(float_tok dur)
        ~input_mb:(float_tok imb) ~input_machines:ms ~net_demand_mbps:(int_tok nd) ()
  | _ -> corrupt "malformed task record"

(* The base image: everything needed to rebuild scheduler state at the
   moment of the dump. Cluster state is stored as facts (topology
   parameters, every job with the attributes of its live tasks, who runs
   where, which machines are dead) and replayed through the normal
   constructors. Finished tasks are history, not state: the image lists
   each job (so a resumed replay still knows it was submitted) but only
   its waiting and running tasks, which keeps the image, and the time and
   memory a restore takes, proportional to the live cluster rather than
   to every task it has ever run;
   the flow network is stored as a DIMACS state dump (structure + flow +
   potentials — the warm start) plus side-band node-kind records keyed by
   the same dense renumbering {!Flowgraph.Dimacs.emit_state} uses. *)
let emit_base sched ~now =
  let buf = Buffer.create 65536 in
  let cluster = Scheduler.cluster sched in
  let net = Scheduler.network sched in
  let topo = Cluster.State.topology cluster in
  let machines = Cluster.Topology.machine_count topo in
  let mpr = List.length (Cluster.Topology.machines_in_rack topo 0) in
  Buffer.add_string buf "firmament-snapshot v1\n";
  Buffer.add_string buf
    (Printf.sprintf "topo %d %d %d %d\n" machines mpr
       (Cluster.Topology.slots_per_machine topo)
       (Cluster.Topology.machine topo 0).Cluster.Topology.net_capacity_mbps);
  Buffer.add_string buf (Printf.sprintf "now %s\n" (f2s now));
  for m = 0 to machines - 1 do
    if not (Cluster.State.machine_is_live cluster m) then
      Buffer.add_string buf (Printf.sprintf "dead %d\n" m)
  done;
  Cluster.State.iter_jobs cluster (fun j ->
      let live =
        List.filter
          (fun (task : Cluster.Workload.task) ->
            match task.Cluster.Workload.state with
            | Cluster.Types.Finished _ -> false
            | Cluster.Types.Waiting | Cluster.Types.Running _ | Cluster.Types.Failed ->
                true)
          (Array.to_list j.Cluster.Workload.tasks)
      in
      Buffer.add_string buf
        (job_lines ~prefix:"" { j with Cluster.Workload.tasks = Array.of_list live }));
  Cluster.State.iter_tasks cluster (fun task ->
      match task.Cluster.Workload.state with
      | Cluster.Types.Running { machine; started_at } ->
          Buffer.add_string buf
            (Printf.sprintf "run %d %d %s\n" task.Cluster.Workload.tid machine
               (f2s started_at))
      | Cluster.Types.Waiting | Cluster.Types.Finished _ | Cluster.Types.Failed -> ());
  let g = FN.graph net in
  let ids = Flowgraph.Dimacs.dense_ids g in
  G.iter_nodes g (fun n ->
      match FN.kind_opt net n with
      | Some k ->
          Buffer.add_string buf
            (Printf.sprintf "node %d %s\n" (Hashtbl.find ids n) (encode_kind k))
      | None -> corrupt "live node %d has no kind; cannot snapshot" n);
  let dump = Flowgraph.Dimacs.emit_state g in
  let nlines = String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 dump in
  Buffer.add_string buf (Printf.sprintf "graph %d\n" nlines);
  Buffer.add_string buf dump;
  Buffer.add_string buf "end-base\n";
  Buffer.contents buf

(* Journal line(s) for one cluster event. *)
let event_string = function
  | Job j -> job_lines ~prefix:"d " j
  | Finish (tid, now) -> Printf.sprintf "d fin %d %s\n" tid (f2s now)
  | Preempt tid -> Printf.sprintf "d preempt %d\n" tid
  | Fail_machine m -> Printf.sprintf "d failm %d\n" m
  | Restore_machine m -> Printf.sprintf "d restorem %d\n" m

(* Journal lines for one committed round's placement diff. Ordered the
   way commit frees and fills slots: solver preemptions, migrations,
   starts. Rounds that placed nothing write nothing. *)
let round_string (r : Scheduler.round) ~now =
  if r.Scheduler.started = [] && r.Scheduler.migrated = [] && r.Scheduler.preempted = []
  then ""
  else begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf (Printf.sprintf "d round %s\n" (f2s now));
    List.iter
      (fun tid -> Buffer.add_string buf (Printf.sprintf "d rpre %d\n" tid))
      r.Scheduler.preempted;
    List.iter
      (fun (tid, _m_old, m_new) ->
        Buffer.add_string buf (Printf.sprintf "d migrate %d %d\n" tid m_new))
      r.Scheduler.migrated;
    List.iter
      (fun (tid, m) -> Buffer.add_string buf (Printf.sprintf "d place %d %d\n" tid m))
      r.Scheduler.started;
    Buffer.contents buf
  end

module Writer = struct
  type t = { path : string; mutable oc : out_channel }

  let to_file ~path sched ~now =
    let oc = open_out path in
    output_string oc (emit_base sched ~now);
    flush oc;
    { path; oc }

  let write t s =
    if s <> "" then begin
      output_string t.oc s;
      flush t.oc
    end

  let event t ev = write t (event_string ev)
  let round t r ~now = write t (round_string r ~now)

  (* Rewrite the base image to the current state, atomically: the new
     image lands under a temp name and is renamed over the old snapshot,
     so a crash mid-rebase still leaves a loadable (older) snapshot. The
     kept channel follows the renamed inode, so subsequent deltas append
     to the fresh image. *)
  let rebase t sched ~now =
    let image = emit_base sched ~now in
    close_out_noerr t.oc;
    let tmp = t.path ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc image;
    flush oc;
    Sys.rename tmp t.path;
    t.oc <- oc

  let close t = close_out_noerr t.oc
end

type restored = { scheduler : Scheduler.t; now : float }

(* [Array.init]/[List.init] apply their function in unspecified order
   (and [List.init] runs tail-recursively in reverse past a size
   threshold) — fatal with a side-effecting reader. Explicit in-order
   loops instead. *)
let read_n n f =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f () :: acc) in
  go n []

let restore_lines ?config ~policy lines =
  let arr = Array.of_list lines in
  let n = Array.length arr in
  let pos = ref 0 in
  let next () =
    if !pos >= n then corrupt "truncated base image"
    else begin
      let l = arr.(!pos) in
      incr pos;
      l
    end
  in
  (match tokens (next ()) with
  | [ "firmament-snapshot"; "v1" ] -> ()
  | _ -> corrupt "not a firmament snapshot (missing header)");
  let machines, mpr, spm, nc =
    match tokens (next ()) with
    | [ "topo"; a; b; c; d ] -> (int_tok a, int_tok b, int_tok c, int_tok d)
    | _ -> corrupt "missing topo record"
  in
  let base_now =
    match tokens (next ()) with
    | [ "now"; f ] -> float_tok f
    | _ -> corrupt "missing now record"
  in
  let topo =
    Cluster.Topology.make ~machines ~machines_per_rack:mpr ~slots_per_machine:spm
      ~net_capacity_mbps:nc ()
  in
  let cluster = Cluster.State.create topo in
  let dead = ref [] and runs = ref [] and fins = ref [] and kind_recs = ref [] in
  let graph_lines = ref [] in
  let klass_of = function
    | "batch" -> Cluster.Types.Batch
    | "service" -> Cluster.Types.Service
    | s -> corrupt "unknown job class %S" s
  in
  let rec base_loop () =
    match tokens (next ()) with
    | [ "graph"; nl ] ->
        graph_lines := read_n (int_tok nl) next;
        (match tokens (next ()) with
        | [ "end-base" ] -> ()
        | _ -> corrupt "missing end-base marker")
    | [ "dead"; m ] ->
        dead := int_tok m :: !dead;
        base_loop ()
    | [ "job"; jid; klass; submit; nt ] ->
        let tasks =
          Array.of_list
            (read_n (int_tok nt) (fun () -> parse_task ~prefix:false (tokens (next ()))))
        in
        Cluster.State.submit_job cluster
          (Cluster.Workload.make_job ~jid:(int_tok jid) ~klass:(klass_of klass)
             ~submit_time:(float_tok submit) ~tasks);
        base_loop ()
    | [ "run"; tid; m; at ] ->
        runs := (int_tok tid, int_tok m, float_tok at) :: !runs;
        base_loop ()
    | [ "fin"; tid; rt ] ->
        (* Images written before finished tasks were left out. *)
        fins := (int_tok tid, float_tok rt) :: !fins;
        base_loop ()
    | "node" :: id :: kind ->
        kind_recs := (int_tok id, decode_kind kind) :: !kind_recs;
        base_loop ()
    | [] -> base_loop ()
    | t :: _ -> corrupt "unsupported base record %S" t
  in
  base_loop ();
  (* Placements before machine deaths: a dead machine carries no running
     tasks, so this order never places onto a dead machine. *)
  List.iter (fun (tid, m, at) -> Cluster.State.place cluster tid m ~now:at) !runs;
  List.iter
    (fun (tid, rt) -> Cluster.State.restore_finished cluster tid ~response_time:rt)
    !fins;
  List.iter (fun m -> ignore (Cluster.State.fail_machine cluster m)) !dead;
  let g, dnodes =
    try Flowgraph.Dimacs.parse_state !graph_lines
    with Flowgraph.Dimacs.Error e ->
      corrupt "graph dump rejected: %a" Flowgraph.Dimacs.pp_error e
  in
  let kinds =
    List.rev_map
      (fun (id, k) ->
        if id < 1 || id > Array.length dnodes then
          corrupt "node record id %d outside graph of %d nodes" id (Array.length dnodes);
        (dnodes.(id - 1), k))
      !kind_recs
  in
  let net =
    try FN.restore ~graph:g ~kinds
    with Invalid_argument msg -> corrupt "%s" msg
  in
  let sched = Scheduler.of_restored ?config cluster ~net ~policy in
  (* Replay the journal through the live event/commit paths. A malformed
     record means the process died mid-append; everything before it is
     intact, so replay simply stops there (standard torn-tail handling). *)
  let last_now = ref base_now in
  let step () =
    match tokens (next ()) with
    | [] -> ()
    | [ "d"; "job"; jid; klass; submit; nt ] ->
        let tasks =
          Array.of_list
            (read_n (int_tok nt) (fun () -> parse_task ~prefix:true (tokens (next ()))))
        in
        Scheduler.submit_job sched
          (Cluster.Workload.make_job ~jid:(int_tok jid) ~klass:(klass_of klass)
             ~submit_time:(float_tok submit) ~tasks)
    | [ "d"; "fin"; tid; now ] ->
        let now = float_tok now in
        last_now := now;
        Scheduler.finish_task sched (int_tok tid) ~now
    | [ "d"; "preempt"; tid ] -> Scheduler.preempt_task sched (int_tok tid)
    | [ "d"; "failm"; m ] -> Scheduler.fail_machine sched (int_tok m)
    | [ "d"; "restorem"; m ] -> Scheduler.restore_machine sched (int_tok m)
    | [ "d"; "round"; now ] -> last_now := float_tok now
    | [ "d"; "place"; tid; m ] ->
        Scheduler.replay_placement sched ~now:!last_now (`Start (int_tok tid, int_tok m))
    | [ "d"; "migrate"; tid; m ] ->
        Scheduler.replay_placement sched ~now:!last_now (`Migrate (int_tok tid, int_tok m))
    | [ "d"; "rpre"; tid ] ->
        Scheduler.replay_placement sched ~now:!last_now (`Preempt (int_tok tid))
    | _ -> corrupt "unknown journal record"
  in
  (try
     while !pos < n do
       step ()
     done
   with Corrupt _ -> ());
  (* Certify the restored warm start so the first post-restore round can
     take the O(changes) incremental-repair path. *)
  Scheduler.prepare_warm sched;
  { scheduler = sched; now = !last_now }

let restore_string ?config ~policy s =
  restore_lines ?config ~policy (String.split_on_char '\n' s)

let restore_file ?config ~policy path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec read acc =
        match input_line ic with
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      restore_lines ?config ~policy (read []))
