(* The closed-loop workload, driven in process through the public
   [Firmament.Scheduler] and [Firmament.Snapshot] API with the default
   scheduler config and the Quincy policy.

   steady-churn  2,500 machines settled at 50%; before every round 1% of
                 the live tasks finish and one job of the same size
                 arrives.

   One worker settles its own cluster (set-up), runs unmeasured warm-up
   rounds, measures rounds for its share of the run, drains, checks the
   result, then measures snapshot write and restore. *)

module S = Firmament.Scheduler
module W = Cluster.Workload
module G = Flowgraph.Graph

let machines = 2500
let util = 0.5
let churn = 0.01 (* share of live tasks finished and resubmitted per round *)

let warmup_rounds = 5
(* Round [i] runs at cluster time [start_s + i] s, [start_s] s after the
   settled jobs arrived. Quincy's unscheduled cost grows with a task's age, so a
   settled task preempted in the window competes with its age, not as if
   the cluster had just started. *)
let start_s = 100.

let policy ~drain net st = Firmament.Policy_quincy.make ~drain net st
let config = S.default_config
let restore_count = 3
let settle_batch = 500
(* Least share of the measured [schedule] wall time the reported phases
   must cover. *)
let min_phase_frac = 0.95

(* {1 Workload state}

   The benchmark keeps its own ledger of what it submitted, finished and
   saw placed, so the scheduler's report can be checked against it. *)

type st = {
  sched : S.t;
  cluster : Cluster.State.t;
  rng : Random.State.t;
  mutable next_jid : int;
  mutable next_tid : int;
  mutable submitted : int;
  mutable finished : int;
  (* running tasks as a dense array for O(1) random picks *)
  mutable run_tids : int array;
  mutable run_len : int;
  run_pos : (int, int) Hashtbl.t;
  waiting_since : (int, int) Hashtbl.t;  (* tid -> submit ns, until placed *)
  mutable errors : string list;
}

let error st msg = if List.length st.errors < 20 then st.errors <- msg :: st.errors

let run_add st tid =
  if Hashtbl.mem st.run_pos tid then error st (Printf.sprintf "task %d placed twice" tid)
  else begin
    if st.run_len = Array.length st.run_tids then begin
      let bigger = Array.make (2 * st.run_len + 16) 0 in
      Array.blit st.run_tids 0 bigger 0 st.run_len;
      st.run_tids <- bigger
    end;
    st.run_tids.(st.run_len) <- tid;
    Hashtbl.replace st.run_pos tid st.run_len;
    st.run_len <- st.run_len + 1
  end

let run_remove st tid =
  match Hashtbl.find_opt st.run_pos tid with
  | None -> ()
  | Some i ->
      Hashtbl.remove st.run_pos tid;
      let last = st.run_len - 1 in
      if i < last then begin
        let moved = st.run_tids.(last) in
        st.run_tids.(i) <- moved;
        Hashtbl.replace st.run_pos moved i
      end;
      st.run_len <- last

(* {1 Rounds} *)

type sample = {
  mutable rounds : int;
  mutable degraded : int;
  mutable round_ms : float list;
  mutable placement_ms : float list;
  mutable ingest_ns : int;
  mutable events : int;
  mutable alloc_words : float;
  mutable phase_sum_ns : int;
  mutable wall_ns : int;
  winners : (string, int) Hashtbl.t;
}

let new_sample () =
  {
    rounds = 0;
    degraded = 0;
    round_ms = [];
    placement_ms = [];
    ingest_ns = 0;
    events = 0;
    alloc_words = 0.;
    phase_sum_ns = 0;
    wall_ns = 0;
    winners = Hashtbl.create 4;
  }

let winner_name = function
  | Mcmf.Race.Relaxation -> "relaxation"
  | Mcmf.Race.Cost_scaling -> "cost_scaling"
  | Mcmf.Race.Repair -> "repair"

(* Apply a round's placement diff to the ledger; [sample] (when given)
   receives one placement latency per started task. A preempted task
   waits for a slot again, so it is timed again from its preemption. *)
let absorb st (r : S.round) ~t_end ~sample =
  List.iter
    (fun (tid, _m) ->
      run_add st tid;
      match Hashtbl.find_opt st.waiting_since tid with
      | Some t_sub ->
          Hashtbl.remove st.waiting_since tid;
          (match sample with
          | Some s ->
              let ms = Out.ms_of_ns (t_end - t_sub) in
              s.placement_ms <- ms :: s.placement_ms;
              Out.span ~track:2 "task.wait" t_sub t_end ~args:[ ("task", Out.Int tid) ]
          | None -> ())
      | None -> ())
    r.S.started;
  List.iter
    (fun (tid, _, _) ->
      if not (Hashtbl.mem st.run_pos tid) then
        error st (Printf.sprintf "task %d migrated while not running" tid))
    r.S.migrated;
  List.iter
    (fun tid ->
      run_remove st tid;
      Hashtbl.replace st.waiting_since tid t_end)
    r.S.preempted

let submit_job st ~n ~i =
  let now = start_s +. float_of_int i in
  let machines = Cluster.Topology.machine_count (Cluster.State.topology st.cluster) in
  let jid = st.next_jid in
  st.next_jid <- jid + 1;
  let t_sub = Out.now_ns () in
  let tasks =
    Array.init n (fun _ ->
        let tid = st.next_tid in
        st.next_tid <- tid + 1;
        Hashtbl.replace st.waiting_since tid t_sub;
        W.make_task ~tid ~job:jid ~submit_time:now ~duration:120. ~input_mb:500.
          ~input_machines:(List.init 3 (fun _ -> Random.State.int st.rng machines))
          ~net_demand_mbps:(200 + Random.State.int st.rng 800)
          ())
  in
  st.submitted <- st.submitted + n;
  S.submit_job st.sched (W.make_job ~jid ~klass:Cluster.Types.Batch ~submit_time:now ~tasks)

let finish_random st ~n ~now =
  let k = min n st.run_len in
  for _ = 1 to k do
    let tid = st.run_tids.(Random.State.int st.rng st.run_len) in
    run_remove st tid;
    st.finished <- st.finished + 1;
    S.finish_task st.sched tid ~now
  done;
  k

(* The events fed before round [i]: [churn] of the live tasks finish and
   one job of the same size arrives. *)
let feed st ~i ~now =
  let n = max 1 (int_of_float (churn *. float_of_int st.run_len)) in
  let finished = finish_random st ~n ~now in
  submit_job st ~n ~i;
  finished + n

let round st ~i ~sample =
  let now = start_s +. float_of_int i in
  let t0 = Out.now_ns () in
  let events = feed st ~i ~now in
  let t1 = Out.now_ns () in
  let w0 = Gc.minor_words () in
  let r = S.schedule st.sched ~now in
  let t2 = Out.now_ns () in
  let w1 = Gc.minor_words () in
  absorb st r ~t_end:t2 ~sample;
  (match sample with
  | None -> ()
  | Some s ->
      s.rounds <- s.rounds + 1;
      if r.S.degraded <> `None then s.degraded <- s.degraded + 1;
      let ms = Out.ms_of_ns (t2 - t1) in
      s.round_ms <- ms :: s.round_ms;
      s.ingest_ns <- s.ingest_ns + (t1 - t0);
      s.events <- s.events + events;
      s.alloc_words <- s.alloc_words +. (w1 -. w0);
      (* The phases are timed inside [schedule] on the same clock, so
         their sum can fall short of its wall time but never exceed it. *)
      let psum = List.fold_left (fun a (_, ns) -> a + ns) 0 r.S.phase_ns in
      if psum > t2 - t1 then
        error st (Printf.sprintf "round %d: phases sum to %d ns > schedule wall %d ns" i psum (t2 - t1));
      s.phase_sum_ns <- s.phase_sum_ns + psum;
      s.wall_ns <- s.wall_ns + (t2 - t1);
      let w = winner_name r.S.winner in
      Hashtbl.replace s.winners w (1 + Option.value ~default:0 (Hashtbl.find_opt s.winners w));
      (* Spans: the round, its ingest and schedule halves, and the
         scheduler's own contiguous phases laid out inside schedule. *)
      Out.span ~track:1 "round" t0 t2 ~args:[ ("round", Out.Int i) ];
      Out.span ~track:1 "ingest" t0 t1 ~args:[ ("events", Out.Int events) ];
      Out.span ~track:1 "Scheduler.schedule" t1 t2
        ~args:[ ("winner", Out.Str w); ("started", Out.Int (List.length r.S.started)) ];
      ignore
        (List.fold_left
           (fun t (phase, ns) ->
             Out.span ~track:1 ("phase." ^ phase) t (t + ns);
             t + ns)
           t1 r.S.phase_ns));
  r

(* {1 Checks} *)

(* Hash of every live arc's flow, with the total cost: equal across runs
   of one seed exactly when the solver work was the same. *)
let fingerprint g =
  let h = ref 0 in
  G.iter_arcs g (fun a -> h := Hashtbl.hash (!h, a, G.flow g a));
  (Printf.sprintf "%08x" !h, G.total_cost g)

let check_state st ~where =
  let topo = Cluster.State.topology st.cluster in
  let slots = Cluster.Topology.slots_per_machine topo in
  let running = ref 0 in
  for m = 0 to Cluster.Topology.machine_count topo - 1 do
    let n = Cluster.State.running_count st.cluster m in
    if n > slots then error st (Printf.sprintf "%s: machine %d runs %d > %d slots" where m n slots);
    running := !running + n
  done;
  let waiting = Cluster.State.waiting_count st.cluster in
  if st.submitted <> !running + st.finished + waiting then
    error st
      (Printf.sprintf "%s: submitted %d <> running %d + finished %d + waiting %d" where
         st.submitted !running st.finished waiting);
  if !running <> st.run_len then
    error st (Printf.sprintf "%s: cluster runs %d tasks, ledger %d" where !running st.run_len)

(* One extra round after timing with the round observer installed: the
   certified solution must be feasible and reduced-cost optimal. *)
let check_round st ~i =
  let seen = ref false in
  S.set_round_observer st.sched
    (Some
       (fun _r _g ~certified ->
         match certified with
         | Some g ->
             seen := true;
             if not (Flowgraph.Validate.is_feasible g) then error st "certified graph infeasible";
             if not (Flowgraph.Validate.is_reduced_cost_optimal g) then
               error st "certified graph not reduced-cost optimal"
         | None -> ()));
  let r = round st ~i ~sample:None in
  S.set_round_observer st.sched None;
  if not !seen then
    error st (Format.asprintf "check round not certified (degraded %a)" S.pp_degraded r.S.degraded);
  check_state st ~where:"final"

(* {1 The worker} *)

let settle ~seed =
  let base = Cluster.Trace.default_params ~machines () in
  let trace =
    Cluster.Trace.generate { base with target_utilization = util; horizon_s = 0.; seed }
  in
  let cluster = Cluster.State.create trace.Cluster.Trace.topology in
  let sched = S.create ~config cluster ~policy in
  let st =
    {
      sched;
      cluster;
      rng = Random.State.make [| seed; 77 |];
      next_jid = 1_000_000;
      next_tid = 10_000_000;
      submitted = 0;
      finished = 0;
      run_tids = Array.make 1024 0;
      run_len = 0;
      run_pos = Hashtbl.create 65536;
      waiting_since = Hashtbl.create 4096;
      errors = [];
    }
  in
  (* The initial jobs arrive in batches of about [settle_batch] tasks with
     a round after each, as a cluster filling up would see them. *)
  let pending = ref 0 in
  let settle_round () =
    let r = S.schedule sched ~now:0. in
    absorb st r ~t_end:0 ~sample:None;
    pending := 0
  in
  List.iter
    (fun job ->
      let n = Array.length job.W.tasks in
      st.submitted <- st.submitted + n;
      S.submit_job sched (W.clone_job job);
      pending := !pending + n;
      if !pending >= settle_batch then settle_round ())
    trace.Cluster.Trace.initial_jobs;
  settle_round ();
  st

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let run ~seed ~seconds ~trace ~t_start ~snap_path =
  let st = settle ~seed in
  let fp_hash, fp_cost = fingerprint (Firmament.Flow_network.graph (S.network st.sched)) in
  let i = ref 0 in
  while !i < warmup_rounds do
    incr i;
    ignore (round st ~i:!i ~sample:None)
  done;
  let sample = new_sample () in
  let reg0 = Out.snapshot_registry () in
  let t_timed = Out.now_ns () in
  let setup_s = float_of_int (t_timed - t_start) *. 1e-9 in
  let budget_ns = int_of_float (seconds *. 1e9) in
  while Out.now_ns () - t_timed < budget_ns do
    incr i;
    Out.tracing := trace;
    ignore (round st ~i:!i ~sample:(Some sample))
  done;
  Out.tracing := false;
  let t_end = Out.now_ns () in
  let reg1 = Out.snapshot_registry () in
  (* The phases must account for the wall time of [schedule] measured
     here, up to the bookkeeping around them. *)
  let phase_frac = float_of_int sample.phase_sum_ns /. float_of_int (max 1 sample.wall_ns) in
  if phase_frac < min_phase_frac then
    error st
      (Printf.sprintf "scheduler phases cover %.3f of schedule wall time (< %.2f)" phase_frac
         min_phase_frac);
  (* Drain: rounds with no new events until every task is placed. *)
  let drained = ref 0 in
  while Hashtbl.length st.waiting_since > 0 && !drained < 50 do
    incr drained;
    incr i;
    let r = S.schedule st.sched ~now:(start_s +. float_of_int !i) in
    absorb st r ~t_end:(Out.now_ns ()) ~sample:(Some sample)
  done;
  let unplaced = Hashtbl.length st.waiting_since in
  if unplaced > 0 then error st (Printf.sprintf "%d tasks never placed" unplaced);
  incr i;
  check_round st ~i:!i;
  (* The run ends with one snapshot write, then repeated restores of it,
     each followed by its first round. *)
  let now = start_s +. float_of_int !i in
  let t_w0 = Unix.gettimeofday () in
  let w = Firmament.Snapshot.Writer.to_file ~path:snap_path st.sched ~now in
  Firmament.Snapshot.Writer.close w;
  let write_s = Unix.gettimeofday () -. t_w0 in
  let snap_mb = float_of_int (Unix.stat snap_path).Unix.st_size /. 1048576. in
  let live = Cluster.State.live_task_count st.cluster in
  let restores =
    List.init restore_count (fun _ ->
        Gc.compact ();
        let t0 = Unix.gettimeofday () in
        let { Firmament.Snapshot.scheduler; now = rnow } =
          Firmament.Snapshot.restore_file ~config ~policy snap_path
        in
        let t1 = Unix.gettimeofday () in
        let r = S.schedule scheduler ~now:rnow in
        let t2 = Unix.gettimeofday () in
        if Cluster.State.live_task_count (S.cluster scheduler) <> live then
          error st "restored scheduler lost tasks";
        if r.S.degraded <> `None then error st "first post-restore round degraded";
        (t2 -. t0, t1 -. t0, t2 -. t1))
  in
  Sys.remove snap_path;
  let snapshot_layers =
    [
      ("snapshot.write_s", Out.Num write_s);
      ("snapshot.mb", Out.Num snap_mb);
      ("restore.parse_s", Out.Num (median (List.map (fun (_, p, _) -> p) restores)));
      ("restore.first_round_ms", Out.Num (1e3 *. median (List.map (fun (_, _, f) -> f) restores)));
    ]
  in
  let events = max 1 sample.events in
  Out.Obj
    [
      ("setup_s", Out.Num setup_s);
      ("window_s", Out.Num (float_of_int (t_end - t_timed) *. 1e-9));
      ("round_ms", Out.Floats sample.round_ms);
      ("placement_ms", Out.Floats sample.placement_ms);
      ("recovery_s", Out.Floats (List.map (fun (a, _, _) -> a) restores));
      ("peak_rss_mb", Out.Num (Out.peak_rss_mb "self"));
      ("attempted", Out.Int (sample.rounds + st.submitted));
      ("failed", Out.Int (sample.degraded + unplaced));
      ("errors", Out.Arr (List.rev_map (fun e -> Out.Str e) st.errors));
      ("fingerprint", Out.Str (Printf.sprintf "%s/%d" fp_hash fp_cost));
      ( "winners",
        Out.Obj (Hashtbl.fold (fun k v acc -> (k, Out.Int v) :: acc) sample.winners []) );
      ( "layers",
        Out.Obj
          (Out.registry_layers reg0 reg1
          @ [
              ("sched.phase_sum_frac", Out.Num phase_frac);
              ( "ingest.events_per_round",
                Out.Num (float_of_int events /. float_of_int (max 1 sample.rounds)) );
              ( "ingest.us_per_event",
                Out.Num (float_of_int sample.ingest_ns *. 1e-3 /. float_of_int events) );
              ( "sched.alloc_kb",
                Out.Num (sample.alloc_words *. 8. /. 1024. /. float_of_int (max 1 sample.rounds)) );
            ]
          @ snapshot_layers) );
    ]
