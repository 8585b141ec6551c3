(* Tests for the cluster substrate: topology, workload lifecycle, event
   queue, state accounting, and the synthetic trace generator's calibrated
   distributions. *)

module W = Cluster.Workload
module T = Cluster.Types

let checki msg = Alcotest.check Alcotest.int msg
let checkb msg = Alcotest.check Alcotest.bool msg
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* {1 Topology} *)

let test_topology_shape () =
  let t = Cluster.Topology.make ~machines:100 ~machines_per_rack:40 ~slots_per_machine:12 () in
  checki "machines" 100 (Cluster.Topology.machine_count t);
  checki "racks" 3 (Cluster.Topology.rack_count t);
  checki "slots" 1200 (Cluster.Topology.total_slots t);
  checki "rack of 0" 0 (Cluster.Topology.rack_of t 0);
  checki "rack of 39" 0 (Cluster.Topology.rack_of t 39);
  checki "rack of 40" 1 (Cluster.Topology.rack_of t 40);
  checki "last rack size" 20 (List.length (Cluster.Topology.machines_in_rack t 2));
  Alcotest.check_raises "bad machine" (Invalid_argument "Topology.machine: bad id") (fun () ->
      ignore (Cluster.Topology.machine t 100));
  Alcotest.check_raises "bad params" (Invalid_argument "Topology.make: non-positive parameter")
    (fun () -> ignore (Cluster.Topology.make ~machines:0 ~machines_per_rack:1 ~slots_per_machine:1 ()))

(* {1 Workload lifecycle} *)

let test_task_lifecycle () =
  let t = W.make_task ~tid:1 ~job:0 ~submit_time:10. ~duration:5. () in
  checkb "waiting" true (W.is_waiting t);
  W.start t ~machine:3 ~now:12.;
  checkb "running" true (W.is_running t);
  checkb "machine" true (W.machine_of t = Some 3);
  checkf "placement latency" 2. t.W.placement_latency;
  W.finish t ~now:17.;
  (match t.W.state with
  | T.Finished { response_time } -> checkf "response" 7. response_time
  | _ -> Alcotest.fail "not finished");
  Alcotest.check_raises "double finish" (Invalid_argument "Workload.finish: task not running")
    (fun () -> W.finish t ~now:18.)

let test_task_preempt_keeps_first_latency () =
  let t = W.make_task ~tid:1 ~job:0 ~submit_time:0. ~duration:5. () in
  W.start t ~machine:0 ~now:1.;
  W.preempt t;
  checkb "waiting again" true (W.is_waiting t);
  W.start t ~machine:1 ~now:9.;
  checkf "placement latency is first placement's" 1. t.W.placement_latency

(* {1 Event queue} *)

let test_event_queue_ordering () =
  let q = Cluster.Event_queue.create () in
  Cluster.Event_queue.add q ~time:3. "c";
  Cluster.Event_queue.add q ~time:1. "a";
  Cluster.Event_queue.add q ~time:2. "b";
  Cluster.Event_queue.add q ~time:1. "a2";
  (* FIFO among equal timestamps *)
  let order = List.init 4 (fun _ -> snd (Cluster.Event_queue.pop q)) in
  Alcotest.(check (list string)) "order" [ "a"; "a2"; "b"; "c" ] order;
  checkb "empty" true (Cluster.Event_queue.is_empty q)

let test_event_queue_pop_until () =
  let q = Cluster.Event_queue.create () in
  List.iter (fun t -> Cluster.Event_queue.add q ~time:t t) [ 5.; 1.; 3.; 8. ];
  let early = Cluster.Event_queue.pop_until q 4. in
  Alcotest.(check (list (float 1e-9))) "early" [ 1.; 3. ] (List.map fst early);
  checki "left" 2 (Cluster.Event_queue.length q);
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.add: NaN time") (fun () ->
      Cluster.Event_queue.add q ~time:Float.nan 0.)

let prop_event_queue_sorted =
  QCheck.Test.make ~name:"event queue pops in time order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) (float_bound_inclusive 1000.))
    (fun times ->
      let q = Cluster.Event_queue.create () in
      List.iter (fun t -> Cluster.Event_queue.add q ~time:t ()) times;
      let rec drain last =
        if Cluster.Event_queue.is_empty q then true
        else begin
          let t, () = Cluster.Event_queue.pop q in
          t >= last && drain t
        end
      in
      drain neg_infinity)

(* {1 State} *)

let mk_state () =
  Cluster.State.create
    (Cluster.Topology.make ~machines:4 ~machines_per_rack:2 ~slots_per_machine:2 ())

let submit_simple st ~jid ~n =
  let tasks =
    Array.init n (fun i -> W.make_task ~tid:((jid * 100) + i) ~job:jid ~submit_time:0. ~duration:10. ())
  in
  Cluster.State.submit_job st (W.make_job ~jid ~klass:T.Batch ~submit_time:0. ~tasks)

let test_state_slot_accounting () =
  let st = mk_state () in
  submit_simple st ~jid:0 ~n:3;
  checki "waiting" 3 (Cluster.State.waiting_count st);
  checki "live" 3 (Cluster.State.live_task_count st);
  Cluster.State.place st 0 0 ~now:1.;
  Cluster.State.place st 1 0 ~now:1.;
  checki "machine 0 full" 0 (Cluster.State.free_slots_on st 0);
  Alcotest.check_raises "overplace"
    (Invalid_argument "State.place: machine 0 has no free slot") (fun () ->
      Cluster.State.place st 2 0 ~now:1.);
  Cluster.State.finish st 0 ~now:2.;
  checki "slot freed" 1 (Cluster.State.free_slots_on st 0);
  checki "live after finish" 2 (Cluster.State.live_task_count st);
  checkb "utilization" true (abs_float (Cluster.State.utilization st -. (1. /. 8.)) < 1e-9)

let test_state_preempt_returns_to_queue () =
  let st = mk_state () in
  submit_simple st ~jid:0 ~n:1;
  Cluster.State.place st 0 1 ~now:0.;
  checki "no waiting" 0 (Cluster.State.waiting_count st);
  Cluster.State.preempt st 0;
  checki "waiting again" 1 (Cluster.State.waiting_count st);
  checki "machine emptied" 0 (Cluster.State.running_count st 1);
  (* Waiting order: preempted task re-queues at the back. *)
  submit_simple st ~jid:1 ~n:1;
  let order = List.map (fun (t : W.task) -> t.W.tid) (Cluster.State.waiting_tasks st) in
  Alcotest.(check (list int)) "order" [ 0; 100 ] order

let test_state_machine_failure () =
  let st = mk_state () in
  submit_simple st ~jid:0 ~n:2;
  Cluster.State.place st 0 0 ~now:0.;
  Cluster.State.place st 1 0 ~now:0.;
  let victims = List.sort compare (Cluster.State.fail_machine st 0) in
  Alcotest.(check (list int)) "victims" [ 0; 1 ] victims;
  checkb "dead" false (Cluster.State.machine_is_live st 0);
  checki "free slots on dead machine" 0 (Cluster.State.free_slots_on st 0);
  checki "waiting" 2 (Cluster.State.waiting_count st);
  Cluster.State.restore_machine st 0;
  checkb "alive" true (Cluster.State.machine_is_live st 0);
  checki "capacity back" 2 (Cluster.State.free_slots_on st 0)

let test_state_duplicate_job_rejected () =
  let st = mk_state () in
  submit_simple st ~jid:0 ~n:1;
  Alcotest.check_raises "duplicate" (Invalid_argument "State.submit_job: duplicate job 0")
    (fun () -> submit_simple st ~jid:0 ~n:1)

(* The state holds the live cluster only: a finished task leaves, a job
   leaves with its last live task, and neither iterator visits them. *)
let test_state_retires_finished () =
  let st = mk_state () in
  submit_simple st ~jid:0 ~n:2;
  submit_simple st ~jid:1 ~n:1;
  Cluster.State.place st 0 0 ~now:1.;
  Cluster.State.place st 1 1 ~now:1.;
  let t0 = Cluster.State.task st 0 in
  Cluster.State.finish st 0 ~now:3.;
  checkb "finished task is gone" true (Cluster.State.task_opt st 0 = None);
  (match t0.W.state with
  | T.Finished { response_time } -> checkf "record keeps its response time" 3. response_time
  | s -> Alcotest.failf "finished task reads %a" T.pp_task_state s);
  checkb "job stays while a task is live" true (Cluster.State.job_opt st 0 <> None);
  checki "job record pins no task" 0 (Array.length (Cluster.State.job st 0).W.tasks);
  Cluster.State.finish st 1 ~now:4.;
  checkb "job leaves with its last live task" true (Cluster.State.job_opt st 0 = None);
  let jobs = ref [] and tasks = ref [] in
  Cluster.State.iter_jobs st (fun j -> jobs := j.W.jid :: !jobs);
  Cluster.State.iter_tasks st (fun t -> tasks := t.W.tid :: !tasks);
  Alcotest.(check (list int)) "iter_jobs visits only live jobs" [ 1 ] !jobs;
  Alcotest.(check (list int)) "iter_tasks visits only live tasks" [ 100 ] !tasks;
  checki "live" 1 (Cluster.State.live_task_count st);
  checki "slots freed" 2 (Cluster.State.free_slots_on st 0);
  (* A snapshot reader's finish retires the same way. *)
  Cluster.State.restore_finished st 100 ~response_time:2.;
  checkb "restored-finished job leaves" true (Cluster.State.job_opt st 1 = None);
  checki "nothing live" 0 (Cluster.State.live_task_count st);
  checki "nothing waiting" 0 (Cluster.State.waiting_count st);
  (* A retired job's id is free again. *)
  submit_simple st ~jid:0 ~n:1;
  checki "resubmitted" 1 (Cluster.State.live_task_count st);
  (* A job without tasks has nothing live, so it is not kept. *)
  Cluster.State.submit_job st (W.make_job ~jid:7 ~klass:T.Batch ~submit_time:0. ~tasks:[||]);
  checkb "empty job not kept" true (Cluster.State.job_opt st 7 = None)

(* {1 Trace generator} *)

let test_trace_steady_state_size () =
  let p =
    { (Cluster.Trace.default_params ~machines:500 ()) with target_utilization = 0.5; horizon_s = 0. }
  in
  let tr = Cluster.Trace.generate p in
  let total = List.fold_left (fun acc (j : W.job) -> acc + Array.length j.W.tasks) 0 tr.Cluster.Trace.initial_jobs in
  let expect = Cluster.Trace.steady_state_tasks p in
  checkb "within 2% of target"
    true
    (abs (total - expect) <= max 2 (expect / 50))

let test_trace_heavy_tail () =
  let sizes = Cluster.Trace.job_size_sample ~seed:7 50_000 in
  let big = Array.fold_left (fun acc s -> if s > 1000 then acc + 1 else acc) 0 sizes in
  let frac = float_of_int big /. 50_000. in
  (* Paper: 1.2% of jobs have over 1,000 tasks. *)
  checkb "tail fraction near 1.2%" true (frac > 0.006 && frac < 0.02);
  checkb "max beyond 20k possible" true (Array.fold_left max 0 sizes > 2_000)

let test_trace_deterministic () =
  let p = { (Cluster.Trace.default_params ~machines:100 ()) with horizon_s = 100. } in
  let t1 = Cluster.Trace.generate p and t2 = Cluster.Trace.generate p in
  checki "same jobs" (List.length t1.Cluster.Trace.initial_jobs)
    (List.length t2.Cluster.Trace.initial_jobs);
  checki "same arrivals" (List.length t1.Cluster.Trace.arrivals)
    (List.length t2.Cluster.Trace.arrivals);
  let sig_of tr =
    List.map
      (fun (t, (j : W.job)) -> (t, j.W.jid, Array.length j.W.tasks))
      tr.Cluster.Trace.arrivals
  in
  checkb "identical streams" true (sig_of t1 = sig_of t2)

let test_trace_speedup_shrinks_durations () =
  let base = { (Cluster.Trace.default_params ~machines:200 ()) with horizon_s = 0.; seed = 3 } in
  let fast = { base with speedup = 10. } in
  let median_batch tr =
    let ds = ref [] in
    List.iter
      (fun (j : W.job) ->
        if j.W.klass = T.Batch then
          Array.iter (fun (t : W.task) -> ds := t.W.duration :: !ds) j.W.tasks)
      tr.Cluster.Trace.initial_jobs;
    let a = Array.of_list !ds in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let m1 = median_batch (Cluster.Trace.generate base) in
  let m10 = median_batch (Cluster.Trace.generate fast) in
  checkb "10x speedup shrinks durations roughly 10x" true (m10 < m1 /. 4.)

let test_trace_arrivals_sorted_and_within_horizon () =
  let p = { (Cluster.Trace.default_params ~machines:2000 ()) with horizon_s = 50. } in
  let tr = Cluster.Trace.generate p in
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  checkb "sorted" true (sorted tr.Cluster.Trace.arrivals);
  checkb "in horizon" true (List.for_all (fun (t, _) -> t <= 50.) tr.Cluster.Trace.arrivals);
  checkb "locality present" true
    (List.for_all
       (fun (j : W.job) ->
         Array.for_all (fun (t : W.task) -> t.W.input_machines <> []) j.W.tasks)
       tr.Cluster.Trace.initial_jobs)

let test_trace_block_placements_span_threshold () =
  (* Locality fractions must straddle the Quincy thresholds: some machines
     hold >= 14% of a task's blocks, while large inputs scatter blocks so
     other holders sit between 2% and 14% (what Fig. 15 sweeps). *)
  let p = { (Cluster.Trace.default_params ~machines:400 ()) with horizon_s = 0.; seed = 5 } in
  let tr = Cluster.Trace.generate p in
  let concentrated = ref 0 and fine_grained = ref 0 and tasks = ref 0 in
  List.iter
    (fun (j : W.job) ->
      Array.iter
        (fun (t : W.task) ->
          if t.W.input_mb > 2000. then begin
            incr tasks;
            let total = float_of_int (List.length t.W.input_machines) in
            let counts = Hashtbl.create 8 in
            List.iter
              (fun m ->
                Hashtbl.replace counts m (1 + Option.value ~default:0 (Hashtbl.find_opt counts m)))
              t.W.input_machines;
            Hashtbl.iter
              (fun _ c ->
                let frac = float_of_int c /. total in
                if frac >= 0.14 then incr concentrated
                else if frac >= 0.02 then incr fine_grained)
              counts
          end)
        j.W.tasks)
    tr.Cluster.Trace.initial_jobs;
  checkb "has big-input tasks" true (!tasks > 10);
  checkb "some concentrated holders" true (!concentrated > 0);
  checkb "some fine-grained holders" true (!fine_grained > 0)

let test_trace_failure_injection_off_by_default () =
  let p = { (Cluster.Trace.default_params ~machines:50 ()) with horizon_s = 50. } in
  let tr = Cluster.Trace.generate p in
  checkb "no machine events" true (tr.Cluster.Trace.machine_events = [])

let test_trace_failure_events_paired () =
  let p =
    { (Cluster.Trace.default_params ~machines:50 ()) with
      horizon_s = 100.; machine_mtbf_s = 10.; machine_downtime_s = 7. }
  in
  let tr = Cluster.Trace.generate p in
  let fails =
    List.filter (fun (_, e) -> match e with Cluster.Trace.Machine_fails _ -> true | _ -> false)
      tr.Cluster.Trace.machine_events
  in
  let restores =
    List.filter
      (fun (_, e) -> match e with Cluster.Trace.Machine_restores _ -> true | _ -> false)
      tr.Cluster.Trace.machine_events
  in
  checkb "some failures" true (List.length fails > 0);
  checki "every failure has a restore" (List.length fails) (List.length restores);
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  checkb "sorted" true (sorted tr.Cluster.Trace.machine_events)

(* {1 Resources} *)

module R = Cluster.Resources

let test_resources_arithmetic () =
  let a = R.make ~cpu_milli:500 ~ram_mb:1024 () in
  let b = R.make ~cpu_milli:700 ~ram_mb:512 ~disk_mb:10 () in
  let s = R.add a b in
  checki "cpu adds" 1200 s.R.cpu_milli;
  checki "ram adds" 1536 s.R.ram_mb;
  let d = R.sub a b in
  checki "sub clamps at zero" 0 d.R.cpu_milli;
  checki "sub" 512 d.R.ram_mb;
  checkb "fits itself" true (R.fits ~request:a ~available:a);
  checkb "does not fit smaller" false (R.fits ~request:s ~available:a);
  checki "scale" 2400 (R.scale s 2).R.cpu_milli

let test_resources_dominant_share () =
  let cap = R.make ~cpu_milli:1000 ~ram_mb:1000 ~disk_mb:1000 () in
  let req = R.make ~cpu_milli:100 ~ram_mb:500 ~disk_mb:10 () in
  checkb "dominant is ram" true (abs_float (R.dominant_share ~request:req ~capacity:cap -. 0.5) < 1e-9);
  checkb "zero capacity" true (R.dominant_share ~request:req ~capacity:R.zero = 0.)

let test_state_multidimensional_fit () =
  (* A RAM-hungry task must not fit a machine already hosting another
     RAM-hungry task, even though a slot is free. *)
  let topo =
    Cluster.Topology.make ~machines:1 ~machines_per_rack:1 ~slots_per_machine:4
      ~resources_per_slot:(R.make ~cpu_milli:1000 ~ram_mb:1000 ())
      ()
  in
  let st = Cluster.State.create topo in
  let hungry tid =
    W.make_task ~tid ~job:0 ~submit_time:0. ~duration:10.
      ~request:(R.make ~cpu_milli:100 ~ram_mb:3000 ())
      ()
  in
  let tasks = [| hungry 0; hungry 1 |] in
  Cluster.State.submit_job st (W.make_job ~jid:0 ~klass:T.Batch ~submit_time:0. ~tasks);
  checkb "first fits" true (Cluster.State.fits_on st 0 tasks.(0));
  Cluster.State.place st 0 0 ~now:0.;
  checki "slots remain" 3 (Cluster.State.free_slots_on st 0);
  checkb "second blocked by RAM" false (Cluster.State.fits_on st 0 tasks.(1));
  checki "used ram accounted" 3000 (Cluster.State.used_resources st 0).R.ram_mb

let test_baselines_respect_resources () =
  (* Two machines; machine 0 is RAM-saturated: every baseline must route a
     RAM-hungry task to machine 1. *)
  let topo =
    Cluster.Topology.make ~machines:2 ~machines_per_rack:2 ~slots_per_machine:4
      ~resources_per_slot:(R.make ~cpu_milli:1000 ~ram_mb:1000 ())
      ()
  in
  let st = Cluster.State.create topo in
  let hungry tid =
    W.make_task ~tid ~job:0 ~submit_time:0. ~duration:10.
      ~request:(R.make ~cpu_milli:100 ~ram_mb:3500 ())
      ()
  in
  let tasks = Array.init 3 (fun i -> hungry i) in
  Cluster.State.submit_job st (W.make_job ~jid:0 ~klass:T.Batch ~submit_time:0. ~tasks);
  Cluster.State.place st 0 0 ~now:0.;
  List.iter
    (fun b ->
      (* Mesos only sees a rotating window of offers: allow a few calls. *)
      let rec try_select n =
        match b.Baselines.select st tasks.(1) with
        | Some m -> checkb (b.Baselines.name ^ " avoids saturated machine") true (m = 1)
        | None when n > 0 -> try_select (n - 1)
        | None -> Alcotest.fail (b.Baselines.name ^ " found no machine")
      in
      try_select 4)
    (List.filter (fun b -> not b.Baselines.worker_side_queue) (Baselines.all ()))

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "cluster"
    [
      ("topology", [ Alcotest.test_case "shape" `Quick test_topology_shape ]);
      ( "workload",
        [
          Alcotest.test_case "lifecycle" `Quick test_task_lifecycle;
          Alcotest.test_case "preempt keeps first latency" `Quick
            test_task_preempt_keeps_first_latency;
        ] );
      ( "event-queue",
        Alcotest.test_case "ordering" `Quick test_event_queue_ordering
        :: Alcotest.test_case "pop_until" `Quick test_event_queue_pop_until
        :: qcheck [ prop_event_queue_sorted ] );
      ( "state",
        [
          Alcotest.test_case "slot accounting" `Quick test_state_slot_accounting;
          Alcotest.test_case "preempt returns to queue" `Quick test_state_preempt_returns_to_queue;
          Alcotest.test_case "machine failure" `Quick test_state_machine_failure;
          Alcotest.test_case "duplicate job rejected" `Quick test_state_duplicate_job_rejected;
          Alcotest.test_case "finished tasks and jobs retire" `Quick
            test_state_retires_finished;
        ] );
      ( "resources",
        [
          Alcotest.test_case "arithmetic" `Quick test_resources_arithmetic;
          Alcotest.test_case "dominant share" `Quick test_resources_dominant_share;
          Alcotest.test_case "multi-dimensional fit" `Quick test_state_multidimensional_fit;
          Alcotest.test_case "baselines respect resources" `Quick test_baselines_respect_resources;
        ] );
      ( "trace",
        [
          Alcotest.test_case "steady-state size" `Quick test_trace_steady_state_size;
          Alcotest.test_case "heavy-tailed job sizes" `Quick test_trace_heavy_tail;
          Alcotest.test_case "deterministic" `Quick test_trace_deterministic;
          Alcotest.test_case "speedup shrinks durations" `Quick test_trace_speedup_shrinks_durations;
          Alcotest.test_case "arrivals sorted, locality present" `Quick
            test_trace_arrivals_sorted_and_within_horizon;
          Alcotest.test_case "block placements span thresholds" `Quick
            test_trace_block_placements_span_threshold;
          Alcotest.test_case "failure injection off by default" `Quick
            test_trace_failure_injection_off_by_default;
          Alcotest.test_case "failure events paired and sorted" `Quick
            test_trace_failure_events_paired;
        ] );
    ]
