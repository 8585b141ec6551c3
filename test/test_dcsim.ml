(* Tests for the simulation layer: statistics, the max-min network model,
   trace replay semantics, the testbed engine, and the baseline
   schedulers. *)

module W = Cluster.Workload

let checki msg = Alcotest.check Alcotest.int msg
let checkb msg = Alcotest.check Alcotest.bool msg
let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

(* {1 Stats} *)

let test_percentiles () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  checkf "median" 3. (Dcsim.Stats.percentile xs 50.);
  checkf "min" 1. (Dcsim.Stats.percentile xs 0.);
  checkf "max" 5. (Dcsim.Stats.percentile xs 100.);
  checkf "interpolated" 3.5 (Dcsim.Stats.percentile xs 62.5);
  checkf "mean" 3. (Dcsim.Stats.mean xs);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Dcsim.Stats.percentile [] 50.))

let test_cdf_monotone () =
  let xs = List.init 100 (fun i -> float_of_int ((i * 7919) mod 100)) in
  let cdf = Dcsim.Stats.cdf ~points:10 xs in
  checki "points" 11 (List.length cdf);
  let rec mono = function
    | (v1, p1) :: ((v2, p2) :: _ as rest) -> v1 <= v2 && p1 <= p2 && mono rest
    | _ -> true
  in
  checkb "monotone" true (mono cdf)

(* {1 Netsim} *)

let topo40 () = Cluster.Topology.make ~machines:40 ~machines_per_rack:40 ~slots_per_machine:8 ()

let test_netsim_single_flow_full_rate () =
  let net = Dcsim.Netsim.create (topo40 ()) in
  (* 1250 MB at 10 Gbps = 1 second. *)
  ignore (Dcsim.Netsim.start_transfer net ~src:0 ~dst:1 ~mb:1250. ~task:7 ());
  (match Dcsim.Netsim.next_completion_time net with
  | Some t -> checkb "eta 1s" true (abs_float (t -. 1.) < 1e-6)
  | None -> Alcotest.fail "no completion");
  let completions = Dcsim.Netsim.advance net 2. in
  Alcotest.(check (list (pair (float 1e-6) int))) "completion" [ (1., 7) ] completions

let test_netsim_fair_sharing () =
  let net = Dcsim.Netsim.create (topo40 ()) in
  (* Two flows into the same destination NIC share 10 G: 5 G each. *)
  ignore (Dcsim.Netsim.start_transfer net ~src:0 ~dst:2 ~mb:1250. ~task:1 ());
  ignore (Dcsim.Netsim.start_transfer net ~src:1 ~dst:2 ~mb:1250. ~task:2 ());
  (match Dcsim.Netsim.next_completion_time net with
  | Some t -> checkb "eta 2s (half rate)" true (abs_float (t -. 2.) < 1e-6)
  | None -> Alcotest.fail "no completion");
  checki "dst sees 10G" 10_000 (Dcsim.Netsim.used_mbps net 2)

let test_netsim_priority_preempts_batch () =
  let net = Dcsim.Netsim.create (topo40 ()) in
  ignore (Dcsim.Netsim.add_background net ~src:5 ~dst:3 ~mbps:8_000. ());
  ignore (Dcsim.Netsim.start_transfer net ~src:0 ~dst:3 ~mb:1000. ~task:1 ());
  (* Batch flow gets only the residual 2 Gbps: 1000 MB at 2 Gbps = 4 s. *)
  (match Dcsim.Netsim.next_completion_time net with
  | Some t -> checkb "slowed by background" true (abs_float (t -. 4.) < 1e-3)
  | None -> Alcotest.fail "no completion");
  checkb "dst load includes background" true (Dcsim.Netsim.used_mbps net 3 >= 9_999)

let test_netsim_rate_rises_when_flow_leaves () =
  let net = Dcsim.Netsim.create (topo40 ()) in
  ignore (Dcsim.Netsim.start_transfer net ~src:0 ~dst:2 ~mb:625. ~task:1 ());
  ignore (Dcsim.Netsim.start_transfer net ~src:1 ~dst:2 ~mb:6250. ~task:2 ());
  (* Flow 1 finishes at 1 s (5 Gbps); flow 2 then speeds to 10 Gbps and
     carries 625 MB at 5 Gbps already done, 5625 left -> +4.5 s. *)
  let completions = Dcsim.Netsim.advance net 10. in
  (match completions with
  | [ (t1, 1); (t2, 2) ] ->
      checkb "first" true (abs_float (t1 -. 1.) < 1e-3);
      checkb "second accelerates" true (abs_float (t2 -. 5.5) < 1e-2)
  | _ -> Alcotest.fail "expected two completions");
  checki "idle now" 0 (Dcsim.Netsim.active_flows net)

let test_netsim_cancel () =
  let net = Dcsim.Netsim.create (topo40 ()) in
  ignore (Dcsim.Netsim.start_transfer net ~src:0 ~dst:1 ~mb:100000. ~task:9 ());
  Dcsim.Netsim.cancel_task_transfers net 9;
  checki "cancelled" 0 (Dcsim.Netsim.active_flows net);
  checkb "no completion" true (Dcsim.Netsim.next_completion_time net = None)

let test_netsim_three_flow_maxmin () =
  (* Flows: A:0->1, B:0->2, C:3->1. Egress 0 carries A,B; ingress 1
     carries A,C. Max-min: every flow's bottleneck link has 2 claimants,
     so all get 5 Gbps. *)
  let net = Dcsim.Netsim.create (topo40 ()) in
  ignore (Dcsim.Netsim.start_transfer net ~src:0 ~dst:1 ~mb:10000. ~task:1 ());
  ignore (Dcsim.Netsim.start_transfer net ~src:0 ~dst:2 ~mb:10000. ~task:2 ());
  ignore (Dcsim.Netsim.start_transfer net ~src:3 ~dst:1 ~mb:10000. ~task:3 ());
  checki "egress 0 full" 10_000 (Dcsim.Netsim.used_mbps net 0);
  checki "ingress 1 full" 10_000 (Dcsim.Netsim.used_mbps net 1);
  (* Machine 2 sees only flow B at its max-min rate of 5 Gbps. *)
  checki "machine 2 at half" 5_000 (Dcsim.Netsim.used_mbps net 2)

let test_netsim_external_source () =
  (* src = None models traffic from outside the cluster: only the
     destination NIC constrains it. *)
  let net = Dcsim.Netsim.create (topo40 ()) in
  ignore (Dcsim.Netsim.add_background net ~dst:4 ~mbps:2_500. ());
  checki "ingress only" 2_500 (Dcsim.Netsim.used_mbps net 4);
  checki "no source machine affected" 0 (Dcsim.Netsim.used_mbps net 0)

let test_netsim_advance_backwards_rejected () =
  let net = Dcsim.Netsim.create (topo40 ()) in
  ignore (Dcsim.Netsim.advance net 5.);
  Alcotest.check_raises "backwards" (Invalid_argument "Netsim.advance: time going backwards")
    (fun () -> ignore (Dcsim.Netsim.advance net 1.))

(* {1 Replay} *)

let small_trace ?(machines = 20) ?(util = 0.5) ?(horizon = 20.) ?(seed = 11) () =
  Cluster.Trace.generate
    {
      (Cluster.Trace.default_params ~machines ()) with
      target_utilization = util;
      horizon_s = horizon;
      batch_task_median_s = 10.;
      seed;
    }

(* The replay figures' guard: only [Race] repairs, so a Quincy row
   (cost scaling from scratch) repairs no round of a replay, while the
   default mode repairs some. *)
let test_replay_only_race_repairs () =
  let repairs () =
    let reg = Telemetry.Metrics.global () in
    match Telemetry.Metrics.find reg "mcmf_race_wins_repair_total" with
    | Some id -> Telemetry.Metrics.value reg id
    | None -> 0
  in
  let repaired mode =
    let r0 = repairs () in
    let m =
      Dcsim.Replay.run
        {
          Dcsim.Replay.default_config with
          scheduler = { Firmament.Scheduler.default_config with mode };
          solver_time = `Fixed 0.01;
          max_rounds = Some 20;
        }
        (small_trace ())
    in
    checkb "rounds ran" true (m.Dcsim.Replay.rounds > 1);
    repairs () - r0
  in
  checki "quincy-cs repairs no round" 0 (repaired Mcmf.Race.Cost_scaling_scratch_only);
  checkb "race repairs" true (repaired Mcmf.Race.Race > 0)

let test_replay_places_all_and_finishes () =
  let trace = small_trace () in
  let cfg =
    { Dcsim.Replay.default_config with solver_time = `Fixed 0.01; max_sim_time = Some 400. }
  in
  let m = Dcsim.Replay.run cfg trace in
  (* Initial jobs are pre-placed in unmetered warm-up rounds; metrics
     cover the live replay only. *)
  checki "nothing left waiting" 0 m.Dcsim.Replay.unfinished_waiting;
  checkb "some batch tasks finished" true (List.length m.Dcsim.Replay.response_times > 0);
  checkb "latencies positive" true
    (List.for_all (fun l -> l >= 0.) m.Dcsim.Replay.placement_latencies)

let test_replay_fixed_solver_time_enters_latency () =
  (* With a fixed 1 s solver and an immediate workload, the first batch of
     placements must report >= 1 s of placement latency. *)
  let trace = small_trace ~horizon:0. () in
  let cfg =
    { Dcsim.Replay.default_config with solver_time = `Fixed 1.0; max_rounds = Some 5 }
  in
  let m = Dcsim.Replay.run cfg trace in
  checkb "latency includes solver runtime" true
    (List.for_all (fun l -> l >= 1.0 -. 1e-9) m.Dcsim.Replay.placement_latencies)

let test_replay_deterministic_with_fixed_solver () =
  let run () =
    let m =
      Dcsim.Replay.run
        { Dcsim.Replay.default_config with solver_time = `Fixed 0.02; max_sim_time = Some 200. }
        (small_trace ())
    in
    (m.Dcsim.Replay.tasks_placed, m.Dcsim.Replay.rounds, List.length m.Dcsim.Replay.response_times)
  in
  checkb "deterministic" true (run () = run ())

let test_replay_timeline_monotone () =
  let m =
    Dcsim.Replay.run
      { Dcsim.Replay.default_config with solver_time = `Fixed 0.01; max_sim_time = Some 100. }
      (small_trace ())
  in
  let rec mono = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && mono rest
    | _ -> true
  in
  checkb "timeline sorted" true (mono m.Dcsim.Replay.runtime_timeline)

let test_replay_measured_solver_time () =
  (* `Measured uses real wall-clock solve times: latencies are positive
     and the timeline matches round count. *)
  let m =
    Dcsim.Replay.run
      { Dcsim.Replay.default_config with max_sim_time = Some 100. }
      (small_trace ~machines:10 ())
  in
  checki "timeline = rounds" m.Dcsim.Replay.rounds
    (List.length m.Dcsim.Replay.runtime_timeline);
  checkb "runtimes positive" true
    (List.for_all (fun r -> r > 0.) m.Dcsim.Replay.algorithm_runtimes)

let test_replay_counts_preemptions () =
  (* A service job arriving on a full cluster forces preemptions, which
     replay must count and survive (epochs invalidate completions). *)
  let topology = Cluster.Topology.make ~machines:2 ~machines_per_rack:2 ~slots_per_machine:1 () in
  let batch_tasks =
    Array.init 2 (fun i -> W.make_task ~tid:i ~job:0 ~submit_time:0. ~duration:50. ())
  in
  let service_tasks =
    Array.init 1 (fun i -> W.make_task ~tid:(10 + i) ~job:1 ~submit_time:5. ~duration:1e6 ())
  in
  let trace =
    {
      Cluster.Trace.topology;
      initial_jobs = [ W.make_job ~jid:0 ~klass:Cluster.Types.Batch ~submit_time:0. ~tasks:batch_tasks ];
      arrivals =
        [ (5., W.make_job ~jid:1 ~klass:Cluster.Types.Service ~submit_time:5. ~tasks:service_tasks) ];
      machine_events = [];
      params = Cluster.Trace.default_params ~machines:2 ();
    }
  in
  let m =
    Dcsim.Replay.run
      { Dcsim.Replay.default_config with solver_time = `Fixed 0.01; max_sim_time = Some 200. }
      trace
  in
  checkb "preemption happened" true (m.Dcsim.Replay.preemptions >= 1)

let test_replay_times_restarts_from_preemption () =
  (* Two batch tasks fill both slots from t = 0 and a service job at
     t = 60 preempts: a task placed again after a preemption waited only
     since that preemption, so its earlier run must not count as
     placement latency. The expected latencies are rebuilt from the
     rounds the replay reports. *)
  let topology = Cluster.Topology.make ~machines:2 ~machines_per_rack:2 ~slots_per_machine:1 () in
  let batch_tasks =
    Array.init 2 (fun i -> W.make_task ~tid:i ~job:0 ~submit_time:0. ~duration:100. ())
  in
  let service_tasks = [| W.make_task ~tid:10 ~job:1 ~submit_time:60. ~duration:1e6 () |] in
  let trace =
    {
      Cluster.Trace.topology;
      initial_jobs = [ W.make_job ~jid:0 ~klass:Cluster.Types.Batch ~submit_time:0. ~tasks:batch_tasks ];
      arrivals =
        [ (60., W.make_job ~jid:1 ~klass:Cluster.Types.Service ~submit_time:60. ~tasks:service_tasks) ];
      machine_events = [];
      params = Cluster.Trace.default_params ~machines:2 ();
    }
  in
  let submitted tid = if tid = 10 then 60. else 0. in
  let preempted_at = Hashtbl.create 8 in
  let expected = ref [] and restarts = ref 0 in
  let on_round ~sim (r : Firmament.Scheduler.round) =
    List.iter
      (fun (tid, _) ->
        let since =
          match Hashtbl.find_opt preempted_at tid with
          | Some t ->
              Hashtbl.remove preempted_at tid;
              incr restarts;
              t
          | None -> submitted tid
        in
        expected := (sim -. since) :: !expected)
      r.Firmament.Scheduler.started;
    List.iter (fun tid -> Hashtbl.replace preempted_at tid sim) r.Firmament.Scheduler.preempted
  in
  let m =
    Dcsim.Replay.run_with
      ~config:{ Dcsim.Replay.default_config with solver_time = `Fixed 0.01; max_sim_time = Some 300. }
      ~trace ~on_round ()
  in
  checkb "a preempted task was placed again" true (!restarts > 0);
  Alcotest.(check (list (float 1e-9)))
    "latencies run from submission or the last preemption"
    (List.sort compare !expected)
    (List.sort compare m.Dcsim.Replay.placement_latencies)

let test_replay_times_restarts_from_machine_failure () =
  (* One slot, one task running from t = 0; its machine fails at t = 60
     and returns at t = 70. The re-placement waited from the failure:
     about 10 s, not the 70 s since its submission. *)
  let topology = Cluster.Topology.make ~machines:1 ~machines_per_rack:1 ~slots_per_machine:1 () in
  let tasks = [| W.make_task ~tid:0 ~job:0 ~submit_time:0. ~duration:100. () |] in
  let trace =
    {
      Cluster.Trace.topology;
      initial_jobs = [ W.make_job ~jid:0 ~klass:Cluster.Types.Batch ~submit_time:0. ~tasks ];
      arrivals = [];
      machine_events =
        [ (60., Cluster.Trace.Machine_fails 0); (70., Cluster.Trace.Machine_restores 0) ];
      params = Cluster.Trace.default_params ~machines:1 ();
    }
  in
  let m =
    Dcsim.Replay.run
      { Dcsim.Replay.default_config with solver_time = `Fixed 0.01; max_sim_time = Some 300. }
      trace
  in
  match m.Dcsim.Replay.placement_latencies with
  | [ l ] -> checkb (Printf.sprintf "timed from the failure (%.2f s)" l) true (l > 9.9 && l < 10.1)
  | ls -> Alcotest.failf "expected one re-placement, got %d" (List.length ls)

let test_replay_survives_machine_failures () =
  (* Failure injection: machines die and return mid-replay; victims are
     rescheduled and the replay still drains. *)
  let trace =
    Cluster.Trace.generate
      {
        (Cluster.Trace.default_params ~machines:10 ()) with
        target_utilization = 0.5;
        horizon_s = 20.;
        batch_task_median_s = 10.;
        machine_mtbf_s = 4.;
        machine_downtime_s = 5.;
        seed = 21;
      }
  in
  checkb "events generated" true (trace.Cluster.Trace.machine_events <> []);
  let m =
    Dcsim.Replay.run
      { Dcsim.Replay.default_config with solver_time = `Fixed 0.01; max_sim_time = Some 500. }
      trace
  in
  (* Victims of injected failures are re-placed during the metered run. *)
  checkb "failures forced rescheduling" true (m.Dcsim.Replay.tasks_placed > 0)

let test_replay_deadline_degrades_gracefully () =
  (* A zero round deadline stops every non-trivial solve at its first
     poll: the replay must keep going (no exception, no corrupted
     network), count the degraded rounds, and terminate. The job is big
     enough that its round cannot finish inside the clock resolution. *)
  let topology =
    Cluster.Topology.make ~machines:40 ~machines_per_rack:4 ~slots_per_machine:8 ()
  in
  let tasks =
    Array.init 200 (fun i -> W.make_task ~tid:i ~job:0 ~submit_time:1. ~duration:50. ())
  in
  let trace =
    {
      Cluster.Trace.topology;
      initial_jobs = [];
      arrivals = [ (1., W.make_job ~jid:0 ~klass:Cluster.Types.Batch ~submit_time:1. ~tasks) ];
      machine_events = [];
      params = Cluster.Trace.default_params ~machines:40 ();
    }
  in
  let m =
    Dcsim.Replay.run
      {
        Dcsim.Replay.default_config with
        scheduler = { Firmament.Scheduler.default_config with deadline = Some 0. };
        max_rounds = Some 10;
      }
      trace
  in
  checkb "rounds ran" true (m.Dcsim.Replay.rounds > 0);
  checkb "deadline rounds counted as partial" true (m.Dcsim.Replay.partial_rounds > 0);
  checki "ladder accounting consistent" m.Dcsim.Replay.degraded_rounds
    (m.Dcsim.Replay.partial_rounds + m.Dcsim.Replay.infeasible_retries
   + m.Dcsim.Replay.failed_rounds);
  checki "nothing committed by degraded rounds" 200 m.Dcsim.Replay.unfinished_waiting

let test_replay_generous_deadline_unaffected () =
  let trace = small_trace () in
  let m =
    Dcsim.Replay.run
      {
        Dcsim.Replay.default_config with
        scheduler = { Firmament.Scheduler.default_config with deadline = Some 30. };
        solver_time = `Fixed 0.01;
        max_sim_time = Some 400.;
      }
      trace
  in
  checki "no degraded rounds" 0 m.Dcsim.Replay.degraded_rounds;
  checki "nothing left waiting" 0 m.Dcsim.Replay.unfinished_waiting

(* {1 Workload builders} *)

let test_short_task_jobs_load () =
  let jobs =
    Dcsim.Workloads.short_task_jobs ~machines:100 ~slots:8 ~task_duration:1. ~tasks_per_job:10
      ~load:0.8 ~horizon:50. ~seed:3
  in
  checkb "nonempty" true (jobs <> []);
  let n_tasks = List.fold_left (fun acc (_, (j : W.job)) -> acc + Array.length j.W.tasks) 0 jobs in
  (* Expected: load * slots * horizon / duration = 0.8*800*50 = 32000 task-seconds /1s *)
  let expect = 32_000 in
  checkb "rate within 20%" true (abs (n_tasks - expect) < expect / 5)

let test_big_job_builder () =
  let j = Dcsim.Workloads.big_job ~jid:9 ~n_tasks:50 ~submit:3. ~duration:2. () in
  checki "tasks" 50 (Array.length j.W.tasks);
  checkb "tids unique" true
    (let ids = Array.to_list (Array.map (fun (t : W.task) -> t.W.tid) j.W.tasks) in
     List.length (List.sort_uniq compare ids) = 50)

(* {1 Baselines} *)

let mk_state machines slots =
  Cluster.State.create
    (Cluster.Topology.make ~machines ~machines_per_rack:40 ~slots_per_machine:slots ())

let dummy_task tid = W.make_task ~tid ~job:0 ~submit_time:0. ~duration:1. ()

let test_swarmkit_spreads () =
  let st = mk_state 4 4 in
  let b = Baselines.swarmkit () in
  let tasks = Array.init 8 (fun i -> dummy_task i) in
  Cluster.State.submit_job st (W.make_job ~jid:0 ~klass:Cluster.Types.Batch ~submit_time:0. ~tasks);
  Array.iter
    (fun (t : W.task) ->
      match b.Baselines.select st t with
      | Some m -> Cluster.State.place st t.W.tid m ~now:0.
      | None -> Alcotest.fail "no machine")
    tasks;
  for m = 0 to 3 do
    checki "even spread" 2 (Cluster.State.running_count st m)
  done

let test_baselines_respect_capacity () =
  List.iter
    (fun b ->
      let st = mk_state 2 1 in
      let tasks = Array.init 3 (fun i -> dummy_task i) in
      Cluster.State.submit_job st
        (W.make_job ~jid:0 ~klass:Cluster.Types.Batch ~submit_time:0. ~tasks);
      let placed = ref 0 in
      Array.iter
        (fun (t : W.task) ->
          match b.Baselines.select st t with
          | Some m when Cluster.State.free_slots_on st m > 0 ->
              Cluster.State.place st t.W.tid m ~now:0.;
              incr placed
          | Some _ -> checkb "only sparrow overbooks" true b.Baselines.worker_side_queue
          | None -> ())
        tasks;
      checkb (b.Baselines.name ^ " placed at most capacity") true (!placed <= 2))
    (Baselines.all ())

let test_baselines_avoid_dead_machines () =
  List.iter
    (fun b ->
      let st = mk_state 3 2 in
      ignore (Cluster.State.fail_machine st 1);
      let t = dummy_task 0 in
      Cluster.State.submit_job st
        (W.make_job ~jid:0 ~klass:Cluster.Types.Batch ~submit_time:0. ~tasks:[| t |]);
      for _ = 1 to 10 do
        match b.Baselines.select st t with
        | Some m -> checkb (b.Baselines.name ^ " avoids dead") true (m <> 1)
        | None -> ()
      done)
    (Baselines.all ())

(* {1 Testbed} *)

let test_testbed_isolation_baseline () =
  let topo = topo40 () in
  let arrivals = Dcsim.Workloads.testbed_short_batch ~machines:40 ~n_tasks:20 ~interarrival:5. ~seed:1 in
  let r = Dcsim.Testbed.run ~topology:topo ~arrivals ~background:[] Dcsim.Testbed.Isolation in
  checki "all finish" 20 r.Dcsim.Testbed.finished;
  (* 4-8 GB at 10G = 3.2-6.4s transfer + 3.5-5s compute. *)
  checkb "responses in range" true
    (List.for_all (fun t -> t > 6. && t < 12.) r.Dcsim.Testbed.response_times)

let test_testbed_baseline_runs () =
  let topo = topo40 () in
  let arrivals = Dcsim.Workloads.testbed_short_batch ~machines:40 ~n_tasks:30 ~interarrival:1. ~seed:2 in
  let r =
    Dcsim.Testbed.run ~topology:topo ~arrivals ~background:[]
      (Dcsim.Testbed.Baseline (Baselines.swarmkit ()))
  in
  checki "all finish" 30 r.Dcsim.Testbed.finished;
  checki "none stuck" 0 r.Dcsim.Testbed.unfinished

let test_testbed_firmament_beats_random_under_background () =
  let topo = topo40 () in
  let arrivals = Dcsim.Workloads.testbed_short_batch ~machines:40 ~n_tasks:40 ~interarrival:1.5 ~seed:3 in
  let background = Dcsim.Workloads.testbed_background ~machines:40 ~seed:4 in
  let p99 kind =
    let r = Dcsim.Testbed.run ~topology:topo ~arrivals ~background kind in
    checkb "finished most" true (r.Dcsim.Testbed.finished >= 35);
    Dcsim.Stats.percentile r.Dcsim.Testbed.response_times 90.
  in
  let firmament =
    p99
      (Dcsim.Testbed.Firmament
         (fun ~bandwidth_used ~drain net st ->
           Firmament.Policy_network_aware.make ~bandwidth_used ~drain net st))
  in
  let rand = p99 (Dcsim.Testbed.Baseline (Baselines.random ~seed:9 ())) in
  checkb "network-aware tail better than random" true (firmament <= rand)

(* {1 Property tests} *)

let prop_percentile_bounded_and_monotone =
  QCheck.Test.make ~name:"percentile stays within sample bounds, monotone in p"
    ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (float_range 0. 1e6))
        (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let lo = List.fold_left min infinity xs in
      let hi = List.fold_left max neg_infinity xs in
      let p_lo = min p1 p2 and p_hi = max p1 p2 in
      let v_lo = Dcsim.Stats.percentile xs p_lo in
      let v_hi = Dcsim.Stats.percentile xs p_hi in
      lo <= v_lo && v_lo <= v_hi && v_hi <= hi)

let prop_churn_trace_roundtrip =
  QCheck.Test.make ~name:"churn traces serialize losslessly" ~count:100
    QCheck.(pair (int_bound 10_000) (int_range 1 120))
    (fun (seed, length) ->
      let t = Dcsim.Churn.generate ~seed ~machines:6 ~length in
      List.length t = length
      && Dcsim.Churn.of_lines (Dcsim.Churn.to_lines t) = t
      (* Same seed must regenerate the same trace: replayability of the
         fuzz driver's seed lists depends on it. *)
      && Dcsim.Churn.generate ~seed ~machines:6 ~length = t)

let prop_netsim_transfer_completes =
  QCheck.Test.make ~name:"a lone transfer finishes at exactly link rate"
    ~count:50
    QCheck.(pair (int_range 1 1000) (int_range 1 8))
    (fun (mb, dst) ->
      let net = Dcsim.Netsim.create (topo40 ()) in
      let mb = float_of_int mb in
      ignore (Dcsim.Netsim.start_transfer net ~src:0 ~dst ~mb ~task:1 ());
      (* 10 Gb/s = 1250 MB/s; after the exact transfer time (plus float
         slack) the flow must be gone and the completion reported. *)
      let horizon = (mb /. 1250.) +. 1e-9 in
      match Dcsim.Netsim.advance net horizon with
      | [ (_, 1) ] -> Dcsim.Netsim.active_flows net = 0
      | _ -> false)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "dcsim"
    [
      ( "stats",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "cdf monotone" `Quick test_cdf_monotone;
        ] );
      ( "properties",
        qcheck
          [
            prop_percentile_bounded_and_monotone;
            prop_churn_trace_roundtrip;
            prop_netsim_transfer_completes;
          ] );
      ( "netsim",
        [
          Alcotest.test_case "single flow full rate" `Quick test_netsim_single_flow_full_rate;
          Alcotest.test_case "fair sharing" `Quick test_netsim_fair_sharing;
          Alcotest.test_case "priority preempts batch" `Quick test_netsim_priority_preempts_batch;
          Alcotest.test_case "rate rises when flow leaves" `Quick
            test_netsim_rate_rises_when_flow_leaves;
          Alcotest.test_case "cancel" `Quick test_netsim_cancel;
          Alcotest.test_case "three-flow max-min" `Quick test_netsim_three_flow_maxmin;
          Alcotest.test_case "external source" `Quick test_netsim_external_source;
          Alcotest.test_case "time monotonicity" `Quick test_netsim_advance_backwards_rejected;
        ] );
      ( "replay",
        [
          Alcotest.test_case "measured solver time" `Quick test_replay_measured_solver_time;
          Alcotest.test_case "counts preemptions" `Quick test_replay_counts_preemptions;
          Alcotest.test_case "restart timed from its preemption" `Quick
            test_replay_times_restarts_from_preemption;
          Alcotest.test_case "restart timed from its machine failure" `Quick
            test_replay_times_restarts_from_machine_failure;
          Alcotest.test_case "survives machine failures" `Quick
            test_replay_survives_machine_failures;
          Alcotest.test_case "places all and finishes" `Quick test_replay_places_all_and_finishes;
          Alcotest.test_case "only race mode repairs" `Quick test_replay_only_race_repairs;
          Alcotest.test_case "solver time enters latency" `Quick
            test_replay_fixed_solver_time_enters_latency;
          Alcotest.test_case "deterministic with fixed solver" `Quick
            test_replay_deterministic_with_fixed_solver;
          Alcotest.test_case "timeline monotone" `Quick test_replay_timeline_monotone;
          Alcotest.test_case "deadline degrades gracefully" `Quick
            test_replay_deadline_degrades_gracefully;
          Alcotest.test_case "generous deadline unaffected" `Quick
            test_replay_generous_deadline_unaffected;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "short-task jobs load" `Quick test_short_task_jobs_load;
          Alcotest.test_case "big job builder" `Quick test_big_job_builder;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "swarmkit spreads" `Quick test_swarmkit_spreads;
          Alcotest.test_case "respect capacity" `Quick test_baselines_respect_capacity;
          Alcotest.test_case "avoid dead machines" `Quick test_baselines_avoid_dead_machines;
        ] );
      ( "testbed",
        [
          Alcotest.test_case "isolation baseline" `Quick test_testbed_isolation_baseline;
          Alcotest.test_case "baseline engine runs" `Quick test_testbed_baseline_runs;
          Alcotest.test_case "network-aware beats random under load" `Slow
            test_testbed_firmament_beats_random_under_background;
        ] );
    ]
