module W = Cluster.Workload

(* Telemetry ids, registered once at module init. *)
let m = Telemetry.Metrics.global ()

let m_rounds =
  Telemetry.Metrics.counter m ~help:"metered replay rounds driven"
    "dcsim_rounds_total"

let m_warmup =
  Telemetry.Metrics.counter m ~help:"unmetered warm-up rounds at replay start"
    "dcsim_warmup_rounds_total"

let m_events_applied =
  Telemetry.Metrics.counter m ~help:"trace events applied" "dcsim_events_applied_total"

let m_events_stale =
  Telemetry.Metrics.counter m
    ~help:"trace events dropped as stale (epoch mismatch, dead machine)"
    "dcsim_events_stale_total"

let m_idle_jumps =
  Telemetry.Metrics.counter m
    ~help:"times the replay fast-forwarded to the next event"
    "dcsim_idle_jumps_total"

type config = {
  scheduler : Firmament.Scheduler.config;
  policy : Firmament.Policy.factory;
  solver_time : [ `Measured | `Fixed of float ];
  max_sim_time : float option;
  max_rounds : int option;
}

let default_config =
  {
    scheduler = Firmament.Scheduler.default_config;
    policy = (fun ~drain net st -> Firmament.Policy_quincy.make ~drain net st);
    solver_time = `Measured;
    max_sim_time = None;
    max_rounds = None;
  }

type metrics = {
  placement_latencies : float list;
  response_times : float list;
  job_response_times : float list;
  algorithm_runtimes : float list;
  runtime_timeline : (float * float) list;
  rounds : int;
  degraded_rounds : int;
  partial_rounds : int;
  infeasible_retries : int;
  failed_rounds : int;
  sim_end : float;
  tasks_placed : int;
  preemptions : int;
  migrations : int;
  unfinished_waiting : int;
  structure_violations : int;
}

type event =
  | Job_submit of W.job
  | Task_finish of Cluster.Types.task_id * int  (* epoch *)
  | Machine_event of Cluster.Trace.machine_event

let run_with ?(config = default_config) ?restore_snapshot ?snapshot_out ~trace
    ~on_round () =
  (* [restore_snapshot] resumes a previous run: the snapshot's cluster and
     warm-started graph replace the fresh ones, simulated time resumes at
     the recorded clock, and trace arrivals whose job the snapshot already
     carries are skipped as already-applied — so replaying the same seed
     over a longer horizon continues where the snapshotted run stopped. *)
  let sched, sim0 =
    match restore_snapshot with
    | Some path ->
        let { Firmament.Snapshot.scheduler; now } =
          Firmament.Snapshot.restore_file ~config:config.scheduler
            ~policy:config.policy path
        in
        (scheduler, now)
    | None ->
        let cluster = Cluster.State.create trace.Cluster.Trace.topology in
        ( Firmament.Scheduler.create ~config:config.scheduler cluster
            ~policy:config.policy,
          0. )
  in
  let cluster = Firmament.Scheduler.cluster sched in
  let restored_jids = Hashtbl.create 64 in
  if restore_snapshot <> None then
    Cluster.State.iter_jobs cluster (fun j ->
        Hashtbl.replace restored_jids j.W.jid ());
  let events = Cluster.Event_queue.create () in
  (* Clone at intake: traces are reusable descriptions, tasks are mutable. *)
  List.iter
    (fun (t, job) -> Cluster.Event_queue.add events ~time:t (Job_submit (W.clone_job job)))
    trace.Cluster.Trace.arrivals;
  List.iter
    (fun (t, ev) -> Cluster.Event_queue.add events ~time:t (Machine_event ev))
    trace.Cluster.Trace.machine_events;
  (* Epochs invalidate completion events of preempted/migrated tasks. *)
  let epochs : (Cluster.Types.task_id, int) Hashtbl.t = Hashtbl.create 1024 in
  let epoch tid = Option.value ~default:0 (Hashtbl.find_opt epochs tid) in
  let bump tid = Hashtbl.replace epochs tid (epoch tid + 1) in
  (* A task sent back to the wait queue (preempted, or evicted by a
     machine failure) waits for a slot again: its next placement is timed
     from that moment, not from its submission, so its earlier run is not
     counted as waiting. *)
  let requeued : (Cluster.Types.task_id, float) Hashtbl.t = Hashtbl.create 64 in
  (* Metrics accumulators. *)
  let placement_latencies = ref [] in
  let algorithm_runtimes = ref [] in
  let timeline = ref [] in
  let rounds = ref 0 in
  let partial_rounds = ref 0 in
  let infeasible_retries = ref 0 in
  let failed_rounds = ref 0 in
  let tasks_placed = ref 0 in
  let preemptions = ref 0 in
  let migrations = ref 0 in
  let sim = ref sim0 in
  (match restore_snapshot with
  | Some _ ->
      (* The restored cluster is already populated: just schedule the
         completions of the tasks it carries running. *)
      Cluster.State.iter_tasks cluster (fun task ->
          match task.W.state with
          | Cluster.Types.Running { started_at; _ } ->
              Hashtbl.replace epochs task.W.tid 1;
              Cluster.Event_queue.add events
                ~time:(Float.max !sim (started_at +. task.W.duration))
                (Task_finish (task.W.tid, 1))
          | _ -> ())
  | None ->
      (* Initial jobs model tasks already running at time zero: place them
         in unmetered warm-up rounds (the paper's simulator starts from a
         populated snapshot), only scheduling their completions. *)
      List.iter
        (fun job -> Firmament.Scheduler.submit_job sched (W.clone_job job))
        trace.Cluster.Trace.initial_jobs;
      let rec warmup i =
        if i < 10 && Cluster.State.waiting_count cluster > 0 then begin
          Telemetry.Metrics.incr m m_warmup;
          let round = Firmament.Scheduler.schedule sched ~now:0. in
          List.iter
            (fun (tid, _m) ->
              Hashtbl.replace epochs tid 1;
              let task = Cluster.State.task cluster tid in
              Cluster.Event_queue.add events ~time:task.W.duration
                (Task_finish (tid, 1)))
            round.Firmament.Scheduler.started;
          if round.Firmament.Scheduler.started <> [] then warmup (i + 1)
        end
      in
      warmup 0);
  let apply_event (time, ev) =
    match ev with
    | Job_submit job ->
        if Hashtbl.mem restored_jids job.W.jid then false
        else begin
          Firmament.Scheduler.submit_job sched job;
          true
        end
    | Task_finish (tid, e) ->
        let task = Cluster.State.task cluster tid in
        if e = epoch tid && W.is_running task then begin
          Firmament.Scheduler.finish_task sched tid ~now:time;
          true
        end
        else false
    | Machine_event (Cluster.Trace.Machine_fails m) ->
        if Cluster.State.machine_is_live cluster m then begin
          (* Victims return to the wait queue; their completions are
             invalidated here by bumping epochs below in the caller. *)
          let victims = ref [] in
          List.iter (fun tid -> victims := tid :: !victims)
            (Cluster.State.running_tasks_on cluster m);
          Firmament.Scheduler.fail_machine sched m;
          List.iter
            (fun tid ->
              bump tid;
              Hashtbl.replace requeued tid time)
            !victims;
          true
        end
        else false
    | Machine_event (Cluster.Trace.Machine_restores m) ->
        if not (Cluster.State.machine_is_live cluster m) then begin
          Firmament.Scheduler.restore_machine sched m;
          true
        end
        else false
  in
  let apply ev =
    let applied = apply_event ev in
    Telemetry.Metrics.incr m (if applied then m_events_applied else m_events_stale);
    applied
  in
  (* Ingesting events occupies the scheduler exactly like the solve does
     (the Fig. 2b accounting): in [`Measured] mode the measured wall
     clock of applying a batch advances simulated time. [`Fixed] mode
     charges nothing so deterministic tests stay deterministic. *)
  let ingest evs =
    match config.solver_time with
    | `Fixed _ -> List.fold_left (fun acc ev -> apply ev || acc) false evs
    | `Measured ->
        let t0 = Telemetry.Clock.now_ns () in
        let changed = List.fold_left (fun acc ev -> apply ev || acc) false evs in
        sim := !sim +. Telemetry.Clock.s_of_ns (Telemetry.Clock.now_ns () - t0);
        changed
  in
  let schedule_finish tid ~start =
    let task = Cluster.State.task cluster tid in
    Cluster.Event_queue.add events
      ~time:(start +. task.W.duration)
      (Task_finish (tid, epoch tid))
  in
  let out_of_budget () =
    (match config.max_sim_time with Some m when !sim >= m -> true | _ -> false)
    || match config.max_rounds with Some m when !rounds >= m -> true | _ -> false
  in
  let running = ref true in
  let needs_round = ref true in
  while !running && not (out_of_budget ()) do
    let evs = Cluster.Event_queue.pop_until events !sim in
    let changed = ingest evs in
    if changed then needs_round := true;
    if !needs_round || Cluster.State.waiting_count cluster > 0 then begin
      let round = Firmament.Scheduler.schedule sched ~now:!sim in
      incr rounds;
      Telemetry.Metrics.incr m m_rounds;
      (match round.Firmament.Scheduler.degraded with
      | `None -> ()
      | `Partial -> incr partial_rounds
      | `Infeasible_retry -> incr infeasible_retries
      | `Failed -> incr failed_rounds);
      let runtime =
        match config.solver_time with
        | `Measured -> round.Firmament.Scheduler.algorithm_runtime
        | `Fixed f -> f
      in
      sim := !sim +. runtime;
      algorithm_runtimes := runtime :: !algorithm_runtimes;
      timeline := (!sim, runtime) :: !timeline;
      on_round ~sim:!sim round;
      List.iter
        (fun (tid, _m) ->
          let since =
            match Hashtbl.find_opt requeued tid with
            | Some t ->
                Hashtbl.remove requeued tid;
                t
            | None -> (Cluster.State.task cluster tid).W.submit_time
          in
          placement_latencies := (!sim -. since) :: !placement_latencies;
          incr tasks_placed;
          bump tid;
          schedule_finish tid ~start:!sim)
        round.Firmament.Scheduler.started;
      List.iter
        (fun (tid, _from, _to) ->
          (* Migration restarts the task from scratch. *)
          incr migrations;
          bump tid;
          schedule_finish tid ~start:!sim)
        round.Firmament.Scheduler.migrated;
      List.iter
        (fun tid ->
          incr preemptions;
          bump tid;
          Hashtbl.replace requeued tid !sim)
        round.Firmament.Scheduler.preempted;
      let progressed =
        round.Firmament.Scheduler.started <> []
        || round.Firmament.Scheduler.migrated <> []
        || round.Firmament.Scheduler.preempted <> []
      in
      needs_round := false;
      if (not progressed) && not changed then begin
        (* Nothing placeable right now: jump to the next event. *)
        Telemetry.Metrics.incr m m_idle_jumps;
        match Cluster.Event_queue.peek_time events with
        | Some te -> sim := Float.max !sim te
        | None -> running := false
      end
    end
    else begin
      Telemetry.Metrics.incr m m_idle_jumps;
      match Cluster.Event_queue.peek_time events with
      | Some te -> sim := Float.max !sim te
      | None -> running := false
    end
  done;
  Option.iter
    (fun path ->
      Firmament.Snapshot.Writer.close
        (Firmament.Snapshot.Writer.to_file ~path sched ~now:!sim))
    snapshot_out;
  (* Collect response times from finished tasks. *)
  let response_times = ref [] in
  let job_responses = ref [] in
  Cluster.State.iter_jobs cluster (fun job ->
      if job.W.klass = Cluster.Types.Batch then begin
        let all_done = ref true and worst = ref 0. in
        Array.iter
          (fun (task : W.task) ->
            match task.W.state with
            | Cluster.Types.Finished { response_time } ->
                response_times := response_time :: !response_times;
                worst := Float.max !worst response_time
            | Cluster.Types.Waiting | Cluster.Types.Running _ | Cluster.Types.Failed ->
                all_done := false)
          job.W.tasks;
        if !all_done && Array.length job.W.tasks > 0 then
          job_responses := !worst :: !job_responses
      end);
  {
    placement_latencies = List.rev !placement_latencies;
    response_times = !response_times;
    job_response_times = !job_responses;
    algorithm_runtimes = List.rev !algorithm_runtimes;
    runtime_timeline = List.rev !timeline;
    rounds = !rounds;
    degraded_rounds = !partial_rounds + !infeasible_retries + !failed_rounds;
    partial_rounds = !partial_rounds;
    infeasible_retries = !infeasible_retries;
    failed_rounds = !failed_rounds;
    sim_end = !sim;
    tasks_placed = !tasks_placed;
    preemptions = !preemptions;
    migrations = !migrations;
    unfinished_waiting = Cluster.State.waiting_count cluster;
    structure_violations =
      List.length
        (Firmament.Flow_network.validate_structure
           (Firmament.Scheduler.network sched));
  }

let run config trace = run_with ~config ~trace ~on_round:(fun ~sim:_ _ -> ()) ()
