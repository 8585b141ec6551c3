module W = Cluster.Workload

type kind =
  | Firmament of
      (bandwidth_used:(Cluster.Types.machine_id -> int) ->
      drain:bool ->
      Firmament.Flow_network.t ->
      Cluster.State.t ->
      Firmament.Policy.t)
  | Baseline of Baselines.t
  | Isolation

type background = {
  bg_src : Cluster.Types.machine_id option;
  bg_dst : Cluster.Types.machine_id;
  bg_mbps : float;
}

type result = {
  response_times : float list;
  placement_latencies : float list;
  finished : int;
  unfinished : int;
}

type event = Arrival of W.job | Compute_done of Cluster.Types.task_id * int

(* Isolation: every task runs alone on an idle network. *)
let run_isolation ~topology ~arrivals =
  let nic m =
    float_of_int (Cluster.Topology.machine topology m).Cluster.Topology.net_capacity_mbps
  in
  let responses = ref [] in
  List.iter
    (fun (_t, job) ->
      Array.iter
        (fun (task : W.task) ->
          let transfer =
            match task.W.input_machines with
            | [] -> 0.
            | m :: _ -> task.W.input_mb *. 8. /. nic m
          in
          responses := (transfer +. task.W.duration) :: !responses)
        job.W.tasks)
    arrivals;
  {
    response_times = !responses;
    placement_latencies = List.map (fun _ -> 0.) !responses;
    finished = List.length !responses;
    unfinished = 0;
  }

let run ?(max_sim_time = 10_000.) ~topology ~arrivals ~background kind =
  match kind with
  | Isolation -> run_isolation ~topology ~arrivals
  | _ ->
      let cluster = Cluster.State.create topology in
      let net = Netsim.create topology in
      List.iter
        (fun bg -> ignore (Netsim.add_background net ?src:bg.bg_src ~dst:bg.bg_dst ~mbps:bg.bg_mbps ()))
        background;
      let events = Cluster.Event_queue.create () in
      (* Clone at intake: workload descriptions are reusable, tasks mutable. *)
      List.iter
        (fun (t, job) -> Cluster.Event_queue.add events ~time:t (Arrival (W.clone_job job)))
        arrivals;
      let epochs : (Cluster.Types.task_id, int) Hashtbl.t = Hashtbl.create 256 in
      let epoch tid = Option.value ~default:0 (Hashtbl.find_opt epochs tid) in
      let bump tid = Hashtbl.replace epochs tid (epoch tid + 1) in
      let placement_latencies = ref [] in
      (* The cluster drops a task as it finishes: its response time is
         recorded then. *)
      let responses = ref [] in
      let sim = ref 0. in
      (* Per-machine worker-side queues (Sparrow late binding). *)
      let worker_queues : (Cluster.Types.machine_id, Cluster.Types.task_id Queue.t) Hashtbl.t =
        Hashtbl.create 64
      in
      let worker_queue m =
        match Hashtbl.find_opt worker_queues m with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace worker_queues m q;
            q
      in
      (* Begin execution on a machine: transfer the input, then compute. *)
      let begin_execution tid m ~now =
        let task = Cluster.State.task cluster tid in
        placement_latencies := (now -. task.W.submit_time) :: !placement_latencies;
        let local = List.mem m task.W.input_machines in
        (* Read from the least-loaded replica (HDFS-style source choice —
           every scheduler benefits equally). *)
        let src =
          List.filter (fun s -> s <> m && Cluster.State.machine_is_live cluster s)
            task.W.input_machines
          |> List.sort (fun a b -> compare (Netsim.used_mbps net a) (Netsim.used_mbps net b))
          |> function
          | [] -> None
          | s :: _ -> Some s
        in
        if local || task.W.input_mb <= 0. || src = None then
          Cluster.Event_queue.add events ~time:(now +. task.W.duration)
            (Compute_done (tid, epoch tid))
        else
          ignore (Netsim.start_transfer net ?src ~dst:m ~mb:task.W.input_mb ~task:tid ())
      in
      (* Scheduler-specific machinery. *)
      let sched_and_policy =
        match kind with
        | Firmament policy ->
            let factory ~drain net' st =
              policy ~bandwidth_used:(fun m -> Netsim.used_mbps net m) ~drain net' st
            in
            Some (Firmament.Scheduler.create cluster ~policy:factory)
        | Baseline _ | Isolation -> None
      in
      let baseline = match kind with Baseline b -> Some b | _ -> None in
      let central_queue : Cluster.Types.task_id Queue.t = Queue.create () in
      let run_firmament_round () =
        match sched_and_policy with
        | None -> ()
        | Some sched ->
            let round = Firmament.Scheduler.schedule sched ~now:!sim in
            let runtime = round.Firmament.Scheduler.algorithm_runtime in
            (* Solver occupancy: effects land at sim + runtime. *)
            let t_eff = !sim +. runtime in
            List.iter
              (fun (tid, m) ->
                bump tid;
                begin_execution tid m ~now:t_eff)
              round.Firmament.Scheduler.started;
            List.iter
              (fun (tid, _old_m, m) ->
                bump tid;
                Netsim.cancel_task_transfers net tid;
                begin_execution tid m ~now:t_eff)
              round.Firmament.Scheduler.migrated;
            List.iter
              (fun tid ->
                bump tid;
                Netsim.cancel_task_transfers net tid)
              round.Firmament.Scheduler.preempted
      in
      let try_place_baseline tid =
        match baseline with
        | None -> false
        | Some b ->
            let task = Cluster.State.task cluster tid in
            let now = !sim +. b.Baselines.per_task_overhead_s in
            (match b.Baselines.select cluster task with
            | None -> false
            | Some m ->
                if Cluster.State.free_slots_on cluster m > 0 then begin
                  Cluster.State.place cluster tid m ~now;
                  bump tid;
                  begin_execution tid m ~now;
                  true
                end
                else if b.Baselines.worker_side_queue then begin
                  Queue.add tid (worker_queue m);
                  true
                end
                else false)
      in
      let drain_central_queue () =
        (* Retry head-of-line tasks until one fails to place. *)
        let continue = ref true in
        while !continue && not (Queue.is_empty central_queue) do
          let tid = Queue.peek central_queue in
          if try_place_baseline tid then ignore (Queue.pop central_queue) else continue := false
        done
      in
      let pop_worker_queue m =
        match Hashtbl.find_opt worker_queues m with
        | None -> ()
        | Some q ->
            if (not (Queue.is_empty q)) && Cluster.State.free_slots_on cluster m > 0 then begin
              let tid = Queue.pop q in
              Cluster.State.place cluster tid m ~now:!sim;
              bump tid;
              begin_execution tid m ~now:!sim
            end
      in
      let handle_event (time, ev) =
        sim := Float.max !sim time;
        match ev with
        | Arrival job -> (
            match sched_and_policy with
            | Some sched ->
                Firmament.Scheduler.submit_job sched job;
                run_firmament_round ()
            | None ->
                Cluster.State.submit_job cluster job;
                Array.iter
                  (fun (task : W.task) ->
                    if not (try_place_baseline task.W.tid) then
                      Queue.add task.W.tid central_queue)
                  job.W.tasks)
        | Compute_done (tid, e) -> (
            match Cluster.State.task_opt cluster tid with
            | Some task when e = epoch tid && W.is_running task ->
                let m = Option.get (W.machine_of task) in
                (match sched_and_policy with
                | Some sched ->
                    Firmament.Scheduler.finish_task sched tid ~now:!sim;
                    run_firmament_round ()
                | None ->
                    Cluster.State.finish cluster tid ~now:!sim;
                    pop_worker_queue m;
                    drain_central_queue ());
                responses := (!sim -. task.W.submit_time) :: !responses
            | Some _ | None -> ())
      in
      let transfer_done (time, tid) =
        sim := Float.max !sim time;
        match Cluster.State.task_opt cluster tid with
        | Some task when W.is_running task ->
            Cluster.Event_queue.add events ~time:(!sim +. task.W.duration)
              (Compute_done (tid, epoch tid))
        | Some _ | None -> ()
      in
      let running = ref true in
      while !running && !sim < max_sim_time do
        let next_ev = Cluster.Event_queue.peek_time events in
        let next_tx = Netsim.next_completion_time net in
        match (next_ev, next_tx) with
        | None, None -> running := false
        | Some te, None ->
            ignore (Netsim.advance net te);
            List.iter handle_event (Cluster.Event_queue.pop_until events te)
        | None, Some tt ->
            let completions = Netsim.advance net tt in
            List.iter transfer_done completions
        | Some te, Some tt ->
            if tt <= te then List.iter transfer_done (Netsim.advance net tt)
            else begin
              ignore (Netsim.advance net te);
              List.iter handle_event (Cluster.Event_queue.pop_until events te)
            end
      done;
      {
        response_times = !responses;
        placement_latencies = !placement_latencies;
        finished = List.length !responses;
        unfinished = Cluster.State.live_task_count cluster;
      }
