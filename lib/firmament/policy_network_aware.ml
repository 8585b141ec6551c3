module G = Flowgraph.Graph
module FN = Flow_network

type config = {
  bucket_mbps : int;
  unscheduled_base : int;
  wait_cost_per_second : int;
}

let default_config = { bucket_mbps = 100; unscheduled_base = 100_000; wait_cost_per_second = 100 }

let bucket_of ~config demand =
  let b = (demand + config.bucket_mbps - 1) / config.bucket_mbps * config.bucket_mbps in
  max config.bucket_mbps b

let make ?(config = default_config) ?bandwidth_used ~drain net cluster =
  let topo = Cluster.State.topology cluster in
  (* Default observation: the sum of the demands of tasks we placed. *)
  let default_used m =
    List.fold_left
      (fun acc tid ->
        acc + (Cluster.State.task cluster tid).Cluster.Workload.net_demand_mbps)
      0
      (Cluster.State.running_tasks_on cluster m)
  in
  let used = Option.value ~default:default_used bandwidth_used in
  Cluster.Topology.iter_machines topo (fun m ->
      if Cluster.State.machine_is_live cluster m.Cluster.Topology.id then
        ignore (FN.ensure_machine net m.Cluster.Topology.id ~slots:m.Cluster.Topology.slots));
  let unsched_cost (task : Cluster.Workload.task) ~now =
    config.unscheduled_base
    + (config.wait_cost_per_second
      * int_of_float (Float.max 0. (now -. task.Cluster.Workload.submit_time)))
  in
  let task_bucket (task : Cluster.Workload.task) =
    bucket_of ~config task.Cluster.Workload.net_demand_mbps
  in
  (* A task competes for machines through its bucket's request aggregator,
     created on demand; [refresh] removes it once no task has an arc into
     it. *)
  let connect_to_bucket (task : Cluster.Workload.task) tn =
    let ra = FN.ensure_request_agg net (task_bucket task) in
    ignore (G.add_arc (FN.graph net) ~src:tn ~dst:ra ~cost:0 ~cap:1)
  in
  let price_unscheduled (task : Cluster.Workload.task) ~now =
    FN.ensure_unscheduled_arc net task.Cluster.Workload.tid ~job:task.Cluster.Workload.job
      ~cost:(unsched_cost task ~now)
  in
  let task_submitted (task : Cluster.Workload.task) =
    let tn = FN.add_task net task.Cluster.Workload.tid in
    price_unscheduled task ~now:task.Cluster.Workload.submit_time;
    connect_to_bucket task tn
  in
  let task_finished (task : Cluster.Workload.task) =
    FN.remove_task net task.Cluster.Workload.tid ~drain
  in
  (* Exclude the task's own contribution to the bandwidth [used_mbps]
     observed on its machine, so a migration (which restarts the task) must
     beat staying put by at least two requests' worth of load — hysteresis
     against thrashing. *)
  let continuation_cost (task : Cluster.Workload.task) ~used_mbps =
    max 0 (used_mbps - task.Cluster.Workload.net_demand_mbps)
  in
  let task_started (task : Cluster.Workload.task) m =
    FN.start_task net task.Cluster.Workload.tid m
      ~cost:(continuation_cost task ~used_mbps:(used m))
  in
  (* Back to competing via its request aggregator. *)
  let task_preempted (task : Cluster.Workload.task) =
    match FN.task_node net task.Cluster.Workload.tid with
    | None -> ()
    | Some tn ->
        FN.prune_task_arcs net task.Cluster.Workload.tid ~keep:(fun _ -> false);
        connect_to_bucket task tn
  in
  let machine_failed m = FN.remove_machine net m in
  let machine_restored m =
    let info = Cluster.Topology.machine topo m in
    ignore (FN.ensure_machine net m ~slots:info.Cluster.Topology.slots)
  in
  let refresh ~now =
    let gr = FN.graph net in
    (* First traversal: observe each live machine's bandwidth, once. *)
    let observed = Hashtbl.create 64 in
    Cluster.Topology.iter_machines topo (fun info ->
        let m = info.Cluster.Topology.id in
        if Cluster.State.machine_is_live cluster m then Hashtbl.replace observed m (used m));
    (* Second traversal: re-derive the dynamic RA -> machine arcs from
       each aggregator's out-list, dropping an aggregator no task has an
       arc into (only tasks have arcs into one: its reverse arcs). "One
       arc for each task that fits" (Fig. 6c): parallel unit arcs whose
       costs rise by one request per additional task, so concurrent
       placements see the bandwidth they would add to each other. *)
    FN.iter_request_aggs net (fun b ra ->
        let held = ref false in
        let units = Hashtbl.create 64 in
        G.iter_out gr ra (fun a ->
            if not (G.is_forward a) then held := true
            else Hashtbl.add units (G.dst gr a) a);
        if not !held then FN.remove_request_agg net b
        else
          Cluster.Topology.iter_machines topo (fun info ->
              let m = info.Cluster.Topology.id in
              match (FN.machine_node net m, Hashtbl.find_opt observed m) with
              | Some mn, Some used_m ->
                  let sp = max 0 (info.Cluster.Topology.net_capacity_mbps - used_m) in
                  let fits = min (Cluster.State.free_slots_on cluster m) (sp / b) in
                  let cost i = ((i + 1) * b) + used_m in
                  let rec price i = function
                    | arcs when i >= fits -> List.iter (G.remove_arc gr) arcs
                    | a :: rest ->
                        G.set_cost gr a (cost i);
                        price (i + 1) rest
                    | [] ->
                        ignore (G.add_arc gr ~src:ra ~dst:mn ~cost:(cost i) ~cap:1);
                        price (i + 1) []
                  in
                  price 0 (Hashtbl.find_all units mn)
              | _ -> ()));
    (* Keep continuation costs (of the tasks running on live machines) and
       unscheduled costs current. *)
    Hashtbl.iter
      (fun m used_mbps ->
        match FN.machine_node net m with
        | None -> ()
        | Some mn ->
            List.iter
              (fun tid ->
                match FN.task_node net tid with
                | None -> ()
                | Some tn -> (
                    match FN.find_arc net tn mn with
                    | Some a ->
                        G.set_cost gr a
                          (continuation_cost (Cluster.State.task cluster tid) ~used_mbps)
                    | None -> ()))
              (Cluster.State.running_tasks_on cluster m))
      observed;
    List.iter (price_unscheduled ~now) (Cluster.State.waiting_tasks cluster)
  in
  {
    Policy.name = "network-aware";
    task_submitted;
    task_finished;
    task_started;
    task_preempted;
    machine_failed;
    machine_restored;
    refresh;
  }
