module G = Flowgraph.Graph
module FN = Flow_network

type config = {
  cost_per_running_task : int;
  unscheduled_base : int;
  wait_cost_per_second : int;
}

let default_config =
  { cost_per_running_task = 100; unscheduled_base = 100_000; wait_cost_per_second = 100 }

let make ?(config = default_config) ~drain net cluster =
  let topo = Cluster.State.topology cluster in
  let x = FN.ensure_cluster_agg net in
  (* X -> machine is a convex cost: the k-th concurrent task on a machine
     costs more than the (k-1)-th, so spreading happens even within one
     batch. Decomposed into [slots] parallel unit arcs with increasing
     cost, refreshed per round as tasks start and finish. The graph is
     their only record: [iter_unit_arcs mn f] finds them as the reverse
     arcs in [mn]'s out-list whose head is X. *)
  let iter_unit_arcs mn f =
    let g = FN.graph net in
    G.iter_out g mn (fun a -> if (not (G.is_forward a)) && G.dst g a = x then f (G.rev a))
  in
  let ensure_machine m =
    let slots = (Cluster.Topology.machine topo m).Cluster.Topology.slots in
    let mn = FN.ensure_machine net m ~slots in
    let have = ref 0 in
    iter_unit_arcs mn (fun _ -> incr have);
    if !have = 0 then
      for i = 0 to slots - 1 do
        ignore
          (G.add_arc (FN.graph net) ~src:x ~dst:mn
             ~cost:(config.cost_per_running_task * i)
             ~cap:1)
      done
  in
  Cluster.Topology.iter_machines topo (fun m ->
      if Cluster.State.machine_is_live cluster m.Cluster.Topology.id then
        ensure_machine m.Cluster.Topology.id);
  let unsched_cost (task : Cluster.Workload.task) ~now =
    config.unscheduled_base
    + (config.wait_cost_per_second
      * int_of_float (Float.max 0. (now -. task.Cluster.Workload.submit_time)))
  in
  let price_unscheduled (task : Cluster.Workload.task) ~now =
    FN.ensure_unscheduled_arc net task.Cluster.Workload.tid ~job:task.Cluster.Workload.job
      ~cost:(unsched_cost task ~now)
  in
  let task_submitted (task : Cluster.Workload.task) =
    let tn = FN.add_task net task.Cluster.Workload.tid in
    price_unscheduled task ~now:task.Cluster.Workload.submit_time;
    ignore (G.add_arc (FN.graph net) ~src:tn ~dst:x ~cost:0 ~cap:1)
  in
  let task_finished (task : Cluster.Workload.task) =
    FN.remove_task net task.Cluster.Workload.tid ~drain
  in
  (* Pin continuation: staying put is free, so only contention moves it. *)
  let task_started (task : Cluster.Workload.task) m =
    FN.pin_task net task.Cluster.Workload.tid m ~cost:0
  in
  (* Drop the continuation arc; the task competes via X again. *)
  let task_preempted (task : Cluster.Workload.task) =
    FN.prune_task_arcs net task.Cluster.Workload.tid ~keep:(fun n ->
        FN.machine_of_node net n = None)
  in
  let machine_failed m = FN.remove_machine net m in
  let machine_restored m = ensure_machine m in
  let refresh ~now =
    let g = FN.graph net in
    (* The i-th unit arc into a machine with r running tasks costs
       (r + i); a restored graph may list the units in another order,
       which only permutes the same costs. *)
    FN.iter_machine_nodes net (fun m mn ->
        let r = Cluster.State.running_count cluster m in
        let i = ref 0 in
        iter_unit_arcs mn (fun a ->
            G.set_cost g a (config.cost_per_running_task * (r + !i));
            incr i));
    List.iter (price_unscheduled ~now) (Cluster.State.waiting_tasks cluster)
  in
  {
    Policy.name = "load-spreading";
    task_submitted;
    task_finished;
    task_started;
    task_preempted;
    machine_failed;
    machine_restored;
    refresh;
  }
