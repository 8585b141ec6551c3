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
  let machine_arcs = Hashtbl.create 64 in
  (* X -> machine is a convex cost: the k-th concurrent task on a machine
     costs more than the (k-1)-th, so spreading happens even within one
     batch. Decomposed into [slots] parallel unit arcs with increasing
     cost, refreshed per round as tasks start and finish. *)
  let ensure_machine m =
    let slots = (Cluster.Topology.machine topo m).Cluster.Topology.slots in
    let mn = FN.ensure_machine net m ~slots in
    if not (Hashtbl.mem machine_arcs m) then begin
      let arcs =
        Array.init slots (fun i ->
            G.add_arc (FN.graph net) ~src:x ~dst:mn
              ~cost:(config.cost_per_running_task * i)
              ~cap:1)
      in
      Hashtbl.replace machine_arcs m arcs
    end
  in
  Cluster.Topology.iter_machines topo (fun m -> ensure_machine m.Cluster.Topology.id);
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
  let machine_failed m =
    Hashtbl.remove machine_arcs m;
    FN.remove_machine net m
  in
  let machine_restored m = ensure_machine m in
  let refresh ~now =
    let g = FN.graph net in
    (* First traversal: per-machine statistics (running task counts);
       second: cost updates on the X->machine and unscheduled arcs. The
       i-th spare unit on a machine with r running tasks costs (r + i). *)
    Hashtbl.iter
      (fun m arcs ->
        let r = Cluster.State.running_count cluster m in
        Array.iteri
          (fun i a ->
            if G.arc_is_live g a then
              G.set_cost g a (config.cost_per_running_task * (r + i)))
          arcs)
      machine_arcs;
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
