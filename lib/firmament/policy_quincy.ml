module G = Flowgraph.Graph
module FN = Flow_network
module Resources = Cluster.Resources

type config = {
  preference_threshold : float;
  rack_locality_discount : float;
  unscheduled_base : int;
  wait_cost_per_second : int;
  service_priority_factor : int;
}

let default_config =
  {
    preference_threshold = 0.14;
    rack_locality_discount = 0.7;
    unscheduled_base = 1_000;
    wait_cost_per_second = 50;
    service_priority_factor = 10;
  }

let locality_fractions (task : Cluster.Workload.task) =
  let placements = task.Cluster.Workload.input_machines in
  let total = List.length placements in
  if total = 0 then []
  else begin
    let counts = Hashtbl.create 8 in
    List.iter
      (fun m -> Hashtbl.replace counts m (1 + Option.value ~default:0 (Hashtbl.find_opt counts m)))
      placements;
    Hashtbl.fold (fun m c acc -> (m, float_of_int c /. float_of_int total) :: acc) counts []
  end

let make ?(config = default_config) ~drain net cluster =
  let topo = Cluster.State.topology cluster in
  let x = FN.ensure_cluster_agg net in
  let g () = FN.graph net in
  (* Backbone: X -> rack -> machine -> sink, all zero-cost. The X -> rack
     capacity is the rack's full slot complement (an upper bound; the
     rack -> machine arcs enforce the live capacity). *)
  let rack_total_slots r =
    List.fold_left
      (fun acc m -> acc + (Cluster.Topology.machine topo m).Cluster.Topology.slots)
      0
      (Cluster.Topology.machines_in_rack topo r)
  in
  let ensure_machine m =
    let info = Cluster.Topology.machine topo m in
    let mn = FN.ensure_machine net m ~slots:info.Cluster.Topology.slots in
    let r = info.Cluster.Topology.rack in
    let rn = FN.ensure_rack net r in
    if FN.find_arc net rn mn = None then begin
      ignore (G.add_arc (g ()) ~src:rn ~dst:mn ~cost:0 ~cap:info.Cluster.Topology.slots);
      ignore (FN.set_or_add_arc net ~src:x ~dst:rn ~cost:0 ~cap:(rack_total_slots r))
    end;
    mn
  in
  (* Seed only the live machines: when the policy is built over restored
     state (snapshot restore mid-outage), dead machines must not reappear
     in the graph — [machine_restored] rebuilds them if they come back. *)
  Cluster.Topology.iter_machines topo (fun m ->
      if Cluster.State.machine_is_live cluster m.Cluster.Topology.id then
        ignore (ensure_machine m.Cluster.Topology.id));
  let transfer_cost (task : Cluster.Workload.task) = 10 + int_of_float task.Cluster.Workload.input_mb in
  let unsched_cost (task : Cluster.Workload.task) ~now =
    let base = config.unscheduled_base + (2 * transfer_cost task) in
    let job = Cluster.State.job cluster task.Cluster.Workload.job in
    let prio =
      match job.Cluster.Workload.klass with
      | Cluster.Types.Service -> config.service_priority_factor
      | Cluster.Types.Batch -> 1
    in
    (prio * base)
    + (config.wait_cost_per_second
      * int_of_float (Float.max 0. (now -. task.Cluster.Workload.submit_time)))
  in
  let price_unscheduled (task : Cluster.Workload.task) ~now =
    FN.ensure_unscheduled_arc net task.Cluster.Workload.tid ~job:task.Cluster.Workload.job
      ~cost:(unsched_cost task ~now)
  in
  (* Drop every outgoing arc of the task node but the unscheduled one, then
     install the arcs of Fig. 6b: unscheduled (priced as at submission,
     re-priced if kept), wildcard via X, and preference arcs to machines and
     racks above the locality threshold. *)
  let install_arcs (task : Cluster.Workload.task) =
    let tid = task.Cluster.Workload.tid in
    let tn =
      match FN.task_node net tid with Some n -> n | None -> FN.add_task net tid
    in
    let gr = g () in
    FN.prune_task_arcs net tid ~keep:(fun _ -> false);
    price_unscheduled task ~now:task.Cluster.Workload.submit_time;
    let cost_remote = transfer_cost task in
    ignore (G.add_arc gr ~src:tn ~dst:x ~cost:cost_remote ~cap:1);
    let fractions = locality_fractions task in
    let rack_fraction = Hashtbl.create 4 in
    (* Multi-dimensional feasibility check (paper §7.1): no preference arc
       to a machine whose capacity can never hold the task's request. *)
    let can_ever_fit m =
      Resources.fits ~request:task.Cluster.Workload.request
        ~available:(Cluster.Topology.machine topo m).Cluster.Topology.capacity
    in
    List.iter
      (fun (m, frac) ->
        (* Machines can disappear (failures); skip their preferences. *)
        if Cluster.State.machine_is_live cluster m && can_ever_fit m then begin
          let r = Cluster.Topology.rack_of topo m in
          Hashtbl.replace rack_fraction r
            (frac +. Option.value ~default:0. (Hashtbl.find_opt rack_fraction r));
          if frac >= config.preference_threshold then begin
            match FN.machine_node net m with
            | Some mn ->
                let cost = int_of_float (float_of_int cost_remote *. (1. -. frac)) in
                ignore (G.add_arc gr ~src:tn ~dst:mn ~cost ~cap:1)
            | None -> ()
          end
        end)
      fractions;
    Hashtbl.iter
      (fun r frac ->
        if frac >= config.preference_threshold then begin
          match FN.rack_node net r with
          | Some rn ->
              let cost =
                int_of_float
                  (float_of_int cost_remote *. (1. -. (config.rack_locality_discount *. frac)))
              in
              ignore (G.add_arc gr ~src:tn ~dst:rn ~cost ~cap:1)
          | None -> ()
        end)
      rack_fraction
  in
  let task_finished (task : Cluster.Workload.task) =
    FN.remove_task net task.Cluster.Workload.tid ~drain
  in
  (* Input now local: continuing here is free. *)
  let task_started (task : Cluster.Workload.task) m =
    FN.start_task net task.Cluster.Workload.tid m ~cost:0
  in
  let machine_failed m = FN.remove_machine net m in
  let machine_restored m =
    ignore (ensure_machine m);
    (* A failed machine's preference arcs were dropped with its node (and
       [install_arcs] skips dead machines), so waiting tasks whose inputs
       live on [m] are left with only wildcard routes. Reinstall their arc
       sets now that the machine (and its rack path) is back, so the next
       round can place them locally again. *)
    List.iter
      (fun (task : Cluster.Workload.task) ->
        if List.mem m task.Cluster.Workload.input_machines then install_arcs task)
      (Cluster.State.waiting_tasks cluster)
  in
  (* [unsched_cost] quantizes waiting time to whole seconds, so the cost is
     unchanged on most rounds, and an unchanged price leaves the graph (and
     the solver's warm start) untouched. *)
  let refresh ~now =
    List.iter (price_unscheduled ~now) (Cluster.State.waiting_tasks cluster)
  in
  {
    Policy.name = "quincy";
    task_submitted = install_arcs;
    task_finished;
    task_started;
    task_preempted = install_arcs;
    machine_failed;
    machine_restored;
    refresh;
  }
