type t = {
  name : string;
  task_submitted : Cluster.Workload.task -> unit;
  task_finished : Cluster.Workload.task -> unit;
  task_started : Cluster.Workload.task -> Cluster.Types.machine_id -> unit;
  task_preempted : Cluster.Workload.task -> unit;
  machine_failed : Cluster.Types.machine_id -> unit;
  machine_restored : Cluster.Types.machine_id -> unit;
  refresh : now:float -> unit;
}

module G = Flowgraph.Graph

let adjust_unscheduled_capacity net j ~delta =
  ignore (Flow_network.ensure_unscheduled net j);
  match Flow_network.unscheduled_sink_arc net j with
  | None -> invalid_arg "Policy.adjust_unscheduled_capacity: missing sink arc"
  | Some a ->
      let g = Flow_network.graph net in
      G.set_capacity g a (max 0 (G.capacity g a + delta))

(* Remove every outgoing forward arc of a task node except those leading
   into [keep] (typically the placement's direct arc and the unscheduled
   aggregator). Used by policies when a task starts running: pruning the
   unused alternatives (rather than leaving them open at stale costs)
   keeps the warm solution certified, so the incremental solver's ε stays
   small (paper §6.2). *)
let prune_task_arcs net tid ~keep =
  match Flow_network.task_node net tid with
  | None -> ()
  | Some tn ->
      let g = Flow_network.graph net in
      let stale = ref [] in
      let it = ref (G.first_out g tn) in
      while !it >= 0 do
        let a = !it in
        if G.is_forward a && not (List.mem (G.dst g a) keep) then stale := a :: !stale;
        it := G.next_out g a
      done;
      List.iter (fun a -> G.remove_arc g a) !stale
