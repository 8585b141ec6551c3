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

type factory = drain:bool -> Flow_network.t -> Cluster.State.t -> t
