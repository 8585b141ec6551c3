(** Mutable cluster runtime state shared by all schedulers: which tasks
    exist, where they run, slot accounting, machine liveness. This is the
    "cluster manager" side of paper Fig. 4 — schedulers read it to build
    their view and write placements back through it. *)

type t

val create : Topology.t -> t
val topology : t -> Topology.t

(** [submit_job t job] registers the job and queues all its tasks. *)
val submit_job : t -> Workload.job -> unit

val task : t -> Types.task_id -> Workload.task
val job : t -> Types.job_id -> Workload.job
val job_of_task : t -> Types.task_id -> Workload.job

(** [place t tid m ~now] starts waiting task [tid] on machine [m].
    @raise Invalid_argument if the machine is dead or has no free slot. *)
val place : t -> Types.task_id -> Types.machine_id -> now:float -> unit

(** [preempt t tid] stops a running task and returns it to the wait queue
    (flow-based scheduling may preempt and migrate, §2.2). *)
val preempt : t -> Types.task_id -> unit

(** [finish t tid ~now] completes a running task and frees its slot. *)
val finish : t -> Types.task_id -> now:float -> unit

(** [fail_machine t m] marks [m] dead and preempts everything on it;
    the victims' ids are returned. *)
val fail_machine : t -> Types.machine_id -> Types.task_id list

val restore_machine : t -> Types.machine_id -> unit
val machine_is_live : t -> Types.machine_id -> bool

(** Waiting tasks in submission order. *)
val waiting_tasks : t -> Workload.task list

val waiting_count : t -> int
val running_count : t -> Types.machine_id -> int
val running_tasks_on : t -> Types.machine_id -> Types.task_id list
val free_slots_on : t -> Types.machine_id -> int

(** [used_resources t m] sums the requests of the tasks running on [m]. *)
val used_resources : t -> Types.machine_id -> Resources.t

(** [fits_on t m task] is Borg-style multi-dimensional feasibility (paper
    §7.1): the machine is live, has a free slot, and every dimension of
    the task's request fits into its remaining capacity. With default
    (slot-equivalent) requests this coincides with the slot check. *)
val fits_on : t -> Types.machine_id -> Workload.task -> bool
val live_task_count : t -> int

(** Fraction of live slots occupied. *)
val utilization : t -> float

val iter_tasks : t -> (Workload.task -> unit) -> unit
val iter_jobs : t -> (Workload.job -> unit) -> unit

(** {1 Snapshot restore}

    [restore_finished t tid ~response_time] moves a freshly-submitted,
    still-waiting task directly to [Finished] — the transition a snapshot
    reader needs when rebuilding a cluster in which [tid] had already
    completed (there is no machine to route the finish through). Removes
    it from the wait queue and the live count.
    @raise Invalid_argument if the task is not waiting. *)
val restore_finished : t -> Types.task_id -> response_time:float -> unit
