(** Mutable cluster runtime state shared by all schedulers: which tasks
    exist, where they run, slot accounting, machine liveness. This is the
    "cluster manager" side of paper Fig. 4 — schedulers read it to build
    their view and write placements back through it.

    The state holds the live cluster only. A task leaves when it
    finishes, and a job leaves with its last live task, so memory tracks
    the tasks waiting and running, not every task ever submitted. A
    caller that needs a finished task's response time reads it from the
    task record it holds, or from the event that finished it. *)

type t

val create : Topology.t -> t
val topology : t -> Topology.t

(** [submit_job t job] registers the job and queues all its tasks. A
    job without tasks has no live task, so it is not kept.
    @raise Invalid_argument if a live job has the same id. *)
val submit_job : t -> Workload.job -> unit

(** [task t tid] is the live task [tid].
    @raise Invalid_argument if [tid] is unknown or finished. *)
val task : t -> Types.task_id -> Workload.task

(** [task_opt t tid] is [task t tid], or [None] once the task has
    finished (or was never submitted). *)
val task_opt : t -> Types.task_id -> Workload.task option

(** [job t jid] is the header of live job [jid] (id, class, submit
    time). Its [tasks] array is empty: the state keeps a task only in its
    task table, so no job record pins a finished task.
    @raise Invalid_argument if no live job has that id. *)
val job : t -> Types.job_id -> Workload.job

(** [job_opt t jid] is [job t jid], or [None] once the job's last task
    has finished. *)
val job_opt : t -> Types.job_id -> Workload.job option

(** [place t tid m ~now] starts waiting task [tid] on machine [m].
    @raise Invalid_argument if the machine is dead or has no free slot. *)
val place : t -> Types.task_id -> Types.machine_id -> now:float -> unit

(** [preempt t tid] stops a running task and returns it to the wait queue
    (flow-based scheduling may preempt and migrate, §2.2). *)
val preempt : t -> Types.task_id -> unit

(** [finish t tid ~now] completes a running task, frees its slot and
    drops the task (and its job, if no other task of it is live). The
    task record passed in by {!submit_job} carries its response time. *)
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

(** Tasks waiting or running. *)
val live_task_count : t -> int

(** Fraction of live slots occupied. *)
val utilization : t -> float

(** [iter_tasks t f] visits every live task. *)
val iter_tasks : t -> (Workload.task -> unit) -> unit

(** [iter_jobs t f] visits the header (see {!job}) of every job with a
    live task. *)
val iter_jobs : t -> (Workload.job -> unit) -> unit

(** {1 Snapshot restore}

    [restore_finished t tid ~response_time] moves a freshly-submitted,
    still-waiting task directly to [Finished] and drops it, as {!finish}
    does — the transition a snapshot reader needs when rebuilding a
    cluster in which [tid] had already completed (there is no machine to
    route the finish through).
    @raise Invalid_argument if the task is not waiting. *)
val restore_finished : t -> Types.task_id -> response_time:float -> unit
