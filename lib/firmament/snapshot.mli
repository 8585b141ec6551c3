(** Scheduler state persistence: crash recovery with a warm failover.

    A snapshot is a {e base image} — the full scheduler state at one
    instant — followed by an append-only journal of cheap delta records,
    one batch per cluster event or committed round. The base image
    stores:
    {ul
    {- cluster facts: topology parameters, dead machines, every job with
       the attributes policies consume of its waiting and running tasks,
       and who runs where (with original start times). Finished tasks are
       left out, so the image is proportional to the live cluster, not to
       its history: a restored cluster knows every job but only the tasks
       still live;}
    {- the flow network as a {!Flowgraph.Dimacs.emit_state} dump —
       structure {e plus} flow and potentials, i.e. the warm start — with
       side-band [node] records mapping the dump's dense node ids back to
       their scheduler roles.}}
    That is the scheduler's whole state: the task → machine assignment
    is the cluster's running set, and every policy reads its arcs from
    the network.

    Restore replays the base image through the normal constructors,
    parses the graph dump, rebuilds the network id maps from the [node]
    records ({!Flow_network.restore}), builds the scheduler around the
    two ({!Scheduler.of_restored}), replays the journal through the live
    event/commit entry points, and finally certifies the restored warm
    start ({!Scheduler.prepare_warm}) so the first post-restore round can
    take the O(changes) incremental-repair path — the reason recovery is
    far cheaper than a cold re-solve.

    Journal appends are flushed per record; a torn final record (the
    process died mid-append) silently ends replay, WAL-style. Limits: the
    format covers homogeneous topologies built by
    {!Cluster.Topology.make} with default per-slot resources. *)

exception Corrupt of string
(** Raised on a snapshot that cannot be loaded (bad header, out-of-range
    ids, inconsistent kind table, rejected graph dump). Never raised for
    a torn journal tail — that is normal crash residue and ends replay. *)

(** Cluster events as journal records. *)
type event =
  | Job of Cluster.Workload.job
  | Finish of Cluster.Types.task_id * float  (** task, finish time *)
  | Preempt of Cluster.Types.task_id
  | Fail_machine of Cluster.Types.machine_id
  | Restore_machine of Cluster.Types.machine_id

(** [emit_base sched ~now] renders the base image. A round runs to
    completion inside {!Scheduler.schedule}, so the image is always taken
    between rounds, of the canonical warm start. *)
val emit_base : Scheduler.t -> now:float -> string

(** Journal line(s) for one event / one committed round's placement diff
    (rounds that placed nothing render [""]). Exposed for tests; normal
    use goes through {!Writer}. *)
val event_string : event -> string

val round_string : Scheduler.round -> now:float -> string

(** Append-only snapshot writer: a base image plus flushed-per-record
    delta appends. *)
module Writer : sig
  type t

  (** [to_file ~path sched ~now] writes a fresh base image to [path] and
      returns a writer appending to it. *)
  val to_file : path:string -> Scheduler.t -> now:float -> t

  (** [event w ev] appends (and flushes) one event record. Call {e after}
      applying the event to the scheduler, so the journal only records
      what actually happened. *)
  val event : t -> event -> unit

  (** [round w r ~now] appends the committed round's placement diff. *)
  val round : t -> Scheduler.round -> now:float -> unit

  (** [rebase w sched ~now] rewrites the snapshot as a fresh base image
      of the current state, atomically (temp file + rename): a crash
      mid-rebase leaves the previous snapshot loadable. Used on graceful
      shutdown and whenever the journal would record something replay
      cannot reproduce (e.g. direct graph perturbations). *)
  val rebase : t -> Scheduler.t -> now:float -> unit

  val close : t -> unit
end

type restored = {
  scheduler : Scheduler.t;
  now : float;  (** the last timestamp in the snapshot; resume the clock here *)
}

(** [restore_file ?config ~policy path] rebuilds a scheduler from a
    snapshot (see the module docs for the mechanism). [config]/[policy]
    are the {!Scheduler.create} parameters — the snapshot stores state,
    not configuration. @raise Corrupt on an unloadable snapshot. *)
val restore_file :
  ?config:Scheduler.config ->
  policy:Policy.factory ->
  string ->
  restored

val restore_string :
  ?config:Scheduler.config ->
  policy:Policy.factory ->
  string ->
  restored
