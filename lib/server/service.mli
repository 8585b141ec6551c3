(** The [firmament_serve] daemon: a persistent scheduler service
    multiplexing many concurrent socket clients onto one Firmament
    scheduler.

    {2 Threading model}

    A single-threaded, non-blocking [select] event loop owns everything:
    the listener, every client connection, the admission queue and the
    scheduler. One {!step} = one select round: accept, read + decode
    frames, admit events (ACK) or refuse them (NACK backpressure when the
    bounded queue is full), run a scheduling round when one is due, and
    flush outbound buffers. A round solves and commits inside the step
    that starts it ({!Firmament.Scheduler.schedule}; the [Race] hedge's
    second domain is joined before the solve returns), so no round is in
    flight between steps; the kernel socket buffers absorb the events
    that arrive meanwhile.

    {2 Round driving}

    Rounds are work-conserving. At the end of every {!step} that leaves
    an event in the admission queue, the server applies at most
    [batch_max] of them and runs a round at once; there is no batching
    delay. A batch is therefore whatever reached the socket buffers while
    the previous round ran, and the step's ACKs are flushed before that
    round starts. When more than [batch_max] events are queued, the rest
    wait for the next step, which does not block in [select]. With the
    queue empty and tasks still waiting, a backlog round retries them
    every 20 ms. Each committed round's placement diff is encoded once as
    a {!Protocol.Placement_delta} and broadcast to subscribers. A NACK's
    retry hint is twice the last round's wall time, at least 1 ms.

    {2 Shutdown}

    {!request_shutdown} (signal-handler safe) makes the next {!step} drain:
    drop the admitted events no round has applied yet, send every client a
    {!Protocol.Shutdown} frame, flush outbound buffers within a bounded
    grace period, close everything and mark the server {!finished} —
    clients see an orderly goodbye, not ECONNRESET. *)

type listen = Tcp of string * int | Unix_path of string

(** ["HOST:PORT"] or ["unix:PATH"]. *)
val listen_of_string : string -> (listen, string) result

val pp_listen : Format.formatter -> listen -> unit

type config = {
  listen : listen;
  metrics_listen : listen option;
      (** optional Prometheus scrape endpoint: answers any HTTP GET with
          the global telemetry registry in text exposition format *)
  machines : int;
  machines_per_rack : int;
  slots_per_machine : int;
  scheduler : Firmament.Scheduler.config;
  policy : Firmament.Policy.factory;
  batch_max : int;  (** most events applied per round *)
  queue_capacity : int;  (** admission-queue bound; overflow → NACK *)
  max_out_buffer : int;
      (** per-connection outbound cap in bytes; a subscriber that cannot
          keep up is dropped rather than allowed to wedge the loop *)
  shutdown_grace_s : float;  (** outbound flush budget during shutdown *)
  snapshot_path : string option;
      (** persist scheduler state here: a base image at startup, a
          flushed-per-record {!Firmament.Snapshot} journal entry per
          applied event and committed round, and a fresh base image
          (atomic rebase) on graceful shutdown *)
  restore : bool;
      (** if [snapshot_path] names an existing snapshot, resume from it
          instead of building a fresh cluster: the snapshot's topology
          and clock are authoritative ([machines]/[machines_per_rack]/
          [slots_per_machine] are ignored), the scheduler restarts
          warm-started, and subscribers that re-attach receive placements
          from the first post-restore round on *)
}

(** 250 machines (8 per rack, 16 slots), [Race] solver,
    4096-event queue, at most 1024 events per round, TCP on
    127.0.0.1:7117, no metrics endpoint, no snapshotting. *)
val default_config : config

type t

(** [create config] binds the listener(s) and builds the cluster +
    scheduler. SIGPIPE is set to ignore (writes to dead peers surface as
    [EPIPE] and close that connection).
    @raise Unix.Unix_error if binding fails. *)
val create : config -> t

val scheduler : t -> Firmament.Scheduler.t
val cluster : t -> Cluster.State.t
val rounds_committed : t -> int
val connections : t -> int

(** Admitted events no round has applied yet. *)
val queued : t -> int

(** [step t ~timeout_s] runs one event-loop iteration, blocking in
    [select] at most [timeout_s]. Safe to call after {!finished} (no-op).
    Exposed so tests can interleave a client and the server
    cooperatively in one process. *)
val step : t -> timeout_s:float -> unit

(** The [select] timeout {!run} passes to the next {!step}: 0 while
    events are queued, the backlog-round spacing while tasks wait, and
    50 ms when the server is idle. *)
val idle_timeout : t -> float

(** [run t] loops {!step} until a shutdown request completes. *)
val run : t -> unit

(** Ask for a graceful drain; the next {!step} performs it. Safe to call
    from a signal handler. *)
val request_shutdown : t -> unit

val finished : t -> bool

(** Force-close every fd without draining (test teardown). *)
val stop : t -> unit
