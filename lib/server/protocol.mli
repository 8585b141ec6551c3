(** Wire protocol for the [firmament_serve] scheduler service.

    Frames are length-prefixed binary records over a byte stream (TCP or
    Unix-domain socket). Every frame starts with a fixed 12-byte header:

    {v
      offset  size  field
      0       2     magic        0xF1 0x4D
      2       1     version      (currently 1)
      3       1     frame tag
      4       4     payload length, big-endian unsigned
      8       4     CRC-32 (IEEE) of the payload, big-endian
      12      len   payload
    v}

    All payload integers are big-endian; 64-bit fields must be
    non-negative (they carry OCaml ints). Durations travel as the IEEE-754
    bits of a float ([Int64.bits_of_float]), so they round-trip exactly.

    Decoding is defensive: a frame with a bad magic, an unsupported
    version, an unknown tag, an oversized length prefix, a CRC mismatch or
    a payload that does not parse to exactly its declared length yields
    [`Error] — never an exception — and the server rejects the
    {e connection}, not the process. [`Need_more] means the buffer holds a
    valid prefix; feed more bytes and retry. *)

(** {1 Frames} *)

(** One task-placement decision pushed to subscribers. [p_machine] is
    [-1] for a preemption (the task returned to the wait queue);
    [p_from] is [-1] unless the placement is a migration. *)
type placement_kind = Start | Migrate | Preempt

type placement = {
  p_tid : int;
  p_kind : placement_kind;
  p_machine : int;
  p_from : int;
}

(** Client→server event frames carry a client-chosen sequence number
    [seq] (echoed in the matching {!Ack}/{!Nack}); task ids are derived
    deterministically from the job id ([tid = jid * 1000 + i], so
    [task_count <= 1000]), which lets clients match placement
    notifications without a server-side id-assignment round trip. *)
type frame =
  | Submit_job of {
      seq : int;
      jid : int;
          (** the server drops the submit while a job with this id has a
              live task; the id is free again once they have all finished *)
      task_count : int;  (** 1..1000 (decoder-enforced) *)
      duration : float;  (** task runtime in seconds *)
      locality : int;  (** seeds the synthetic input-block machines *)
    }
  | Finish_task of { seq : int; tid : int }
  | Preempt_task of { seq : int; tid : int }
  | Fail_machine of { seq : int; machine : int }
  | Restore_machine of { seq : int; machine : int }
      (** machine add/remove map onto restore/fail of the configured
          topology envelope (the machine set is fixed at server start) *)
  | Subscribe of { seq : int }
      (** receive {!Placement_delta} pushes on this connection *)
  | Stats_query of { seq : int }
  | Ack of { seq : int }  (** event admitted to the admission queue *)
  | Nack of { seq : int; retry_after_ms : int }
      (** backpressure: the admission queue is full (or the server is
          shutting down, [retry_after_ms = 0]); retry after the hint *)
  | Placement_delta of { round : int; placements : placement list }
      (** one committed scheduling round's placement diff, pushed to
          every subscriber *)
  | Stats_reply of { seq : int; json : string }
  | Shutdown of { reason : string }
      (** orderly goodbye: the server is closing this connection *)
  | Protocol_error of { message : string }
      (** sent (best-effort) before the server drops a connection that
          fed it a malformed frame *)

val pp : Format.formatter -> frame -> unit

(** {1 Codec} *)

val version : int
val header_size : int

(** Hard cap on a frame's payload length (1 MiB): anything larger is
    rejected as {!Oversized} before buffering, so a hostile length
    prefix cannot trigger an allocation spike. *)
val max_payload : int

type error =
  | Bad_magic
  | Bad_version of int
  | Unknown_tag of int
  | Oversized of int
  | Crc_mismatch
  | Malformed of string

val pp_error : Format.formatter -> error -> unit

(** [encode f] is the full wire representation (header + payload). *)
val encode : frame -> string

val encode_into : Buffer.t -> frame -> unit

(** [decode buf ~off ~len] attempts to parse one frame from
    [buf.[off .. off+len-1]]. [`Frame (f, consumed)] consumed exactly
    [consumed] bytes; [`Need_more] is an incomplete but so-far-valid
    prefix; [`Error] is a poisoned stream (the caller should drop the
    connection — resynchronization is not attempted). Never raises. *)
val decode :
  Bytes.t ->
  off:int ->
  len:int ->
  [ `Frame of frame * int | `Need_more | `Error of error ]

(** CRC-32 (IEEE 802.3, reflected, init/xorout [0xFFFFFFFF]) of
    [s.[off .. off+len-1]] — exposed for tests. *)
val crc32 : string -> off:int -> len:int -> int
