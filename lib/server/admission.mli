(** Bounded FIFO admission queue between the socket front-end and the
    scheduling rounds.

    The event loop pushes every decoded client event here; round driving
    pops batches (up to the configured batch size) and applies them to the
    scheduler between rounds. The bound is the
    backpressure mechanism: {!push} refusing an event is what turns into a
    NACK frame with a retry-after hint on the wire.

    Plain single-threaded ring buffer (the server's event loop owns it);
    pushes and pops are O(1) and allocation-free once the ring is built. *)

type 'a t

(** [create ~capacity] is an empty queue holding at most [capacity]
    (>= 1) elements. *)
val create : capacity:int -> 'a t

val capacity : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool
val is_full : 'a t -> bool

(** [push q x] appends [x]; [false] (and no change) when full. *)
val push : 'a t -> 'a -> bool

(** [pop q] removes the oldest element. *)
val pop : 'a t -> 'a option

(** [peek q] is the oldest element without removing it. *)
val peek : 'a t -> 'a option

(** Total elements ever refused by {!push} (the NACK count source). *)
val rejected : 'a t -> int
