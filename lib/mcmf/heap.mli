(** Binary min-heap keyed by integer priority, with [decrease_key] support
    via element handles. Used by Dijkstra in {!Ssp} and by shortest-path
    subroutines. Elements are small non-negative ints (node ids). *)

type t

(** [create ~capacity] is an empty heap for elements in [0, capacity). *)
val create : capacity:int -> t

val is_empty : t -> bool
val size : t -> int

(** [insert h elt prio] inserts, or decreases the priority if [elt] is
    already present with a higher one. Increasing an existing priority is
    ignored. *)
val insert : t -> int -> int -> unit

(** [min_prio h] is the minimal priority, without removing its element.
    @raise Invalid_argument on an empty heap. *)
val min_prio : t -> int

(** [min_elt h] is the element with minimal priority, without removing
    it. @raise Invalid_argument on an empty heap. *)
val min_elt : t -> int

(** [pop_min h] removes and returns the element with minimal priority
    (read {!min_prio} first for its priority). Allocation-free.
    @raise Invalid_argument on an empty heap. *)
val pop_min : t -> int

val mem : t -> int -> bool
val clear : t -> unit
