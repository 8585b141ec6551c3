(** Growable arrays.

    A thin dynamic-array implementation (OCaml 5.1's stdlib predates
    [Dynarray]). Elements are stored in a backing array that doubles on
    demand; all operations are amortized O(1). Used pervasively for node
    and arc storage in {!Graph}. *)

type 'a t

(** [create ?capacity ~dummy ()] is an empty vector whose backing array is
    pre-sized to at least [capacity] (default 8) slots. [dummy] fills
    unused backing slots and must be safe to retain (it is never returned
    by accessors). *)
val create : ?capacity:int -> dummy:'a -> unit -> 'a t

(** [make n ~dummy x] is a vector of length [n] filled with [x]. *)
val make : int -> dummy:'a -> 'a -> 'a t

val length : 'a t -> int

(** [get v i] is the [i]th element. @raise Invalid_argument if out of bounds. *)
val get : 'a t -> int -> 'a

val set : 'a t -> int -> 'a -> unit

(** [unsafe_get v i] / [unsafe_set v i x] skip the bounds check entirely
    (undefined behaviour out of bounds). Reserved for solver inner loops
    on indices proven live by construction — every other caller must use
    the checked API. See the "Memory discipline" section of DESIGN.md. *)
val unsafe_get : 'a t -> int -> 'a

val unsafe_set : 'a t -> int -> 'a -> unit

(** [unsafe_data v] is the backing array itself, [length v] valid
    elements long, for a kernel that hoists it out of a loop. It stays
    [v]'s storage only until the next operation that grows [v]. *)
val unsafe_data : 'a t -> 'a array

(** [push v x] appends [x] and returns its index. *)
val push : 'a t -> 'a -> int

(** [pop v] removes and returns the last element.
    @raise Invalid_argument on an empty vector. *)
val pop : 'a t -> 'a

(** [grow_to v n x] extends [v] with copies of [x] until its length is at
    least [n]; does nothing if already long enough. *)
val grow_to : 'a t -> int -> 'a -> unit

val clear : 'a t -> unit
val is_empty : 'a t -> bool
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val of_list : dummy:'a -> 'a list -> 'a t

(** [copy v] is an independent copy sharing no mutable state with [v]. *)
val copy : 'a t -> 'a t

(** [copy_into_int dst src] / [copy_into_bool dst src] make [dst]
    observationally equal to [src] without allocating when [dst]'s
    backing array already has capacity for [src]'s elements. Handle both
    growth and shrink; a no-op when [dst == src]. The elements move with
    one [memmove]: [Array.blit] on a polymorphic major-heap array would
    pay one write barrier per element (~4× slower on a graph's worth of
    arc arrays). *)
val copy_into_int : int t -> int t -> unit

val copy_into_bool : bool t -> bool t -> unit
