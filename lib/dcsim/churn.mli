(** Churn traces for the differential fuzz harness ({!Fuzz} library).

    A churn trace is a flat list of cluster events — task submit / finish /
    preempt, machine fail / restore, arc-cost perturbations — interleaved
    with scheduling rounds (full, or deadline-bounded via a deterministic
    poll budget). Every event is {e total} under any prefix
    or subsequence of the trace: selectors are indices reduced modulo the
    current population, and structurally impossible events degrade to
    no-ops. That tolerance is what lets the shrinker drop arbitrary
    events and still replay a valid trace.

    This module owns the event model, the seeded generator and the text
    serialization (one event per line, floats in lossless [%h] form);
    the interpretation against a live {!Firmament.Scheduler} lives in the
    [fuzz] library. *)

type event =
  | Submit of { jid : int; tasks : int; duration : float; locality : int }
      (** submit a [tasks]-task batch job; [locality] seeds the synthetic
          input-block machine ids *)
  | Finish of int  (** finish the [k mod running]-th running task *)
  | Preempt of int  (** preempt the [k mod running]-th running task *)
  | Fail_machine of int  (** fail machine [m mod machines] (no-op if dead) *)
  | Restore_machine of int
      (** restore machine [m mod machines] (no-op if alive) *)
  | Perturb_costs of { seed : int; arcs : int }
      (** deterministically re-price up to [arcs] live arcs of the
          canonical graph (costs only, clamped non-negative; never
          capacities or supplies, so feasibility is preserved) *)
  | Round of { polls : int }
      (** run a scheduling round. [polls <= 0] solves to completion;
          [polls > 0] stops the solve after that many stop polls — a
          deterministic stand-in for a wall-clock deadline *)

val pp : Format.formatter -> event -> unit

(** [generate ~seed ~machines ~length] draws a [length]-event trace,
    deterministically in [seed]. Job ids are unique within the trace (so
    any subsequence stays valid), and the trace always ends with a full
    [Round] so generated churn is actually scheduled. *)
val generate : seed:int -> machines:int -> length:int -> event list

(** One event per line; [of_line (to_line e) = e] (floats round-trip via
    hex notation). @raise Failure on a malformed line. *)
val to_line : event -> string

val of_line : string -> event
val to_lines : event list -> string list
val of_lines : string list -> event list
