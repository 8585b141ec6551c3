(** Trace-to-wire replay pacing: turns a {!Churn} trace into a timed
    event stream a socket client ([firmament_loadgen]) can replay against
    [firmament_serve] at a multiple of real time.

    Two concerns stay out of this module by design: the wire encoding
    (the [server] library's protocol — dcsim does not depend on it) and
    index resolution ([Finish k] / [Preempt k] select the [k mod running]-th
    running task, which only the client's live placement-subscription view
    can resolve at send time). Here we decide {e which} events go on the
    wire and {e when}. *)

type timed = { due : float;  (** seconds from replay start *) ev : Churn.event }

(** [wire_events trace] keeps the events a scheduler service accepts over
    its socket protocol — [Submit], [Finish], [Preempt], [Fail_machine],
    [Restore_machine] — and drops the simulator-only ones (explicit
    [Round], which the server's admission batching owns, and [Perturb_costs], which mutates the solver graph
    directly and has no wire representation). *)
val wire_events : Churn.event list -> Churn.event list

(** [schedule ~rate trace] paces {!wire_events}[ trace] at [rate] {e task
    events per second}: a [Submit] of [n] tasks weighs [n], every other
    event weighs 1, and each event's [due] is the cumulative weight before
    it divided by [rate]. Replaying the result in order, sleeping until
    each [due], reproduces the trace's event mix at the requested
    firehose intensity. @raise Invalid_argument if [rate <= 0]. *)
val schedule : rate:float -> Churn.event list -> timed list

(** [shard ~shards evs] deals a timed stream round-robin onto [shards]
    connections, preserving order and [due] within each shard.
    @raise Invalid_argument if [shards < 1]. *)
val shard : shards:int -> timed list -> timed list array
