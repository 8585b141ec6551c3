(** Differential churn fuzzing of the scheduler (the standing gate every
    perf PR must pass; see DESIGN.md "Testing & fuzzing").

    [run] interprets a {!Dcsim.Churn} trace against the {e real}
    {!Firmament.Scheduler} — Quincy policy, real solvers — once per
    requested race mode, and after {e every} committed round checks, via
    the scheduler's round observer hook:

    {ul
    {- {b oracle} — on adopted-optimal rounds, the certified snapshot's
       objective cost (the solved graph, captured before post-commit
       policy mutations reroute started tasks) equals a from-scratch
       {!Mcmf.Ssp} solve of the same instance (the differential check:
       every mode, warm start and heuristic must agree with the slow
       oracle);}
    {- {b validators} — {!Flowgraph.Validate.is_feasible} and
       {!Flowgraph.Validate.is_optimal} hold on the certified snapshot,
       and {!Firmament.Flow_network.validate_structure} reports no drift
       on the canonical graph;}
    {- {b commit sanity} — placements never oversubscribe machine slots,
       never name a finished task or a dead machine;}
    {- {b phase accounting} — each round's [phase_ns] is well-formed and
       sums to at most the measured wall time of the scheduling call.}}

    The first violated check aborts the run with a {!failure} carrying
    the failing mode, round/event indices and a DIMACS state dump
    ({!Flowgraph.Dimacs.emit_state}) of the post-commit graph. *)

type config = {
  machines : int;  (** cluster size (2 machines per rack) *)
  slots : int;  (** slots per machine *)
  inject_eps : int;
      (** fault injection: {!Mcmf.Cost_scaling.debug_eps_floor} for the
          duration of the run (1 = off). Lets tests and
          [firmament_fuzz --inject-eps] prove the harness catches a
          solver that silently stops at an ε-optimal flow. *)
  modes : Mcmf.Race.mode list;  (** race modes to run, in order *)
}

(** 6 machines × 2 slots, no injection, every mode of
    {!Mcmf.Race.modes}. *)
val default_config : config

type failure = {
  f_mode : Mcmf.Race.mode;  (** the race mode that failed *)
  f_round : int;  (** 0-based index of the committed round that failed *)
  f_event : int;  (** 0-based index of the trace event being applied *)
  f_check : string;
      (** which invariant broke: [oracle-cost], [oracle-infeasible],
          [optimality], [feasibility], [structure], [capacity],
          [stale-commit], [dead-machine], [phase-accounting] or
          [exception] *)
  f_detail : string;  (** one-line human explanation *)
  f_graph : string;
      (** {!Flowgraph.Dimacs.emit_state} dump of the canonical graph when
          the check fired (post-commit, or at the exception point) *)
}

val pp_failure : Format.formatter -> failure -> unit

(** [run config events] interprets the trace under each configured mode
    in turn; the first failing check wins. Deterministic for the
    single-solver modes ([relaxation], [incremental-cs], [quincy-cs]);
    the racing modes pick winners by wall clock, so distinct optima may
    steer later rounds differently between runs (the checks themselves
    are winner-independent). *)
val run : config -> Dcsim.Churn.event list -> (unit, failure) result

(** [run_mode config mode events] is {!run} restricted to one mode. *)
val run_mode :
  config -> Mcmf.Race.mode -> Dcsim.Churn.event list -> (unit, failure) result

(** Outcome of a clean crash-recovery run. *)
type crash_report = {
  cr_kills : int;  (** crash/restore cycles exercised (always ≥ 1) *)
  cr_rounds : int;  (** committed rounds, recovery rounds included *)
  cr_restore_ns : int;
      (** total ns from [restore_file] start to the first committed
          post-restore round, summed over kills *)
  cr_cold_ns : int;
      (** baseline: from-scratch production solves of the same instances *)
}

(** [run_crash_recovery config ~seed events] interprets the trace under
    the first configured mode, once per policy of
    {!Firmament.Policies.all}, while mirroring every resolved event into
    a {!Firmament.Snapshot} journal, and — at seed-determined points:
    after round boundaries and after arbitrary cluster events — kills the
    scheduler and restores it from the snapshot. Each restore asserts no
    committed placement was lost or invented ([crash-lost-placement]),
    waiting/live task counts survive, and then drives a recovery round
    through the same observer battery as {!run} — so the SSP oracle
    certifies every post-restore committed round. A snapshot that fails
    to load reports [crash-restore]. At least one kill always happens per
    policy, even on traces where the seed never fires. A failure's
    [f_detail] names its policy; the report sums over the policies. *)
val run_crash_recovery :
  config -> seed:int -> Dcsim.Churn.event list -> (crash_report, failure) result
