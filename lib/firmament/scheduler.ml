module FN = Flow_network

let log = Logs.Src.create "firmament.scheduler" ~doc:"Firmament scheduling rounds"

module Log = (val Logs.src_log log)

(* Telemetry ids, registered once at module init. Round phases are
   measured with contiguous checkpoints (each phase starts where the
   previous ended), so the per-phase durations of a round sum exactly to
   its wall time — that is what lets a deadline-bounded [`Partial] round
   show where the budget went. *)
let m = Telemetry.Metrics.global ()
let tr = Telemetry.Trace.global ()

let m_rounds =
  Telemetry.Metrics.counter m ~help:"scheduling rounds run" "sched_rounds_total"

let m_rounds_partial =
  Telemetry.Metrics.counter m ~help:"rounds degraded to partial (deadline hit)"
    "sched_rounds_partial_total"

let m_rounds_failed =
  Telemetry.Metrics.counter m ~help:"rounds failed (infeasible after scratch retry)"
    "sched_rounds_failed_total"

let m_rounds_retried =
  Telemetry.Metrics.counter m ~help:"rounds that needed the from-scratch retry"
    "sched_rounds_retried_total"

let m_started =
  Telemetry.Metrics.counter m ~help:"task starts committed" "sched_tasks_started_total"

let m_migrated =
  Telemetry.Metrics.counter m ~help:"task migrations committed"
    "sched_tasks_migrated_total"

let m_preempted =
  Telemetry.Metrics.counter m ~help:"task preemptions committed"
    "sched_tasks_preempted_total"

let m_unscheduled =
  Telemetry.Metrics.gauge m ~help:"tasks left waiting after the latest round"
    "sched_unscheduled_tasks"

let m_round_ns =
  Telemetry.Metrics.histogram m ~help:"whole-round wall time (ns)" "sched_round_ns"

let m_refresh_ns =
  Telemetry.Metrics.histogram m ~help:"policy-refresh phase (ns)" "sched_phase_refresh_ns"

let m_solve_ns =
  Telemetry.Metrics.histogram m ~help:"solve phase incl. infeasibility retry (ns)"
    "sched_phase_solve_ns"

(* Split attribution of the solve phase: [win] is the winning solver's
   algorithm runtime (retry attempts included), [wait] is everything else
   the round spent inside the solve phase — scratch copies, a cancelled
   hedge's stop latency, the hedge join. These are observability
   sub-phases of [sched_phase_solve_ns], not additional round phases:
   win + wait ≈ solve, and the round's phase list is unchanged. *)
let m_solve_win_ns =
  Telemetry.Metrics.histogram m ~help:"winning solver's algorithm runtime (ns)"
    "sched_phase_solve_win_ns"

let m_solve_wait_ns =
  Telemetry.Metrics.histogram m
    ~help:"solve-phase time beyond the winner: losers, copies, join (ns)"
    "sched_phase_solve_wait_ns"

let m_adopt_ns =
  Telemetry.Metrics.histogram m ~help:"graph adoption phase (swap + recycle) (ns)"
    "sched_phase_adopt_ns"

let m_extract_ns =
  Telemetry.Metrics.histogram m ~help:"placement extraction phase (ns)"
    "sched_phase_extract_ns"

let m_prepare_ns =
  Telemetry.Metrics.histogram m ~help:"price-refine preparation phase (ns)"
    "sched_phase_prepare_ns"

let m_apply_ns =
  Telemetry.Metrics.histogram m ~help:"placement-diff application phase (ns)"
    "sched_phase_apply_ns"

(* Graph-change batch applied since the previous round's solve. *)
let m_chg_structural =
  Telemetry.Metrics.counter m ~help:"structural graph changes applied"
    "sched_graph_structural_changes_total"

let m_chg_cost =
  Telemetry.Metrics.counter m ~help:"arc cost changes applied"
    "sched_graph_cost_changes_total"

let m_chg_capacity =
  Telemetry.Metrics.counter m ~help:"arc capacity changes applied"
    "sched_graph_capacity_changes_total"

let m_chg_supply =
  Telemetry.Metrics.counter m ~help:"node supply changes applied"
    "sched_graph_supply_changes_total"

let m_capacity_discards =
  Telemetry.Metrics.counter m
    ~help:"placements discarded at commit by the authoritative capacity re-check"
    "sched_capacity_discards_total"

let t_refresh = Telemetry.Trace.register tr "sched.refresh"
let t_solve = Telemetry.Trace.register tr "sched.solve"
let t_adopt = Telemetry.Trace.register tr "sched.adopt"
let t_extract = Telemetry.Trace.register tr "sched.extract"
let t_prepare = Telemetry.Trace.register tr "sched.prepare"
let t_apply = Telemetry.Trace.register tr "sched.apply"

type config = {
  mode : Mcmf.Race.mode;
  alpha : int;
  price_refine : bool;
  drain_on_removal : bool;
  deadline : float option;
}

let default_config =
  {
    mode = Mcmf.Race.Race;
    alpha = 9;
    price_refine = true;
    drain_on_removal = true;
    deadline = None;
  }

type degraded = [ `None | `Partial | `Infeasible_retry | `Failed ]

let pp_degraded ppf d =
  Format.pp_print_string ppf
    (match d with
    | `None -> "none"
    | `Partial -> "partial"
    | `Infeasible_retry -> "infeasible-retry"
    | `Failed -> "failed")

type round = {
  winner : Mcmf.Race.winner;
  solver_stats : Mcmf.Solver_intf.stats;
  relaxation_stats : Mcmf.Solver_intf.stats option;
  cost_scaling_stats : Mcmf.Solver_intf.stats option;
  algorithm_runtime : float;
  degraded : degraded;
  started : (Cluster.Types.task_id * Cluster.Types.machine_id) list;
  migrated :
    (Cluster.Types.task_id * Cluster.Types.machine_id * Cluster.Types.machine_id) list;
  preempted : Cluster.Types.task_id list;
  unscheduled : int;
  discarded : Cluster.Types.task_id list;
  phase_ns : (string * int) list;
}

type t = {
  config : config;
  cluster : Cluster.State.t;
  net : FN.t;
  policy : Policy.t;
  race : Mcmf.Race.t;
  (* Reusable extraction workspace: delta decomposition of the last
     adopted optimal flow plus scratch budgets for the pseudoflow walks. *)
  ws : Placement.workspace;
  (* Tasks whose delta-reported assignment the capacity re-check
     discarded at commit: the decomposition thinks they are placed, the
     cluster does not, and the flow may not move again — re-emit their
     stored assignment on the next delta commit so they are not lost. *)
  retry : (Cluster.Types.task_id, unit) Hashtbl.t;
  (* Change-summary totals at the previous solve, for per-round deltas
     (the summary on the graph accumulates; nobody may reset it here —
     incremental solvers read it through their own channel). *)
  mutable last_changes : Flowgraph.Graph.change_summary;
  (* Debug observer for the fuzz harness: called once per committed round
     with the round record, the canonical post-commit graph and — on rounds
     that adopted a certified-optimal solve — a pre-commit snapshot of that
     solution (the post-commit graph itself already carries the placement
     diff's policy mutations, so it is not the thing the solver certified). *)
  mutable observer :
    (round -> Flowgraph.Graph.t -> certified:Flowgraph.Graph.t option -> unit)
    option;
}

(* Pre-size the flow graph from the cluster's shape so steady-state
   rounds rarely pay growth doublings: one node per machine/rack plus
   roughly one task per slot (with aggregator and churn headroom), and two
   arcs per hinted node. That covers Quincy and load-spread graphs up to
   full utilization (1.0 and 1.8 arcs per hinted node at 95%, 1,000
   machines); network-aware graphs can reach 2.8 and grow once. The hint
   sizes the canonical graph and both pooled scratch copies, and a
   forward arc of headroom is ~20 resident words in each (two residual
   slots across ten per-arc arrays): at 4 arcs per hinted node the
   2,500-machine Quincy cluster carried ~65 MB of never-used arc
   storage. *)
let size_hints cluster =
  let topo = Cluster.State.topology cluster in
  let machines = Cluster.Topology.machine_count topo in
  let slots = Cluster.Topology.total_slots topo in
  let node_hint = (2 * (machines + slots)) + 64 in
  (node_hint, 2 * node_hint)

(* The network and the cluster are the scheduler's whole state (the
   assignment is the cluster's running set; policies read their arcs
   from the network), so a fresh scheduler and one rebuilt from a
   snapshot differ only in where [net] comes from. A restore passes
   [preallocate:false]: it must be live fast, and the eagerly
   over-provisioned scratch-graph pool costs seconds of zeroing + GC
   marking at large scale. The solver workspaces are still reserved;
   only the first post-restore solve's working copies are allocated
   lazily, at the actual graph size. *)
let make ~preallocate ?(config = default_config) cluster ~net ~policy =
  let node_hint, arc_hint = size_hints cluster in
  let p = policy ~drain:config.drain_on_removal net cluster in
  {
    config;
    cluster;
    net;
    policy = p;
    race =
      Mcmf.Race.create ~alpha:config.alpha ~price_refine:config.price_refine ~preallocate
        ~node_hint ~arc_hint ~mode:config.mode ();
    ws = Placement.create_workspace ~node_hint ~arc_hint ();
    retry = Hashtbl.create 16;
    last_changes = Flowgraph.Graph.peek_changes (FN.graph net);
    observer = None;
  }

let create ?config cluster ~policy =
  let node_hint, arc_hint = size_hints cluster in
  make ~preallocate:true ?config cluster ~net:(FN.create ~node_hint ~arc_hint ()) ~policy

let of_restored ?config cluster ~net ~policy =
  make ~preallocate:false ?config cluster ~net ~policy

(* Arm the incremental-repair path on the restored warm start: certify
   the canonical graph (potentials + flow from the snapshot) exactly as
   an adopted optimal round would. Called once, after snapshot replay
   has finished mutating the graph. *)
let prepare_warm t = Mcmf.Race.prepare t.race (FN.graph t.net)

let network t = t.net
let cluster t = t.cluster
let policy_name t = t.policy.Policy.name

let submit_job t job =
  Cluster.State.submit_job t.cluster job;
  Array.iter (fun task -> t.policy.Policy.task_submitted task) job.Cluster.Workload.tasks

let finish_task t tid ~now =
  Cluster.State.finish t.cluster tid ~now;
  t.policy.Policy.task_finished (Cluster.State.task t.cluster tid)

let fail_machine t m =
  let victims = Cluster.State.fail_machine t.cluster m in
  t.policy.Policy.machine_failed m;
  List.iter
    (fun tid -> t.policy.Policy.task_preempted (Cluster.State.task t.cluster tid))
    victims

let restore_machine t m =
  Cluster.State.restore_machine t.cluster m;
  t.policy.Policy.machine_restored m

(* Kick a running task back to the wait queue (an operator or fuzz-harness
   event, not a solver decision). *)
let preempt_task t tid =
  Cluster.State.preempt t.cluster tid;
  t.policy.Policy.task_preempted (Cluster.State.task t.cluster tid)

let set_round_observer t obs = t.observer <- obs

(* Where [tid] runs: the cluster's running set is the assignment. *)
let machine_of t tid = Cluster.Workload.machine_of (Cluster.State.task t.cluster tid)

(* Start [tid] on [mm] if the authoritative cluster state still allows
   it — the task is waiting, the machine live with a free slot — moving
   the cluster and the policy together. [false] means the placement was
   refused. *)
let start_if_free t tid mm ~now =
  Cluster.Workload.is_waiting (Cluster.State.task t.cluster tid)
  && Cluster.State.free_slots_on t.cluster mm > 0
  && begin
       Cluster.State.place t.cluster tid mm ~now;
       t.policy.Policy.task_started (Cluster.State.task t.cluster tid) mm;
       true
     end

(* Replay one committed placement from a snapshot journal through the
   same apply path a live commit uses: cluster transition, policy
   notification (so the warm graph absorbs the reroute exactly as it did
   originally). Each step is guarded by the same
   authoritative re-checks commit performs, so a corrupt or re-ordered
   journal degrades to skipped records rather than exceptions. *)
let replay_placement t ~now action =
  let place tid mm = ignore (start_if_free t tid mm ~now) in
  let preempt tid =
    if Cluster.Workload.is_running (Cluster.State.task t.cluster tid) then
      preempt_task t tid
  in
  match action with
  | `Start (tid, mm) -> place tid mm
  | `Migrate (tid, mm) ->
      preempt tid;
      place tid mm
  | `Preempt tid -> preempt tid

(* Extract best-effort placements from a deadline-stopped solver's
   pseudoflow: it is a structure-preserving copy of the canonical graph,
   so the live network tables describe it and it can be mounted directly.
   The canonical graph must come back even if extraction raises — an
   exception here must not leave the network pointing at the transient
   pseudoflow. *)
let extract_partial_live t partial_graph =
  let keep = FN.graph t.net in
  Fun.protect
    ~finally:(fun () -> FN.set_graph t.net keep)
    (fun () ->
      FN.set_graph t.net partial_graph;
      Placement.extract_partial ~workspace:t.ws t.net)

(* Commit the feasible fraction of a deadline-stopped round: start waiting
   tasks whose unit of flow reached a machine in the intermediate
   pseudoflow. Running tasks are left alone — a half-solved flow is no
   grounds for migrations or preemptions — and every start is re-checked
   against the authoritative cluster state (task waiting, slot free), so
   only valid placements commit. *)
let commit_starts t ~now placements =
  let starts = ref [] in
  let discarded = ref [] in
  List.iter
    (fun { Placement.task; machine } ->
      match machine with
      | Some mm when machine_of t task = None ->
          if start_if_free t task mm ~now then starts := (task, mm) :: !starts
          else begin
            discarded := task :: !discarded;
            Telemetry.Metrics.incr m m_capacity_discards
          end
      | Some _ | None -> ())
    placements;
  (List.rev !starts, List.rev !discarded)

(* Diff the solver's placements against the current assignment and apply
   them: preemptions and migration sources first, so their slots are free,
   then the places — each re-checked against the authoritative cluster
   state, so a slot can never be double-booked. *)
let commit_diff t ~now placements =
  let starts = ref [] and migrations = ref [] and preempts = ref [] in
  let discarded = ref [] in
  let discard tid =
    discarded := tid :: !discarded;
    Telemetry.Metrics.incr m m_capacity_discards
  in
  List.iter
    (fun { Placement.task; machine } ->
      match (machine_of t task, machine) with
      | None, Some mm -> starts := (task, mm) :: !starts
      | Some m_old, Some m_new when m_old <> m_new ->
          migrations := (task, m_old, m_new) :: !migrations
      | Some _, Some _ | None, None -> ()
      | Some _, None -> preempts := task :: !preempts)
    placements;
  List.iter (preempt_task t) !preempts;
  List.iter (fun (tid, _, _) -> Cluster.State.preempt t.cluster tid) !migrations;
  let placed_migrations = ref [] in
  List.iter
    (fun (tid, m_old, m_new) ->
      if Cluster.State.free_slots_on t.cluster m_new > 0 then begin
        Cluster.State.place t.cluster tid m_new ~now;
        t.policy.Policy.task_started (Cluster.State.task t.cluster tid) m_new;
        placed_migrations := (tid, m_old, m_new) :: !placed_migrations
      end
      else begin
        (* The slot vanished under the migration; the task was already
           preempted above and returns to the wait queue. *)
        t.policy.Policy.task_preempted (Cluster.State.task t.cluster tid);
        discard tid
      end)
    !migrations;
  let placed_starts = ref [] in
  List.iter
    (fun (tid, mm) ->
      if start_if_free t tid mm ~now then placed_starts := (tid, mm) :: !placed_starts
      else discard tid)
    !starts;
  (!placed_starts, !placed_migrations, List.rev !preempts, List.rev !discarded)

(* Per-round delta of the graph's cumulative change summary, exported as
   telemetry. Clamped at zero: adopting a different graph object can
   lower the totals. *)
let record_changes t =
  let open Flowgraph.Graph in
  let s = peek_changes (FN.graph t.net) in
  let prev = t.last_changes in
  let d a b = max 0 (a - b) in
  let structural = d s.structural prev.structural in
  let capacity = d s.capacity_changes prev.capacity_changes in
  let supply = d s.supply_changes prev.supply_changes in
  Telemetry.Metrics.add m m_chg_structural structural;
  Telemetry.Metrics.add m m_chg_cost (d s.cost_changes prev.cost_changes);
  Telemetry.Metrics.add m m_chg_capacity capacity;
  Telemetry.Metrics.add m m_chg_supply supply;
  t.last_changes <- s

let schedule ?stop t ~now =
  Telemetry.Metrics.incr m m_rounds;
  Telemetry.Trace.new_round tr;
  let ck0 = Telemetry.Clock.now_ns () in
  t.policy.Policy.refresh ~now;
  let ck1 = Telemetry.Clock.now_ns () in
  Telemetry.Trace.span tr ~phase:t_refresh ~t0:ck0 ~t1:ck1;
  Telemetry.Metrics.observe m m_refresh_ns (ck1 - ck0);
  record_changes t;
  (* The round deadline covers the whole round, retry included: the stop
     predicate is armed here and shared by every solve of this round. *)
  let stop =
    let base = Option.value stop ~default:Mcmf.Solver_intf.never_stop in
    match t.config.deadline with
    | None -> base
    | Some d -> Mcmf.Solver_intf.either_stop base (Mcmf.Solver_intf.deadline_stop d)
  in
  (* Path choice: in [Race] mode every round on a certified graph first
     tries the O(changes) repair; the kernel gives up on any doubt, or
     once its searches outgrow the graph, and the full race runs instead.
     Every other mode runs its solver(s). *)
  let first = Mcmf.Race.solve ~stop t.race (FN.graph t.net) in
  let result, retried =
    match first.Mcmf.Race.stats.Mcmf.Solver_intf.outcome with
    | Mcmf.Solver_intf.Infeasible ->
        (* A warm start facing heavy churn can report a transient
           infeasibility; one fresh attempt (reset flow, scratch ε)
           separates that from a genuinely unroutable network. *)
        Log.warn (fun m -> m "round@%.3f infeasible; retrying from scratch" now);
        (Mcmf.Race.solve ~stop ~scratch:true t.race (FN.graph t.net), true)
    | Mcmf.Solver_intf.Optimal | Mcmf.Solver_intf.Stopped -> (first, false)
  in
  let ck2 = Telemetry.Clock.now_ns () in
  Telemetry.Trace.span tr ~phase:t_solve ~t0:ck1 ~t1:ck2;
  Telemetry.Metrics.observe m m_solve_ns (ck2 - ck1);
  if retried then Telemetry.Metrics.incr m m_rounds_retried;
  (* Close the round: shared metric recording plus the contiguous phase
     list ([("refresh", …); ("solve", …); branch phases]) whose durations
     sum to the round's wall time by construction. *)
  let close_round ?certified ~tail r =
    let wall = ck2 - ck0 + List.fold_left (fun acc (_, d) -> acc + d) 0 tail in
    Telemetry.Metrics.observe m m_round_ns wall;
    Telemetry.Metrics.add m m_started (List.length r.started);
    Telemetry.Metrics.add m m_migrated (List.length r.migrated);
    Telemetry.Metrics.add m m_preempted (List.length r.preempted);
    Telemetry.Metrics.set m m_unscheduled r.unscheduled;
    let r = { r with phase_ns = ("refresh", ck1 - ck0) :: ("solve", ck2 - ck1) :: tail } in
    (match t.observer with
    | Some f -> f r (FN.graph t.net) ~certified
    | None -> ());
    r
  in
  let algorithm_runtime =
    result.Mcmf.Race.stats.Mcmf.Solver_intf.runtime
    +. (if retried then first.Mcmf.Race.stats.Mcmf.Solver_intf.runtime else 0.)
  in
  (* Split solve attribution: winner's algorithm runtime vs everything
     else the phase spent (copies, the hedge's cancel latency and join). *)
  let win_ns = Telemetry.Clock.ns_of_s algorithm_runtime in
  Telemetry.Metrics.observe m m_solve_win_ns win_ns;
  Telemetry.Metrics.observe m m_solve_wait_ns (max 0 (ck2 - ck1 - win_ns));
  let base =
    {
      winner = result.Mcmf.Race.winner;
      solver_stats = result.Mcmf.Race.stats;
      relaxation_stats = result.Mcmf.Race.relaxation_stats;
      cost_scaling_stats = result.Mcmf.Race.cost_scaling_stats;
      algorithm_runtime;
      degraded = `None;
      started = [];
      migrated = [];
      preempted = [];
      unscheduled = 0;
      discarded = [];
      phase_ns = [];
    }
  in
  match result.Mcmf.Race.stats.Mcmf.Solver_intf.outcome with
  | Mcmf.Solver_intf.Infeasible ->
      (* Both attempts infeasible: report a failed round, keep the
         pre-round graph (Race returned it untouched) so the next round
         starts from coherent state. *)
      Telemetry.Metrics.incr m m_rounds_failed;
      Log.warn (fun m ->
          m "round@%.3f failed: infeasible after scratch retry; %d tasks left waiting" now
            (Cluster.State.waiting_count t.cluster));
      let unscheduled = Cluster.State.waiting_count t.cluster in
      let ck3 = Telemetry.Clock.now_ns () in
      Telemetry.Trace.span tr ~phase:t_apply ~t0:ck2 ~t1:ck3;
      Telemetry.Metrics.observe m m_apply_ns (ck3 - ck2);
      close_round
        ~tail:[ ("apply", ck3 - ck2) ]
        { base with degraded = `Failed; unscheduled }
  | Mcmf.Solver_intf.Stopped ->
      (* Deadline hit: the canonical graph stays at the pre-round warm
         start; the stopped solver's pseudoflow is only read for
         best-effort placements. *)
      Telemetry.Metrics.incr m m_rounds_partial;
      let started, discarded, ext_end =
        match result.Mcmf.Race.partial with
        | Some pg ->
            let placements = extract_partial_live t pg in
            let ext_end = Telemetry.Clock.now_ns () in
            let started, discarded = commit_starts t ~now placements in
            (* The pseudoflow has been consumed; let the next round reuse
               its storage. *)
            Mcmf.Race.recycle t.race pg;
            (started, discarded, ext_end)
        | None -> ([], [], ck2)
      in
      List.iter (fun tid -> Hashtbl.replace t.retry tid ()) discarded;
      Log.debug (fun m ->
          m "round@%.3f degraded to partial: %d best-effort starts, %d waiting" now
            (List.length started)
            (Cluster.State.waiting_count t.cluster));
      let unscheduled = Cluster.State.waiting_count t.cluster in
      let ck3 = Telemetry.Clock.now_ns () in
      Telemetry.Trace.span tr ~phase:t_extract ~t0:ck2 ~t1:ext_end;
      Telemetry.Trace.span tr ~phase:t_apply ~t0:ext_end ~t1:ck3;
      Telemetry.Metrics.observe m m_extract_ns (ext_end - ck2);
      Telemetry.Metrics.observe m m_apply_ns (ck3 - ext_end);
      close_round
        ~tail:[ ("extract", ext_end - ck2); ("apply", ck3 - ext_end) ]
        { base with degraded = `Partial; started; unscheduled; discarded }
  | Mcmf.Solver_intf.Optimal ->
      let replaced = FN.graph t.net in
      (* Swap-on-optimal: the displaced canonical graph becomes the next
         round's scratch copy instead of garbage. An in-place repair
         already left its result in the canonical graph: nothing to swap. *)
      if result.Mcmf.Race.graph != replaced then begin
        FN.set_graph t.net result.Mcmf.Race.graph;
        Mcmf.Race.recycle t.race replaced
      end;
      (* The adopted graph carries its own cumulative summary; re-sync the
         delta baseline so the next round doesn't misattribute. *)
      t.last_changes <- Flowgraph.Graph.peek_changes (FN.graph t.net);
      (* Snapshot the certified-optimal solution for the observer before
         the placement diff reroutes started tasks' arcs. Copy only on
         demand: the hook is a debug facility, off in production. The
         canonical potentials may be in cost scaling's scaled units (a
         repaired round keeps them there), so the copy is re-priced in
         cost units, which is what the validators check. A negative cycle
         leaves the potentials as they were, so the observer's validators
         reject the copy too. *)
      let certified =
        match t.observer with
        | Some _ ->
            let c = Flowgraph.Graph.copy (FN.graph t.net) in
            if not (Mcmf.Price_refine.run ~scale:1 c) then
              Log.err (fun m ->
                  m "round@%.3f: adopted flow has a negative residual cycle" now);
            Some c
        | None -> None
      in
      let ck3 = Telemetry.Clock.now_ns () in
      Telemetry.Trace.span tr ~phase:t_adopt ~t0:ck2 ~t1:ck3;
      Telemetry.Metrics.observe m m_adopt_ns (ck3 - ck2);
      (* Delta extraction: sync the stored decomposition to the adopted
         flow and get back only the tasks whose path was rebuilt (the
         first adopted round reports everything). Tasks whose earlier
         delta commit was discarded re-enter via the retry set — their
         flow may not move again, so the decomposition's stored
         assignment is re-stated until the cluster accepts or the solver
         re-routes them. *)
      let changes = Placement.extract_delta t.ws t.net in
      let changes =
        if Hashtbl.length t.retry = 0 then changes
        else
          Hashtbl.fold
            (fun tid () acc ->
              if List.exists (fun (tid', _) -> tid' = tid) acc then acc
              else
                match Placement.delta_lookup t.ws tid with
                | Some mo -> (tid, mo) :: acc
                | None -> acc)
            t.retry changes
      in
      Hashtbl.reset t.retry;
      let placements =
        List.rev_map (fun (task, machine) -> { Placement.task; machine }) changes
      in
      let ck4 = Telemetry.Clock.now_ns () in
      Telemetry.Trace.span tr ~phase:t_extract ~t0:ck3 ~t1:ck4;
      Telemetry.Metrics.observe m m_extract_ns (ck4 - ck3);
      (* Price refine runs on the untouched optimal solution, before the
         placement diff mutates the graph (paper §6.2). *)
      Mcmf.Race.prepare t.race (FN.graph t.net);
      let ck5 = Telemetry.Clock.now_ns () in
      Telemetry.Trace.span tr ~phase:t_prepare ~t0:ck4 ~t1:ck5;
      Telemetry.Metrics.observe m m_prepare_ns (ck5 - ck4);
      let started, migrated, preempted, discarded = commit_diff t ~now placements in
      List.iter (fun tid -> Hashtbl.replace t.retry tid ()) discarded;
      (* The delta change list omits tasks whose assignment did not move;
         the cluster's post-commit wait queue is the authoritative count. *)
      let unscheduled = Cluster.State.waiting_count t.cluster in
      Log.debug (fun m ->
          m "round@%.3f: %s won in %.4fs; %d started, %d migrated, %d preempted, %d waiting"
            now
            (match result.Mcmf.Race.winner with
            | Mcmf.Race.Relaxation -> "relaxation"
            | Mcmf.Race.Cost_scaling -> "cost scaling"
            | Mcmf.Race.Repair -> "incremental repair")
            base.algorithm_runtime (List.length started) (List.length migrated)
            (List.length preempted) unscheduled);
      let ck6 = Telemetry.Clock.now_ns () in
      Telemetry.Trace.span tr ~phase:t_apply ~t0:ck5 ~t1:ck6;
      Telemetry.Metrics.observe m m_apply_ns (ck6 - ck5);
      close_round ?certified
        ~tail:
          [
            ("adopt", ck3 - ck2);
            ("extract", ck4 - ck3);
            ("prepare", ck5 - ck4);
            ("apply", ck6 - ck5);
          ]
        {
          base with
          degraded = (if retried then `Infeasible_retry else `None);
          started;
          migrated;
          preempted;
          unscheduled;
          discarded;
        }

(* Debug/oracle access to the delta decomposition: what the workspace
   believes the last adopted flow assigned, or [None] before the first
   adopted round (or after a failed sync). *)
let decomposition t =
  if Placement.delta_synced t.ws then Some (Placement.delta_assignments t.ws)
  else None
