module G = Flowgraph.Graph
module FN = Firmament.Flow_network
module S = Firmament.Scheduler
module W = Cluster.Workload

type config = {
  machines : int;
  slots : int;
  inject_eps : int;
  modes : Mcmf.Race.mode list;
}

let default_config =
  { machines = 6; slots = 2; inject_eps = 1; modes = List.map snd Mcmf.Race.modes }

type failure = {
  f_mode : Mcmf.Race.mode;
  f_round : int;
  f_event : int;
  f_check : string;
  f_detail : string;
  f_graph : string;
}

let pp_failure ppf f =
  Format.fprintf ppf "[%s] %s at round %d (event %d): %s" (Mcmf.Race.mode_name f.f_mode)
    f.f_check f.f_round f.f_event f.f_detail

(* Per-mode interpreter state. [finished] remembers every task the trace
   finished, independently of the cluster's own bookkeeping — the point
   of the stale-commit check is to distrust the scheduler. *)
type st = {
  sched : S.t;
  cluster : Cluster.State.t;
  cfg : config;
  mode : Mcmf.Race.mode;
  finished : (int, unit) Hashtbl.t;
  mutable now : float;
  mutable round_idx : int;
  mutable event_idx : int;
  mutable fail : failure option;
}

let record st check detail =
  if st.fail = None then
    st.fail <-
      Some
        {
          f_mode = st.mode;
          f_round = st.round_idx;
          f_event = st.event_idx;
          f_check = check;
          f_detail = detail;
          f_graph = Flowgraph.Dimacs.emit_state (FN.graph (S.network st.sched));
        }

(* From-scratch SSP oracle: re-solve the committed instance with the
   slowest, simplest optimality-maintaining algorithm and compare
   objective costs. Runs on a copy; the canonical graph is never touched. *)
let oracle_check st g =
  let copy = G.copy g in
  G.reset_flow copy;
  let stats = Mcmf.Ssp.solve copy in
  match stats.Mcmf.Solver_intf.outcome with
  | Mcmf.Solver_intf.Optimal ->
      let oracle = G.total_cost copy and committed = G.total_cost g in
      if oracle <> committed then
        record st "oracle-cost"
          (Printf.sprintf
             "committed graph claims objective %d but the from-scratch SSP oracle \
              finds %d"
             committed oracle)
  | Mcmf.Solver_intf.Infeasible ->
      record st "oracle-infeasible"
        "oracle found the committed (supposedly optimal) instance infeasible"
  | Mcmf.Solver_intf.Stopped -> ()

(* Delta-extraction oracle: the scheduler's incremental decomposition
   (synced arc-by-arc across rounds) must describe the same flow as a
   from-scratch extraction of the certified solution. Attribution between
   tasks merging at an aggregator is ambiguous — either task may get the
   machine-bound unit — so the comparison is on the invariants every
   decomposition of one flow shares: the tracked task set, the per-machine
   task counts, and the number left unscheduled. The certified copy is
   mounted into the live network for the walk (same node ids, the tables
   stay valid) and the canonical graph is always restored. *)
let decomposition_check st cg =
  match S.decomposition st.sched with
  | None -> ()
  | Some delta -> (
      let net = S.network st.sched in
      let live = FN.graph net in
      match
        Fun.protect
          ~finally:(fun () -> FN.set_graph net live)
          (fun () ->
            FN.set_graph net cg;
            try Ok (Firmament.Placement.extract net) with Failure msg -> Error msg)
      with
      | Error msg ->
          record st "delta-extraction"
            (Printf.sprintf "full extraction of the certified flow failed: %s" msg)
      | Ok full ->
          let summarize asgs =
            let machines = Hashtbl.create 16 in
            let unsched = ref 0 in
            let tids = ref [] in
            List.iter
              (fun { Firmament.Placement.task; machine } ->
                tids := task :: !tids;
                match machine with
                | Some mm ->
                    Hashtbl.replace machines mm
                      (1 + Option.value ~default:0 (Hashtbl.find_opt machines mm))
                | None -> incr unsched)
              asgs;
            let counts =
              List.sort compare
                (Hashtbl.fold (fun mm n acc -> (mm, n) :: acc) machines [])
            in
            (List.sort compare !tids, counts, !unsched)
          in
          let d_tids, d_counts, d_unsched = summarize delta in
          let f_tids, f_counts, f_unsched = summarize full in
          if d_tids <> f_tids then
            record st "delta-extraction"
              (Printf.sprintf
                 "delta decomposition tracks %d tasks, full extraction %d, or the \
                  id sets differ"
                 (List.length d_tids) (List.length f_tids))
          else if d_counts <> f_counts || d_unsched <> f_unsched then
            record st "delta-extraction"
              (Printf.sprintf
                 "delta decomposition disagrees with full extraction: per-machine \
                  counts %s vs %s, unscheduled %d vs %d"
                 (String.concat ","
                    (List.map (fun (mm, n) -> Printf.sprintf "%d:%d" mm n) d_counts))
                 (String.concat ","
                    (List.map (fun (mm, n) -> Printf.sprintf "%d:%d" mm n) f_counts))
                 d_unsched f_unsched))

let known_phases =
  [ "refresh"; "solve"; "adopt"; "extract"; "prepare"; "apply" ]

let check_phases st (r : S.round) =
  (match r.S.phase_ns with
  | ("refresh", _) :: ("solve", _) :: _ -> ()
  | _ -> record st "phase-accounting" "phase_ns does not start [refresh; solve]");
  List.iter
    (fun (name, ns) ->
      if not (List.mem name known_phases) then
        record st "phase-accounting" (Printf.sprintf "unknown phase %S" name);
      if ns < 0 then
        record st "phase-accounting"
          (Printf.sprintf "phase %s has negative duration %d ns" name ns))
    r.S.phase_ns

(* The observer check battery, run on every committed round. [g] is the
   canonical post-commit graph (already carrying the placement diff's
   policy mutations); [certified] is the scheduler's pre-commit snapshot
   of the adopted optimal solution, present exactly when the round claims
   one — the graph on which feasibility/optimality/oracle checks are
   meaningful. *)
let check_round st (r : S.round) _post ~certified =
  if FN.validate_structure (S.network st.sched) <> [] then
    record st "structure"
      (String.concat "; " (FN.validate_structure (S.network st.sched)));
  check_phases st r;
  (* Commit sanity: capacity, liveness, staleness — on every rung of the
     degradation ladder. *)
  for m = 0 to st.cfg.machines - 1 do
    let running = Cluster.State.running_count st.cluster m in
    if running > st.cfg.slots then
      record st "capacity"
        (Printf.sprintf "machine %d runs %d tasks but has %d slots" m running
           st.cfg.slots)
  done;
  let check_placement tid mm =
    if Hashtbl.mem st.finished tid then
      record st "stale-commit"
        (Printf.sprintf "round committed finished task %d" tid);
    if not (Cluster.State.machine_is_live st.cluster mm) then
      record st "dead-machine"
        (Printf.sprintf "round placed task %d on dead machine %d" tid mm)
  in
  List.iter (fun (tid, mm) -> check_placement tid mm) r.S.started;
  List.iter (fun (tid, _, mm) -> check_placement tid mm) r.S.migrated;
  (* Optimality-side checks run on the certified snapshot, present exactly
     when the round adopted an optimal solve ([`None]/[`Infeasible_retry]);
     partial and failed rounds have no certified solution to validate. *)
  (match (r.S.degraded, certified) with
  | (`None | `Infeasible_retry), None ->
      record st "structure"
        "round claims an adopted optimal solve but carries no certified snapshot"
  | _, Some cg ->
      if not (Flowgraph.Validate.is_feasible cg) then
        record st "feasibility" "certified graph does not route all supply"
      else if not (Flowgraph.Validate.is_optimal cg) then
        record st "optimality"
          "certified graph has a negative-cost residual cycle (not optimal)"
      else begin
        oracle_check st cg;
        decomposition_check st cg
      end
  | (`Partial | `Failed), None -> ())

(* {1 Event application} *)

let running_tasks st =
  let acc = ref [] in
  Cluster.State.iter_tasks st.cluster (fun t ->
      if W.is_running t then acc := t.W.tid :: !acc);
  List.sort compare !acc

let pick lst k =
  match lst with [] -> None | _ -> Some (List.nth lst (k mod List.length lst))

let apply_submit st ~jid ~tasks ~duration ~locality =
  let tasks =
    Array.init (max 1 tasks) (fun i ->
        let block b = (locality + (i * 7) + (b * 13)) mod st.cfg.machines in
        W.make_task ~tid:((jid * 1000) + i) ~job:jid ~submit_time:st.now ~duration
          ~input_mb:(float_of_int (100 + (100 * (locality mod 8))))
          ~input_machines:[ block 0; block 1; block 2 ]
          ())
  in
  let klass =
    if locality mod 5 = 0 then Cluster.Types.Service else Cluster.Types.Batch
  in
  let job = W.make_job ~jid ~klass ~submit_time:st.now ~tasks in
  S.submit_job st.sched job;
  job

let apply_perturb st ~seed ~arcs =
  let g = FN.graph (S.network st.sched) in
  let live = ref [] in
  G.iter_arcs g (fun a -> live := a :: !live);
  match !live with
  | [] -> ()
  | _ ->
      let pool = Array.of_list !live in
      let rng = Random.State.make [| 0x70657274; seed |] in
      for _ = 1 to max 1 arcs do
        let a = pool.(Random.State.int rng (Array.length pool)) in
        if G.arc_is_live g a then begin
          let delta = Random.State.int rng 11 - 3 in
          G.set_cost g a (max 0 (G.cost g a + delta))
        end
      done

(* One scheduling round; [polls > 0] stops the solve after that many stop
   polls, a deterministic stand-in for a deadline. *)
let run_round st ~polls =
  let stop =
    if polls <= 0 then None
    else begin
      let n = ref 0 in
      Some
        (fun () ->
          incr n;
          !n > polls)
    end
  in
  let w0 = Telemetry.Clock.now_ns () in
  let r = S.schedule ?stop st.sched ~now:st.now in
  let w1 = Telemetry.Clock.now_ns () in
  let sum = List.fold_left (fun acc (_, d) -> acc + d) 0 r.S.phase_ns in
  if sum > w1 - w0 then
    record st "phase-accounting"
      (Printf.sprintf "round phases sum to %d ns, more than the measured %d ns wall"
         sum (w1 - w0));
  st.round_idx <- st.round_idx + 1;
  r

(* [journal] receives each resolved mutation as it is applied — the
   concrete job value, the picked task id, the committed round — so a
   crash-recovery run can mirror the trace into a snapshot journal.
   [`Perturb] has no journal encoding; the caller must rebase. *)
let apply_event ?journal st (ev : Dcsim.Churn.event) =
  let note j = match journal with Some f -> f j | None -> () in
  match ev with
  | Dcsim.Churn.Submit { jid; tasks; duration; locality } ->
      let job = apply_submit st ~jid ~tasks ~duration ~locality in
      note (`Job job)
  | Finish k -> (
      match pick (running_tasks st) k with
      | Some tid ->
          S.finish_task st.sched tid ~now:st.now;
          Hashtbl.replace st.finished tid ();
          note (`Finish (tid, st.now))
      | None -> ())
  | Preempt k -> (
      match pick (running_tasks st) k with
      | Some tid ->
          S.preempt_task st.sched tid;
          note (`Preempt tid)
      | None -> ())
  | Fail_machine m ->
      let m = m mod st.cfg.machines in
      if Cluster.State.machine_is_live st.cluster m then begin
        S.fail_machine st.sched m;
        note (`Fail_machine m)
      end
  | Restore_machine m ->
      let m = m mod st.cfg.machines in
      if not (Cluster.State.machine_is_live st.cluster m) then begin
        S.restore_machine st.sched m;
        note (`Restore_machine m)
      end
  | Perturb_costs { seed; arcs } ->
      apply_perturb st ~seed ~arcs;
      note `Perturb
  | Round { polls } -> note (`Round (run_round st ~polls))

let run_mode config mode events =
  let topo =
    Cluster.Topology.make ~machines:config.machines ~machines_per_rack:2
      ~slots_per_machine:config.slots ()
  in
  let cluster = Cluster.State.create topo in
  let sched =
    S.create ~config:{ S.default_config with mode } cluster
      ~policy:(fun ~drain net st -> Firmament.Policy_quincy.make ~drain net st)
  in
  let st =
    {
      sched;
      cluster;
      cfg = config;
      mode;
      finished = Hashtbl.create 64;
      now = 0.;
      round_idx = 0;
      event_idx = 0;
      fail = None;
    }
  in
  S.set_round_observer sched
    (Some (fun r g ~certified -> check_round st r g ~certified));
  let saved_floor = !Mcmf.Cost_scaling.debug_eps_floor in
  Mcmf.Cost_scaling.debug_eps_floor := max 1 config.inject_eps;
  Fun.protect
    ~finally:(fun () -> Mcmf.Cost_scaling.debug_eps_floor := saved_floor)
    (fun () ->
      (try
         List.iteri
           (fun i ev ->
             if st.fail = None then begin
               st.event_idx <- i;
               apply_event st ev;
               st.now <- st.now +. 0.5
             end)
           events
       with exn ->
         record st "exception"
           (Printf.sprintf "event %d raised %s" st.event_idx
              (Printexc.to_string exn)));
      match st.fail with Some f -> Error f | None -> Ok ())

let run config events =
  let rec go = function
    | [] -> Ok ()
    | mode :: rest -> (
        match run_mode config mode events with
        | Ok () -> go rest
        | Error f -> Error f)
  in
  go config.modes

(* {1 Crash-recovery fuzzing} *)

module Snapshot = Firmament.Snapshot

type crash_report = {
  cr_kills : int;
  cr_rounds : int;
  cr_restore_ns : int;
  cr_cold_ns : int;
}

let running_list cluster =
  let acc = ref [] in
  Cluster.State.iter_tasks cluster (fun t ->
      if W.is_running t then
        match W.machine_of t with
        | Some m -> acc := (t.W.tid, m) :: !acc
        | None -> ());
  List.sort compare !acc

let pp_asg lst =
  String.concat ","
    (List.map (fun (tid, m) -> Printf.sprintf "%d@%d" tid m) lst)

let crash_recovery_under config ~seed ~policy events =
  let mode =
    match config.modes with m :: _ -> m | [] -> Mcmf.Race.Race
  in
  let scfg = { S.default_config with mode } in
  let path = Filename.temp_file "firmament-crash" ".snap" in
  let rng = Random.State.make [| 0x6b696c6c; seed |] in
  let topo =
    Cluster.Topology.make ~machines:config.machines ~machines_per_rack:2
      ~slots_per_machine:config.slots ()
  in
  let cluster = Cluster.State.create topo in
  let sched = S.create ~config:scfg cluster ~policy in
  let fresh_st sched cluster =
    {
      sched;
      cluster;
      cfg = config;
      mode;
      finished = Hashtbl.create 64;
      now = 0.;
      round_idx = 0;
      event_idx = 0;
      fail = None;
    }
  in
  let st = ref (fresh_st sched cluster) in
  let install_observer () =
    S.set_round_observer !st.sched
      (Some (fun r g ~certified -> check_round !st r g ~certified))
  in
  install_observer ();
  let writer = ref (Snapshot.Writer.to_file ~path !st.sched ~now:0.) in
  let kills = ref 0 and restore_ns = ref 0 and cold_ns = ref 0 in
  let journal = function
    | `Job j -> Snapshot.Writer.event !writer (Snapshot.Job j)
    | `Finish (tid, t) -> Snapshot.Writer.event !writer (Snapshot.Finish (tid, t))
    | `Preempt tid -> Snapshot.Writer.event !writer (Snapshot.Preempt tid)
    | `Fail_machine m -> Snapshot.Writer.event !writer (Snapshot.Fail_machine m)
    | `Restore_machine m ->
        Snapshot.Writer.event !writer (Snapshot.Restore_machine m)
    | `Perturb ->
        (* direct graph re-pricing has no journal encoding: fold it into a
           fresh base image instead *)
        Snapshot.Writer.rebase !writer !st.sched ~now:!st.now
    | `Round r -> Snapshot.Writer.round !writer r ~now:!st.now
  in
  (* Kill the scheduler dead, restore from the snapshot, audit that no
     committed placement was lost or invented, then drive the first
     post-restore round — which the observer's oracle certifies like any
     other. *)
  let crash_and_restore () =
    incr kills;
    let s = !st in
    let committed = running_list s.cluster in
    let waiting_before = Cluster.State.waiting_count s.cluster in
    let live_before = Cluster.State.live_task_count s.cluster in
    Snapshot.Writer.close !writer;
    S.set_round_observer s.sched None;
    (* cold-failover baseline: re-solving the dead scheduler's instance
       from scratch with the production solver *)
    let cold_copy = G.copy (FN.graph (S.network s.sched)) in
    let c0 = Telemetry.Clock.now_ns () in
    ignore (Mcmf.Cost_scaling.solve (Mcmf.Cost_scaling.create ()) cold_copy);
    cold_ns := !cold_ns + (Telemetry.Clock.now_ns () - c0);
    let t0 = Telemetry.Clock.now_ns () in
    match Snapshot.restore_file ~config:scfg ~policy path with
    | exception Snapshot.Corrupt msg ->
        record s "crash-restore" (Printf.sprintf "snapshot corrupt: %s" msg);
        st := s
    | { Snapshot.scheduler = sched'; now = _ } ->
        let t1 = Telemetry.Clock.now_ns () in
        let cluster' = S.cluster sched' in
        let st' =
          {
            (fresh_st sched' cluster') with
            finished = s.finished;
            now = s.now;
            round_idx = s.round_idx;
            event_idx = s.event_idx;
            fail = s.fail;
          }
        in
        st := st';
        install_observer ();
        let restored = running_list cluster' in
        if restored <> committed then
          record st' "crash-lost-placement"
            (Printf.sprintf
               "committed placements before the crash [%s] differ from the \
                restored set [%s]"
               (pp_asg committed) (pp_asg restored));
        if Cluster.State.waiting_count cluster' <> waiting_before then
          record st' "crash-lost-placement"
            (Printf.sprintf "waiting set changed across the crash: %d -> %d"
               waiting_before
               (Cluster.State.waiting_count cluster'));
        if Cluster.State.live_task_count cluster' <> live_before then
          record st' "crash-lost-placement"
            (Printf.sprintf "live task count changed across the crash: %d -> %d"
               live_before
               (Cluster.State.live_task_count cluster'));
        if st'.fail = None then begin
          let t2 = Telemetry.Clock.now_ns () in
          ignore (run_round st' ~polls:0);
          let t3 = Telemetry.Clock.now_ns () in
          restore_ns := !restore_ns + (t1 - t0) + (t3 - t2)
        end;
        if st'.fail = None then
          writer := Snapshot.Writer.to_file ~path st'.sched ~now:st'.now
  in
  let wants_kill ev =
    (* consume randomness for every event so kill points stay a pure
       function of the seed *)
    let roll n = Random.State.int rng n = 0 in
    match (ev : Dcsim.Churn.event) with
    | Round _ -> roll 4 (* round boundary *)
    | _ -> roll 12
  in
  let saved_floor = !Mcmf.Cost_scaling.debug_eps_floor in
  Mcmf.Cost_scaling.debug_eps_floor := max 1 config.inject_eps;
  Fun.protect
    ~finally:(fun () ->
      Mcmf.Cost_scaling.debug_eps_floor := saved_floor;
      Snapshot.Writer.close !writer;
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (try
         List.iteri
           (fun i ev ->
             if !st.fail = None then begin
               !st.event_idx <- i;
               apply_event ~journal !st ev;
               !st.now <- !st.now +. 0.5;
               let kill = wants_kill ev in
               if !st.fail = None && kill then crash_and_restore ()
             end)
           events;
         (* every seed must exercise at least one restore *)
         if !st.fail = None && !kills = 0 then crash_and_restore ()
       with exn ->
         record !st "exception"
           (Printf.sprintf "event %d raised %s" !st.event_idx
              (Printexc.to_string exn)));
      match !st.fail with
      | Some f -> Error f
      | None ->
          Ok
            {
              cr_kills = !kills;
              cr_rounds = !st.round_idx;
              cr_restore_ns = !restore_ns;
              cr_cold_ns = !cold_ns;
            })

(* Every seed runs under every policy, each from a fresh cluster; the
   first failure names its policy. *)
let run_crash_recovery config ~seed events =
  List.fold_left
    (fun acc (name, policy) ->
      match acc with
      | Error _ -> acc
      | Ok r -> (
          match crash_recovery_under config ~seed ~policy events with
          | Ok r' ->
              Ok
                {
                  cr_kills = r.cr_kills + r'.cr_kills;
                  cr_rounds = r.cr_rounds + r'.cr_rounds;
                  cr_restore_ns = r.cr_restore_ns + r'.cr_restore_ns;
                  cr_cold_ns = r.cr_cold_ns + r'.cr_cold_ns;
                }
          | Error f ->
              Error { f with f_detail = Printf.sprintf "%s policy: %s" name f.f_detail }))
    (Ok { cr_kills = 0; cr_rounds = 0; cr_restore_ns = 0; cr_cold_ns = 0 })
    Firmament.Policies.all
