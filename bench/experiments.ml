(* One function per table and figure of the paper's evaluation. Each
   prints the same rows/series the paper reports, at a machine scale set
   by [--scale] (1.0 = paper-sized clusters; the default keeps the full
   suite in laptop territory). See EXPERIMENTS.md for recorded outputs and
   the paper-vs-measured comparison. *)

module G = Flowgraph.Graph
module FN = Firmament.Flow_network
module S = Mcmf.Solver_intf
module Stats = Dcsim.Stats

let row = Stats.row
let header = Stats.header
let pp = Setup.pp_secs

(* {1 Static tables} *)

let table1 ~scale:_ () =
  header "Table 1: worst-case time complexities of MCMF algorithms";
  row [ "Algorithm"; "Worst-case complexity" ];
  row [ "Relaxation"; "O(M^3 C U^2)" ];
  row [ "Cycle canceling"; "O(N M^2 C U)" ];
  row [ "Cost scaling"; "O(N^2 M log(N C))" ];
  row [ "Succ. shortest path"; "O(N^2 U log N)" ];
  print_endline "(N nodes, M arcs, C max cost, U max capacity; M > N > C > U here)"

let table2 ~scale:_ () =
  header "Table 2: per-iteration preconditions of each algorithm";
  row [ "Algorithm"; "Feasibility"; "Red.-cost opt."; "eps-optimality" ];
  row [ "Relaxation"; "-"; "yes"; "-" ];
  row [ "Cycle canceling"; "yes"; "-"; "-" ];
  row [ "Cost scaling"; "yes"; "-"; "yes" ];
  row [ "Succ. shortest path"; "-"; "yes"; "-" ]

let table3 ~scale:_ () =
  header "Table 3: arc changes requiring solution reoptimization";
  let open Flowgraph.Changes in
  let show e =
    match (e.breaks_feasibility, e.breaks_optimality) with
    | false, false -> "ok"
    | true, false -> "breaks-feas"
    | false, true -> "breaks-opt"
    | true, true -> "breaks-both"
  in
  row [ "Change"; "cpi<0"; "cpi=0"; "cpi>0" ];
  (* Cells computed from the implementation, mirroring the paper's grid.
     Flow state per column follows complementary slackness: cpi<0 arcs are
     saturated, cpi>0 arcs are empty. *)
  row
    [
      "cap increase";
      show (capacity_change ~reduced_cost:(-1) ~flow:5 ~old_cap:5 ~new_cap:9);
      show (capacity_change ~reduced_cost:0 ~flow:2 ~old_cap:5 ~new_cap:9);
      show (capacity_change ~reduced_cost:1 ~flow:0 ~old_cap:5 ~new_cap:9);
    ];
  row
    [
      "cap decrease (f>u')";
      show (capacity_change ~reduced_cost:(-1) ~flow:5 ~old_cap:5 ~new_cap:3);
      show (capacity_change ~reduced_cost:0 ~flow:5 ~old_cap:5 ~new_cap:3);
      show (capacity_change ~reduced_cost:1 ~flow:0 ~old_cap:5 ~new_cap:3);
    ];
  row
    [
      "cost increase";
      show (cost_change ~reduced_cost_after:2 ~flow:5 ~forward_rescap:0);
      show (cost_change ~reduced_cost_after:1 ~flow:3 ~forward_rescap:2);
      show (cost_change ~reduced_cost_after:9 ~flow:0 ~forward_rescap:5);
    ];
  row
    [
      "cost decrease";
      show (cost_change ~reduced_cost_after:(-9) ~flow:5 ~forward_rescap:0);
      show (cost_change ~reduced_cost_after:(-1) ~flow:3 ~forward_rescap:2);
      show (cost_change ~reduced_cost_after:(-1) ~flow:0 ~forward_rescap:5);
    ]

(* {1 Solver scaling (Figs. 3 and 7)} *)

let measured_rounds s ~rounds ~solver =
  List.init rounds (fun i ->
      Setup.churn s ~frac:0.02 ~now:(float_of_int i);
      let stats, _g = Setup.time_solver s solver in
      stats.S.runtime)

let fig3 ~scale () =
  header "Figure 3: Quincy (from-scratch cost scaling) runtime vs cluster size";
  row [ "machines"; "p1"; "p25"; "p50"; "p75"; "p99"; "max" ];
  List.iter
    (fun machines ->
      let s = Setup.settle ~machines ~util:0.5 ~policy:Setup.Quincy ~seed:42 () in
      let st = Mcmf.Cost_scaling.create ~alpha:9 () in
      let runtimes =
        measured_rounds s ~rounds:7 ~solver:(fun g -> Mcmf.Cost_scaling.solve st g)
      in
      let p1, p25, p50, p75, p99 = Stats.five_number runtimes in
      row
        [
          string_of_int machines; pp p1; pp p25; pp p50; pp p75; pp p99;
          pp (Stats.maximum runtimes);
        ])
    (Setup.sizes ~scale [ 50; 450; 1250; 2500; 5000; 12500 ])

let fig7 ~scale () =
  header "Figure 7: average runtime of the four MCMF algorithms vs cluster size";
  row [ "machines"; "cycle-cancel"; "ssp"; "cost-scaling"; "relaxation" ];
  let deadline = 10. in
  (* Once an algorithm exceeds the deadline at some size, larger sizes are
     not attempted (the paper's plot similarly runs off the top). *)
  let cc_dead = ref false and ssp_dead = ref false in
  List.iter
    (fun machines ->
      let s = Setup.settle ~machines ~util:0.5 ~policy:Setup.Quincy ~seed:42 () in
      let measure solver =
        let xs =
          List.init 2 (fun i ->
              Setup.churn s ~frac:0.02 ~now:(float_of_int i);
              let stats, _ = Setup.time_solver s solver in
              (stats.S.outcome, stats.S.runtime))
        in
        if List.exists (fun (o, _) -> o = S.Stopped) xs then None
        else Some (Stats.mean (List.map snd xs))
      in
      let timed_out = Printf.sprintf ">=%.0fs" deadline in
      let show = function None -> timed_out | Some v -> pp v in
      let cc =
        if !cc_dead then timed_out
        else begin
          let r =
            measure (fun g -> Mcmf.Cycle_canceling.solve ~stop:(S.deadline_stop deadline) g)
          in
          if r = None then cc_dead := true;
          show r
        end
      in
      let ssp =
        if !ssp_dead then timed_out
        else begin
          let r = measure (fun g -> Mcmf.Ssp.solve ~stop:(S.deadline_stop deadline) g) in
          if r = None then ssp_dead := true;
          show r
        end
      in
      let cs =
        let st = Mcmf.Cost_scaling.create ~alpha:9 () in
        show (measure (fun g -> Mcmf.Cost_scaling.solve st g))
      in
      let rx = show (measure (fun g -> Mcmf.Relaxation.solve g)) in
      row [ string_of_int machines; cc; ssp; cs; rx ])
    (Setup.sizes ~scale [ 50; 1250; 2500; 5000; 12500 ])

(* {1 Relaxation edge cases (Figs. 8 and 9)} *)

let fig8 ~scale () =
  header "Figure 8: runtime near full cluster utilization (Quincy policy)";
  row [ "slot-util"; "relaxation"; "cost-scaling" ];
  let machines = max 100 (int_of_float (1250. *. scale)) in
  List.iter
    (fun target ->
      let s = Setup.settle ~machines ~util:0.90 ~policy:Setup.Quincy ~seed:42 () in
      let slots = Cluster.Topology.total_slots (Cluster.State.topology s.cluster) in
      let extra =
        int_of_float (float_of_int slots *. (target -. Cluster.State.utilization s.cluster))
      in
      if extra > 0 then Setup.submit_batch s ~n:extra ~now:1.;
      (* Relaxation's oversubscription blow-up is the point of the figure:
         cap the measurement and report the cap when exceeded. *)
      let deadline = 20. in
      let show (st : S.stats) =
        if st.S.outcome = S.Stopped then Printf.sprintf ">=%.0fs" deadline else pp st.S.runtime
      in
      let rx, _ =
        Setup.time_solver s (fun g -> Mcmf.Relaxation.solve ~stop:(S.deadline_stop deadline) g)
      in
      let st = Mcmf.Cost_scaling.create ~alpha:9 () in
      let cs, _ = Setup.time_solver s (fun g -> Mcmf.Cost_scaling.solve st g) in
      row [ Printf.sprintf "%.0f%%" (target *. 100.); show rx; show cs ])
    (* Targets beyond 100% are the paper's "oversubscribed case": more
       tasks than slots, the surplus forced onto unscheduled aggregators. *)
    [ 0.91; 0.93; 0.95; 0.97; 0.99; 1.0; 1.05; 1.15 ]

let fig9 ~scale () =
  header "Figure 9: arriving-job size vs runtime (load-spreading policy)";
  row [ "tasks-in-job"; "relaxation"; "cost-scaling" ];
  let machines = max 100 (int_of_float (1250. *. scale)) in
  List.iter
    (fun k ->
      let s = Setup.settle ~machines ~util:0.4 ~policy:Setup.Load_spread ~seed:42 () in
      Setup.submit_batch s ~n:k ~now:1.;
      let deadline = 20. in
      let show (st : S.stats) =
        if st.S.outcome = S.Stopped then Printf.sprintf ">=%.0fs" deadline else pp st.S.runtime
      in
      let rx, _ =
        Setup.time_solver s (fun g -> Mcmf.Relaxation.solve ~stop:(S.deadline_stop deadline) g)
      in
      let st = Mcmf.Cost_scaling.create ~alpha:9 () in
      let cs, _ = Setup.time_solver s (fun g -> Mcmf.Cost_scaling.solve st g) in
      row [ string_of_int k; show rx; show cs ])
    (List.filter_map
       (fun k ->
         let k = int_of_float (float_of_int k *. scale) in
         if k >= 10 then Some k else None)
       [ 100; 1000; 2000; 3000; 4000; 5000 ])

(* {1 Early termination (Fig. 10)} *)

let fig10 ~scale () =
  header "Figure 10: task misplacements under early termination";
  row [ "algorithm"; "fraction-of-runtime"; "misplaced-tasks" ];
  let machines = max 100 (int_of_float (1250. *. scale)) in
  let s = Setup.settle ~machines ~util:0.90 ~policy:Setup.Quincy ~seed:42 () in
  let slots = Cluster.Topology.total_slots (Cluster.State.topology s.cluster) in
  Setup.submit_batch s ~n:(slots / 12) ~now:1.;
  ignore (Firmament.Scheduler.schedule s.sched ~now:1.);
  Setup.churn s ~frac:0.05 ~now:2.;
  let net = Firmament.Scheduler.network s.sched in
  (* Reference optimum. *)
  let optimal_assignment solver =
    let _, g = Setup.time_solver s solver in
    let saved = FN.graph net in
    FN.set_graph net g;
    let m = Firmament.Placement.extract_partial net in
    FN.set_graph net saved;
    m
  in
  let misplacements ~full_runtime ~(solver : ?stop:S.stop -> G.t -> S.stats) =
    let reference = optimal_assignment (fun g -> solver g) in
    List.map
      (fun frac ->
        let deadline = full_runtime *. frac in
        let _, g =
          Setup.time_solver s (fun g -> solver ~stop:(S.deadline_stop deadline) g)
        in
        let saved = FN.graph net in
        FN.set_graph net g;
        let partial = Firmament.Placement.extract_partial net in
        FN.set_graph net saved;
        let mis =
          List.fold_left2
            (fun acc (a : Firmament.Placement.assignment) (b : Firmament.Placement.assignment) ->
              if a.Firmament.Placement.machine <> b.Firmament.Placement.machine then acc + 1
              else acc)
            0 partial reference
        in
        (frac, mis))
      [ 0.2; 0.4; 0.6; 0.8; 0.95 ]
  in
  let report name full_runtime solver =
    List.iter
      (fun (frac, mis) ->
        row [ name; Printf.sprintf "%.0f%%" (frac *. 100.); string_of_int mis ])
      (misplacements ~full_runtime ~solver)
  in
  let rx_full, _ = Setup.time_solver s (fun g -> Mcmf.Relaxation.solve g) in
  report "relaxation" rx_full.S.runtime (fun ?stop g -> Mcmf.Relaxation.solve ?stop g);
  let cs_state () = Mcmf.Cost_scaling.create ~alpha:9 () in
  let cs_full, _ = Setup.time_solver s (fun g -> Mcmf.Cost_scaling.solve (cs_state ()) g) in
  report "cost-scaling" cs_full.S.runtime (fun ?stop g ->
      Mcmf.Cost_scaling.solve ?stop (cs_state ()) g)

(* {1 Incrementality (Figs. 11, 12, 13)} *)

let fig11 ~scale () =
  header "Figure 11: incremental vs from-scratch cost scaling";
  row [ "policy"; "from-scratch"; "incremental"; "speedup" ];
  let machines = max 100 (int_of_float (1250. *. scale)) in
  List.iter
    (fun (name, policy) ->
      let s = Setup.settle ~machines ~util:0.5 ~policy ~seed:42 () in
      (* Warm graph: solve to optimality in place, price-refine (the paper
         always refines before applying changes, §6.2), then churn. *)
      let net = Firmament.Scheduler.network s.sched in
      let st = Mcmf.Cost_scaling.create ~alpha:9 () in
      ignore (Mcmf.Cost_scaling.solve st (FN.graph net));
      ignore
        (Mcmf.Price_refine.run ~scale:(Mcmf.Cost_scaling.ensure_scale st (FN.graph net))
           (FN.graph net));
      Setup.churn s ~frac:0.05 ~now:1.;
      let g_inc = G.copy (FN.graph net) in
      let inc = Mcmf.Cost_scaling.solve ~incremental:true st g_inc in
      let scr, _ =
        Setup.time_solver s (fun g -> Mcmf.Cost_scaling.solve (Mcmf.Cost_scaling.create ~alpha:9 ()) g)
      in
      row
        [
          name; pp scr.S.runtime; pp inc.S.runtime;
          Printf.sprintf "%.2fx" (scr.S.runtime /. Float.max 1e-9 inc.S.runtime);
        ])
    [ ("quincy", Setup.Quincy); ("load-spreading", Setup.Load_spread) ]

let fig12a ~scale () =
  header "Figure 12a: arc prioritization (AP) in relaxation, contended graph";
  row [ "variant"; "runtime" ];
  let machines = max 100 (int_of_float (1250. *. scale)) in
  let k = max 100 (int_of_float (3000. *. scale)) in
  let s = Setup.settle ~machines ~util:0.4 ~policy:Setup.Load_spread ~seed:42 () in
  Setup.submit_batch s ~n:k ~now:1.;
  let no_ap, _ =
    Setup.time_solver s (fun g -> Mcmf.Relaxation.solve ~arc_prioritization:false g)
  in
  let ap, _ = Setup.time_solver s (fun g -> Mcmf.Relaxation.solve ~arc_prioritization:true g) in
  row [ "no AP"; pp no_ap.S.runtime ];
  row [ "AP"; pp ap.S.runtime ];
  Printf.printf "reduction: %.0f%%\n"
    (100. *. (1. -. (ap.S.runtime /. Float.max 1e-9 no_ap.S.runtime)))

let fig12b ~scale () =
  header "Figure 12b: efficient task removal (TR) for incremental cost scaling";
  row [ "variant"; "runtime" ];
  let machines = max 100 (int_of_float (1250. *. scale)) in
  let run ~drain =
    let config =
      { Firmament.Scheduler.default_config with drain_on_removal = drain }
    in
    let s = Setup.settle ~config ~machines ~util:0.5 ~policy:Setup.Quincy ~seed:42 () in
    let net = Firmament.Scheduler.network s.sched in
    let st = Mcmf.Cost_scaling.create ~alpha:9 () in
    ignore (Mcmf.Cost_scaling.solve st (FN.graph net));
    ignore
      (Mcmf.Price_refine.run ~scale:(Mcmf.Cost_scaling.ensure_scale st (FN.graph net))
         (FN.graph net));
    (* Removal-heavy change batch. *)
    let live = Cluster.State.live_task_count s.cluster in
    Setup.finish_random s ~n:(live / 10) ~now:1.;
    let g = G.copy (FN.graph net) in
    (Mcmf.Cost_scaling.solve ~incremental:true st g).S.runtime
  in
  let no_tr = run ~drain:false in
  let tr = run ~drain:true in
  row [ "no TR"; pp no_tr ];
  row [ "TR"; pp tr ];
  Printf.printf "reduction: %.0f%%\n" (100. *. (1. -. (tr /. Float.max 1e-9 no_tr)))

let fig13 ~scale () =
  header "Figure 13: price refine at the relaxation -> cost scaling switch";
  row [ "percentile"; "cost-scaling"; "price-refine + cost-scaling" ];
  let machines = max 100 (int_of_float (1250. *. scale)) in
  let cs_runtimes ~price_refine =
    let config =
      {
        Firmament.Scheduler.default_config with
        mode = Mcmf.Race.Incremental_cost_scaling_only;
        price_refine;
      }
    in
    let s = Setup.settle ~config ~machines ~util:0.6 ~policy:Setup.Quincy ~seed:42 () in
    List.filter_map
      (fun i ->
        Setup.churn s ~frac:0.03 ~now:(float_of_int i);
        let r = Setup.schedule s ~now:(float_of_int i) in
        Option.map
          (fun (st : S.stats) -> st.S.runtime)
          r.Firmament.Scheduler.cost_scaling_stats)
      (List.init 15 (fun i -> i + 1))
  in
  let plain = cs_runtimes ~price_refine:false in
  let refined = cs_runtimes ~price_refine:true in
  List.iter
    (fun p ->
      row
        [
          Printf.sprintf "p%.0f" p;
          pp (Stats.percentile plain p);
          pp (Stats.percentile refined p);
        ])
    [ 10.; 50.; 90. ];
  Printf.printf "median speedup: %.1fx\n"
    (Stats.percentile plain 50. /. Float.max 1e-9 (Stats.percentile refined 50.))

(* {1 End-to-end replay (Figs. 14, 15, 16, 17, 18)} *)

let replay_config ?(mode = Mcmf.Race.Race) ?(policy = Setup.Quincy) ?max_rounds
    ?max_sim_time () =
  {
    Dcsim.Replay.default_config with
    scheduler = { Firmament.Scheduler.default_config with mode };
    policy = Setup.policy_factory policy;
    max_rounds;
    max_sim_time;
  }

(* The two Firmament rows of the replay figures: the paper's (the hedged
   race on every round) and this repo's default (the in-place repair
   first, the hedged race on a give-up). *)
let firmament_rows =
  [
    ("firmament (race-only)", Mcmf.Race.Race_only);
    ("firmament (race + repair)", Mcmf.Race.Race);
  ]

let repaired_rounds () =
  let reg = Telemetry.Metrics.global () in
  match Telemetry.Metrics.find reg "mcmf_race_wins_repair_total" with
  | Some id -> Telemetry.Metrics.value reg id
  | None -> 0

(* One replay-figure row: [tr] replayed under [mode] up to [sim_time]
   simulated seconds, with no round cap, so every row covers the same
   span of the trace however fast its solver is. Also returns the
   "repaired/rounds" cell: how many of its rounds the in-place repair
   resolved, 0 in every mode but [Race]. *)
let replay_row ?policy ~mode ~sim_time tr =
  let r0 = repaired_rounds () in
  let m = Dcsim.Replay.run (replay_config ~mode ?policy ~max_sim_time:sim_time ()) tr in
  (m, Printf.sprintf "%d/%d" (repaired_rounds () - r0) m.Dcsim.Replay.rounds)

(* Placement count, repaired rounds and placement-latency percentiles:
   the shared tail of the Fig. 14 and Fig. 18 rows. *)
let latency_header =
  [ "placed"; "repaired/rounds"; "p25"; "p50"; "p75"; "p90"; "p99"; "max" ]

let latency_cells (m : Dcsim.Replay.metrics) repaired =
  let ls = m.Dcsim.Replay.placement_latencies in
  string_of_int m.Dcsim.Replay.tasks_placed
  :: repaired
  ::
  (match ls with
  | [] -> List.init 6 (fun _ -> "-")
  | _ ->
      List.map (fun p -> pp (Stats.percentile ls p)) [ 25.; 50.; 75.; 90.; 99. ]
      @ [ pp (Stats.maximum ls) ])

let trace ~machines ~util ~horizon ?(speedup = 1.) ?(seed = 42) ?machines_per_rack () =
  Cluster.Trace.generate
    {
      (Cluster.Trace.default_params ~machines ()) with
      target_utilization = util;
      horizon_s = horizon;
      speedup;
      seed;
      machines_per_rack =
        (match machines_per_rack with
        | Some m -> m
        | None -> (Cluster.Trace.default_params ~machines ()).Cluster.Trace.machines_per_rack);
    }

let fig14 ~scale () =
  header "Figure 14: task placement latency, Firmament vs Quincy (90% util)";
  (* A quarter of the paper's cluster at scale 1.0: the headline is the
     ratio between the configurations, which holds across sizes. *)
  let machines = max 150 (int_of_float (3125. *. scale)) in
  row ("config" :: latency_header);
  (* No Quincy/Firmament ratio is printed: this trace saturates the
     cluster, so placement latency is mostly time spent waiting for a
     free slot, not for the solver. *)
  List.iter
    (fun (name, mode) ->
      (* Mild acceleration keeps the arrival stream dense enough at
         scaled-down cluster sizes for a meaningful latency
         distribution. *)
      let tr = trace ~machines ~util:0.9 ~horizon:90. ~speedup:4. () in
      let m, repaired = replay_row ~mode ~sim_time:120. tr in
      row (name :: latency_cells m repaired))
    (firmament_rows @ [ ("quincy (cost scaling)", Mcmf.Race.Cost_scaling_scratch_only) ])

(* Weighted input locality of a settled (optimal) bulk assignment: both
   solver configurations produce min-cost flows, so locality depends only
   on the threshold. *)
let settled_locality ~machines ~threshold =
  (* Scale the rack size with the cluster so the rack count (and hence the
     per-rack locality fractions the threshold gates) resembles the
     paper's 312-rack topology rather than collapsing to 2-3 racks. *)
  let machines_per_rack = max 4 (machines / 30) in
  let s =
    Setup.settle ~machines_per_rack ~machines ~util:0.9
      ~policy:(Setup.Quincy_threshold threshold) ~seed:42 ()
  in
  let topo = Cluster.State.topology s.Setup.cluster in
  let local = ref 0. and total = ref 0. in
  Cluster.State.iter_tasks s.Setup.cluster (fun t ->
      match Cluster.Workload.machine_of t with
      | Some m when t.Cluster.Workload.input_mb > 0. ->
          (* Rack-level locality, as in Quincy: fraction of the input
             stored in the chosen machine's rack (machine included). *)
          let rack = Cluster.Topology.rack_of topo m in
          let f =
            List.fold_left
              (fun acc (m', frac) ->
                if Cluster.Topology.rack_of topo m' = rack then acc +. frac else acc)
              0.
              (Firmament.Policy_quincy.locality_fractions t)
          in
          total := !total +. t.Cluster.Workload.input_mb;
          local := !local +. (f *. t.Cluster.Workload.input_mb)
      | _ -> ());
  if !total > 0. then !local /. !total else 0.

let fig15 ~scale () =
  header "Figure 15: preference-arc threshold sweep (14% vs 2%)";
  let machines = max 120 (int_of_float (2500. *. scale)) in
  row
    [
      "config"; "threshold"; "placed"; "repaired/rounds"; "alg p50"; "alg p99";
      "input locality";
    ];
  List.iter
    (fun th ->
      let locality = settled_locality ~machines ~threshold:th in
      List.iter
        (fun (name, mode) ->
          let tr = trace ~machines ~util:0.9 ~horizon:30. ~speedup:4. () in
          let m, repaired =
            replay_row ~policy:(Setup.Quincy_threshold th) ~mode ~sim_time:45. tr
          in
          let rts = m.Dcsim.Replay.algorithm_runtimes in
          row
            [
              name;
              Printf.sprintf "%.0f%%" (th *. 100.);
              string_of_int m.Dcsim.Replay.tasks_placed;
              repaired;
              pp (Stats.percentile rts 50.);
              pp (Stats.percentile rts 99.);
              Printf.sprintf "%.1f%%" (locality *. 100.);
            ])
        (firmament_rows @ [ ("quincy", Mcmf.Race.Cost_scaling_scratch_only) ]))
    [ 0.14; 0.02 ]

let fig16 ~scale () =
  header "Figure 16: runtime timeline under transient oversubscription";
  let machines = max 150 (int_of_float (1250. *. scale)) in
  (* Steady 90% + an arrival burst pushing past capacity mid-trace. *)
  let mk_trace () =
    let tr = trace ~machines ~util:0.9 ~horizon:90. () in
    let slots = Cluster.Topology.total_slots tr.Cluster.Trace.topology in
    let burst =
      List.init 4 (fun i ->
          let t = 30. +. (2. *. float_of_int i) in
          ( t,
            Dcsim.Workloads.big_job ~jid:(900_000 + i) ~n_tasks:(slots / 20) ~submit:t
              ~duration:30.
              ~first_tid:(20_000_000 + (i * 100_000))
              () ))
    in
    {
      tr with
      Cluster.Trace.arrivals =
        List.sort (fun (a, _) (b, _) -> compare a b) (tr.Cluster.Trace.arrivals @ burst);
    }
  in
  row
    [
      "mode"; "placed"; "repaired/rounds"; "pre-burst p50"; "burst p50"; "burst max";
      "post-burst p50";
    ];
  (* Bounded by the trace's 90 s horizon, not by a round count, so every
     row reaches its post-burst phase at any scale. *)
  List.iter
    (fun (name, mode) ->
      let m, repaired = replay_row ~mode ~sim_time:90. (mk_trace ()) in
      let phase lo hi =
        List.filter_map
          (fun (t, rt) -> if t >= lo && t < hi then Some rt else None)
          m.Dcsim.Replay.runtime_timeline
      in
      let safe f xs = match xs with [] -> "-" | _ -> f xs in
      row
        [
          name;
          string_of_int m.Dcsim.Replay.tasks_placed;
          repaired;
          safe (fun xs -> pp (Stats.percentile xs 50.)) (phase 0. 30.);
          safe (fun xs -> pp (Stats.percentile xs 50.)) (phase 30. 60.);
          safe (fun xs -> pp (Stats.maximum xs)) (phase 30. 60.);
          safe (fun xs -> pp (Stats.percentile xs 50.)) (phase 60. 1e9);
        ])
    ([
       ("relaxation-only", Mcmf.Race.Relaxation_only);
       ("quincy (cost scaling)", Mcmf.Race.Cost_scaling_scratch_only);
     ]
    @ firmament_rows)

let fig17 ~scale () =
  header "Figure 17: job response time vs task duration (short-task jobs)";
  row [ "machines"; "task-duration"; "ideal"; "job-response p50"; "p90" ];
  let sizes =
    List.filter (fun m -> m >= 50) [ 100; max 150 (int_of_float (2500. *. scale)) ]
    |> List.sort_uniq compare
  in
  List.iter
    (fun machines ->
      List.iter
        (fun duration ->
          let slots = 8 in
          (* About 500 tasks per point keeps the round count tractable on
             small hosts; the breaking point shows in the p50/p90 lift. *)
          let horizon =
            500. *. duration /. (0.8 *. float_of_int (machines * slots))
          in
          let arrivals =
            Dcsim.Workloads.short_task_jobs ~machines ~slots ~task_duration:duration
              ~tasks_per_job:10 ~load:0.8 ~horizon ~seed:3
          in
          let topology =
            Cluster.Topology.make ~machines ~machines_per_rack:40 ~slots_per_machine:slots ()
          in
          let tr =
            { Cluster.Trace.topology; initial_jobs = []; arrivals; machine_events = [];
              params = Cluster.Trace.default_params ~machines () }
          in
          let m =
            Dcsim.Replay.run
              (replay_config ~policy:Setup.Load_spread ~max_rounds:3_000 ())
              tr
          in
          match m.Dcsim.Replay.job_response_times with
          | [] -> row [ string_of_int machines; pp duration; pp duration; "-"; "-" ]
          | rs ->
              row
                [
                  string_of_int machines;
                  pp duration;
                  pp duration;
                  pp (Stats.percentile rs 50.);
                  pp (Stats.percentile rs 90.);
                ])
        [ 2.; 0.5; 0.1; 0.02 ])
    sizes

let fig18 ~scale () =
  header "Figure 18: placement latency under accelerated Google trace";
  row ("speedup" :: "mode" :: latency_header);
  let machines = max 150 (int_of_float (2500. *. scale)) in
  List.iter
    (fun speedup ->
      List.iter
        (fun (name, mode) ->
          let tr =
            trace ~machines ~util:0.8 ~horizon:30. ~speedup:(float_of_int speedup) ()
          in
          let m, repaired = replay_row ~mode ~sim_time:45. tr in
          row (string_of_int speedup :: name :: latency_cells m repaired))
        (firmament_rows @ [ ("relaxation-only", Mcmf.Race.Relaxation_only) ]))
    [ 50; 150; 300 ]

(* {1 Local-testbed placement quality (Fig. 19)} *)

let fig19 ~background ~n_tasks () =
  let machines = 40 in
  let topology =
    Cluster.Topology.make ~machines ~machines_per_rack:40 ~slots_per_machine:8 ()
  in
  let arrivals =
    Dcsim.Workloads.testbed_short_batch ~machines ~n_tasks ~interarrival:1.2 ~seed:5
  in
  let bg = if background then Dcsim.Workloads.testbed_background ~machines ~seed:6 else [] in
  let schedulers =
    [
      ("idle (isolation)", Dcsim.Testbed.Isolation);
      ( "firmament",
        Dcsim.Testbed.Firmament
          (fun ~bandwidth_used ~drain net st ->
            Firmament.Policy_network_aware.make ~bandwidth_used ~drain net st) );
      ("swarmkit", Dcsim.Testbed.Baseline (Baselines.swarmkit ()));
      ("kubernetes", Dcsim.Testbed.Baseline (Baselines.kubernetes ()));
      ("mesos", Dcsim.Testbed.Baseline (Baselines.mesos ()));
      ("sparrow", Dcsim.Testbed.Baseline (Baselines.sparrow ()));
    ]
  in
  row [ "scheduler"; "p25"; "p50"; "p75"; "p90"; "p99" ];
  let tails = ref [] in
  List.iter
    (fun (name, kind) ->
      let r = Dcsim.Testbed.run ~topology ~arrivals ~background:bg kind in
      let rs = r.Dcsim.Testbed.response_times in
      if rs = [] then row [ name; "-"; "-"; "-"; "-"; "-" ]
      else begin
        tails := (name, Stats.percentile rs 99.) :: !tails;
        row
          [
            name;
            pp (Stats.percentile rs 25.);
            pp (Stats.percentile rs 50.);
            pp (Stats.percentile rs 75.);
            pp (Stats.percentile rs 90.);
            pp (Stats.percentile rs 99.);
          ]
      end)
    schedulers;
  (match List.assoc_opt "firmament" !tails with
  | Some f when f > 0. ->
      List.iter
        (fun (name, t) ->
          if name <> "firmament" && name <> "idle (isolation)" then
            Printf.printf "p99 %s / firmament = %.1fx\n" name (t /. f))
        (List.rev !tails)
  | _ -> ())

let fig19a ~scale () =
  header "Figure 19a: short batch tasks, idle network (40 machines)";
  fig19 ~background:false ~n_tasks:(max 40 (int_of_float (200. *. scale *. 10.))) ()

let fig19b ~scale () =
  header "Figure 19b: short batch tasks with background traffic (40 machines)";
  fig19 ~background:true ~n_tasks:(max 40 (int_of_float (200. *. scale *. 10.))) ()

(* {1 Steady-state allocation / round latency (tentpole perf metric)} *)

(* Drive [rounds] full scheduler rounds under [frac] churn on a settled
   cluster, sampling the telemetry phase histograms around the loop:
   returns per-round wall times, per-round allocated bytes, and per-phase
   means — including the solve_win/solve_wait sub-phase split (winner
   runtime vs orchestration wait). *)
let sched_phases =
  [
    "refresh"; "solve"; "solve_win"; "solve_wait"; "adopt"; "extract"; "prepare";
    "apply";
  ]

(* Exact minor-heap bytes allocated since program start — the
   steady-state allocation metric. Native OCaml 5.1's
   [Gc.allocated_bytes] adds promoted words where it should subtract
   them, so every minor collection inside a bracket inflates the delta
   by twice the survivor volume (measured: a steady-state scheduler
   round that really allocates ~0.9 MB reads as ~2.0 MB), and
   [Gc.quick_stat]'s [minor_words] field only advances at collection
   boundaries, quantizing short brackets to whole minor heaps.
   [Gc.minor_words] is the one exact counter (it adds the live young
   pointer delta); every steady-state allocation the memory-discipline
   rules police (cons cells, refs, closure spills, boxed returns) is a
   minor-heap allocation, so this is the figure the budgets assert on.
   Blocks above 256 words go directly to the major heap and are not
   counted here — those are one-time workspace growth, reported
   separately (and noisily: the major/promoted counters lag promotion
   events by up to a round) as [round_major_bytes]. *)
let gc_minor_bytes () = Gc.minor_words () *. 8.

(* Net direct-major bytes: major words minus promoted (promotions are
   already counted as minor allocation). Per-bracket values jitter by
   the survivor volume because promotion accounting lags; means over
   many rounds telescope most of it away. Informational only. *)
let gc_major_net_bytes () =
  let st = Gc.quick_stat () in
  (st.Gc.major_words -. st.Gc.promoted_words) *. 8.

let measure_sched_rounds s ~rounds ~frac =
  let reg = Telemetry.Metrics.global () in
  let phase_metrics =
    List.filter_map
      (fun phase ->
        Option.map
          (fun id -> (phase, id))
          (Telemetry.Metrics.find reg ("sched_phase_" ^ phase ^ "_ns")))
      sched_phases
  in
  (* One unmeasured warm-up round: the first post-settle round still pays
     history-dependent workspace growth (the scratch graphs' arc
     freelists are sized by the settle-time churn), and that one-time
     cost would otherwise land in the first sample and dominate a
     10-round allocation mean. *)
  Setup.churn s ~frac ~now:0.;
  ignore (Setup.schedule s ~now:0.);
  let phase_sum0 =
    List.map (fun (p, id) -> (p, Telemetry.Metrics.hist_sum reg id)) phase_metrics
  in
  let times = ref [] and bytes = ref [] and major = ref [] in
  for i = 1 to rounds do
    let now = float_of_int i in
    Setup.churn s ~frac ~now;
    let b0 = gc_minor_bytes () in
    let j0 = gc_major_net_bytes () in
    let t0 = Unix.gettimeofday () in
    ignore (Setup.schedule s ~now);
    times := (Unix.gettimeofday () -. t0) :: !times;
    bytes := (gc_minor_bytes () -. b0) :: !bytes;
    major := (gc_major_net_bytes () -. j0) :: !major
  done;
  let phase_means =
    List.map
      (fun (p, id) ->
        let s0 = List.assoc p phase_sum0 in
        let d = Telemetry.Metrics.hist_sum reg id - s0 in
        (p, float_of_int d *. 1e-9 /. float_of_int rounds))
      phase_metrics
  in
  (!times, !bytes, !major, phase_means)

(* Three measurements on a settled ~1k-machine cluster (at the default
   --scale 0.2):
   - solver-only warm rounds: prepare + Race.solve on the already-optimal
     graph, the pure steady-state re-solve the scratch-graph/workspace
     reuse targets, in modes that never repair so the full solvers run —
     once in [Race_only] (relaxation, which resolves these rounds before the
     hedge starts) and once under [Incremental_cost_scaling_only], so
     the budget covers both solvers;
   - full scheduler rounds with 1% churn: the end-to-end rounds/sec
     number, policy updates included.
   Reports mean/p99 wall time and allocated bytes per round, and
   records them for --json. *)
let alloc ~scale () =
  header "Steady-state rounds: latency and allocations per round";
  let machines = max 50 (int_of_float (5000. *. scale)) in
  let s = Setup.settle ~machines ~util:0.5 ~policy:Setup.Quincy ~seed:42 () in
  let net = Firmament.Scheduler.network s.Setup.sched in
  let stats_of xs =
    ( Stats.mean xs,
      Stats.percentile xs 50.,
      Stats.percentile xs 99. )
  in
  (* Solver-only warm rounds, mirroring the scheduler's adopt/recycle
     protocol on an unchanged optimal graph. *)
  let solver_rounds mode =
    let race = Mcmf.Race.create ~alpha:9 ~mode () in
    let g = ref (G.copy (FN.graph net)) in
    let solve_round () =
      Mcmf.Race.prepare race !g;
      let r = Mcmf.Race.solve race !g in
      match r.Mcmf.Race.stats.S.outcome with
      | S.Optimal ->
          let old = !g in
          g := r.Mcmf.Race.graph;
          Mcmf.Race.recycle race old
      | S.Infeasible | S.Stopped -> ()
    in
    (* warm-up: reach steady state *)
    solve_round ();
    let rounds = 40 in
    let times = ref [] and bytes = ref [] in
    for _ = 1 to rounds do
      let b0 = gc_minor_bytes () in
      let t0 = Unix.gettimeofday () in
      solve_round ();
      times := (Unix.gettimeofday () -. t0) :: !times;
      bytes := (gc_minor_bytes () -. b0) :: !bytes
    done;
    let t_mean, t_p50, t_p99 = stats_of !times in
    let b_mean, _, _ = stats_of !bytes in
    (t_mean, t_p50, t_p99, b_mean)
  in
  let t_mean, t_p50, t_p99, b_mean = solver_rounds Mcmf.Race.Race_only in
  let cs_mean, cs_p50, cs_p99, cs_b_mean =
    solver_rounds Mcmf.Race.Incremental_cost_scaling_only
  in
  row [ "phase"; "mean"; "p50"; "p99"; "alloc/round" ];
  row
    [
      "solver-only (warm)"; pp t_mean; pp t_p50; pp t_p99;
      Printf.sprintf "%.0f B" b_mean;
    ];
  row
    [
      "cost scaling (warm)"; pp cs_mean; pp cs_p50; pp cs_p99;
      Printf.sprintf "%.0f B" cs_b_mean;
    ];
  (* Full scheduler rounds with light churn. Telemetry phase histograms
     are sampled before/after the loop; the delta of each phase's sum
     divided by the round count gives phase-level means for the JSON. *)
  let times2, bytes2, major2, phase_means =
    measure_sched_rounds s ~rounds:20 ~frac:0.01
  in
  let t2_mean, t2_p50, t2_p99 = stats_of times2 in
  let b2_mean, _, _ = stats_of bytes2 in
  let j2_mean = Stats.mean major2 in
  row
    [
      "full round (1% churn)"; pp t2_mean; pp t2_p50; pp t2_p99;
      Printf.sprintf "%.0f B" b2_mean;
    ];
  Printf.printf "machines: %d, rounds/sec (full, mean): %.1f\n" machines
    (1. /. Float.max 1e-9 t2_mean);
  List.iter
    (fun (p, mean) -> Printf.printf "  phase %-8s mean %s\n" p (pp mean))
    phase_means;
  Json_out.record ~experiment:"alloc" ~scale
    ([
       ("machines", float_of_int machines);
       ("solver_mean_s", t_mean);
       ("solver_p50_s", t_p50);
       ("solver_p99_s", t_p99);
       ("solver_alloc_bytes", b_mean);
       ("cs_solver_mean_s", cs_mean);
       ("cs_solver_alloc_bytes", cs_b_mean);
       ("round_mean_s", t2_mean);
       ("round_p50_s", t2_p50);
       ("round_p99_s", t2_p99);
       ("round_alloc_bytes", b2_mean);
       ("round_major_bytes", j2_mean);
       ("rounds_per_sec", 1. /. Float.max 1e-9 t2_mean);
     ]
    @ List.map (fun (p, mean) -> ("phase_" ^ p ^ "_mean_s", mean)) phase_means)

(* {1 Scale sweep (paper Fig. 8's machine ladder, full rounds)} *)

(* One bench series per cluster size on the paper's evaluation ladder
   (Fig. 8 spans 1.2k–12.5k machines; 50k probes past it, the paper's
   headline "at scale" claim). Each point settles a cluster at 50%
   utilization and drives full scheduler rounds under 1% churn: round
   latency percentiles, per-phase means (including the delta-extraction
   phase and the solve win/wait split) and allocation per round. Points
   beyond the --scale budget are skipped so the default run stays small;
   --scale 1.0 reaches the full ladder. *)
let sweep ~scale () =
  header "Scale sweep: full scheduler rounds across the machine ladder";
  let ladder = [ 1_000; 5_000; 12_500; 50_000 ] in
  let budget = max 1_000 (int_of_float (50_000. *. scale)) in
  let points = List.filter (fun mch -> mch <= budget) ladder in
  (match List.filter (fun mch -> mch > budget) ladder with
  | [] -> ()
  | skipped ->
      Printf.printf "skipping %s machines (raise --scale to include)\n"
        (String.concat ", " (List.map string_of_int skipped)));
  row
    [
      "machines"; "round mean"; "p50"; "p99"; "solve"; "extract"; "alloc/round";
      "rounds/s";
    ];
  List.iter
    (fun machines ->
      let s =
        Setup.settle ~machines ~util:0.5 ~policy:Setup.Quincy ~seed:42 ()
      in
      let rounds = if machines >= 12_500 then 10 else 20 in
      let times, bytes, major, phase_means =
        measure_sched_rounds s ~rounds ~frac:0.01
      in
      let mean = Stats.mean times in
      let p50 = Stats.percentile times 50. in
      let p99 = Stats.percentile times 99. in
      let b_mean = Stats.mean bytes in
      let j_mean = Stats.mean major in
      let phase p = Option.value ~default:0. (List.assoc_opt p phase_means) in
      row
        [
          string_of_int machines;
          pp mean;
          pp p50;
          pp p99;
          pp (phase "solve");
          pp (phase "extract");
          Printf.sprintf "%.0f B" b_mean;
          Printf.sprintf "%.1f" (1. /. Float.max 1e-9 mean);
        ];
      Json_out.record ~experiment:"sweep" ~scale
        ([
           ("machines", float_of_int machines);
           ("round_mean_s", mean);
           ("round_p50_s", p50);
           ("round_p99_s", p99);
           ("round_alloc_bytes", b_mean);
           ("round_major_bytes", j_mean);
           ("rounds_per_sec", 1. /. Float.max 1e-9 mean);
         ]
        @ List.map (fun (p, m) -> ("phase_" ^ p ^ "_mean_s", m)) phase_means))
    points

(* {1 Incremental delta-solve vs full race} *)

(* Rounds of a fixed shape against a settled cluster — the regime the
   O(changes) repair path targets. [`Events n] holds the delta at [n] task
   events (half finishes, half submissions) as machines grow, so the
   delta-vs-graph-size gap is what the series shows; [`Churn f] finishes
   a fraction [f] of the live tasks and submits as many, the steady-state
   round whose delta grows with the cluster. Runs each ladder point twice
   on identically settled clusters: repair disabled (full-race baseline),
   then enabled. Returns round times, solve mean, repaired rounds, mean
   events per round, the scratch graph copies the race took during
   repaired rounds (0: repairs run in place), the mean nodes a repair's
   searches settled, how many repairs and delta extractions of the
   measured rounds fell back to a full scan or certificate because the
   graph's dirty log was unusable (0 once repairs chain), and how many
   repairs the whole-graph audit refuted (0). *)
let measure_delta_rounds s ~rounds ~delta =
  let reg = Telemetry.Metrics.global () in
  let hist name =
    match Telemetry.Metrics.find reg name with
    | Some id -> id
    | None -> Format.kasprintf failwith "histogram %s not registered" name
  in
  let counter name =
    Option.map (fun id -> Telemetry.Metrics.value reg id) (Telemetry.Metrics.find reg name)
  in
  let solve_id = hist "sched_phase_solve_ns" in
  let feed ~now =
    let n =
      match delta with
      | `Events e -> e / 2
      | `Churn f ->
          max 1 (int_of_float (f *. float_of_int (Cluster.State.live_task_count s.Setup.cluster)))
    in
    Setup.finish_random s ~n ~now;
    Setup.submit_batch s ~n ~now;
    2 * n
  in
  (* Two warm rounds: reach the adopted-optimal steady state the repair
     path starts from. *)
  for i = 1 to 2 do
    let now = float_of_int i in
    ignore (feed ~now);
    ignore (Setup.schedule s ~now)
  done;
  let solve0 = Telemetry.Metrics.hist_sum reg solve_id in
  let repairs0 = counter "mcmf_race_wins_repair_total" in
  let times = ref [] in
  let events = ref 0 in
  let repair_copies = ref 0 in
  let copies () = Option.value (counter "mcmf_race_graph_copies_total") ~default:0 in
  let full_scans name = Option.value (counter name) ~default:0 in
  let repair_full0 = full_scans "mcmf_incremental_full_scans_total" in
  let extract_full0 = full_scans "sched_extract_full_scans_total" in
  let audit0 = full_scans "mcmf_incremental_audit_failures_total" in
  let touched_id = hist "mcmf_incremental_repair_touched" in
  let touched0 = Telemetry.Metrics.hist_sum reg touched_id in
  for i = 3 to rounds + 2 do
    let now = float_of_int i in
    events := !events + feed ~now;
    let c0 = copies () in
    let t0 = Unix.gettimeofday () in
    let r = Setup.schedule s ~now in
    times := (Unix.gettimeofday () -. t0) :: !times;
    if r.Firmament.Scheduler.winner = Mcmf.Race.Repair then
      repair_copies := !repair_copies + (copies () - c0)
  done;
  let solve_mean =
    float_of_int (Telemetry.Metrics.hist_sum reg solve_id - solve0)
    *. 1e-9 /. float_of_int rounds
  in
  let repair_rounds =
    match (counter "mcmf_race_wins_repair_total", repairs0) with
    | Some now, Some warm -> now - warm
    | _ -> 0
  in
  let settled =
    float_of_int (Telemetry.Metrics.hist_sum reg touched_id - touched0)
    /. float_of_int (max 1 repair_rounds)
  in
  ( !times,
    solve_mean,
    repair_rounds,
    float_of_int !events /. float_of_int rounds,
    !repair_copies,
    settled,
    ( full_scans "mcmf_incremental_full_scans_total" - repair_full0,
      full_scans "sched_extract_full_scans_total" - extract_full0,
      full_scans "mcmf_incremental_audit_failures_total" - audit0 ) )

let incr ~scale () =
  header "Incremental repair: fixed-delta and 1%-churn rounds, delta-solve vs full race";
  let ladder = [ 1_000; 5_000; 12_500; 50_000 ] in
  let budget = max 1_000 (int_of_float (50_000. *. scale)) in
  let points = List.filter (fun mch -> mch <= budget) ladder in
  (match List.filter (fun mch -> mch > budget) ladder with
  | [] -> ()
  | skipped ->
      Printf.printf "skipping %s machines (raise --scale to include)\n"
        (String.concat ", " (List.map string_of_int skipped)));
  row
    [
      "machines"; "delta"; "events"; "solve full"; "solve incr"; "speedup"; "round incr";
      "repair rounds";
    ];
  List.iter
    (fun machines ->
      let rounds = if machines >= 12_500 then 10 else 20 in
      List.iter
        (fun (label, delta, churn_frac) ->
          let run mode =
            let config = { Firmament.Scheduler.default_config with mode } in
            let s =
              Setup.settle ~config ~machines ~util:0.5 ~policy:Setup.Quincy ~seed:42 ()
            in
            measure_delta_rounds s ~rounds ~delta
          in
          let _, solve_full, _, _, _, _, _ = run Mcmf.Race.Race_only in
          let ( times_incr,
                solve_incr,
                repair_rounds,
                events,
                repair_copies,
                settled,
                (repair_full_scans, extract_full_scans, audit_failures) ) =
            run Mcmf.Race.Race
          in
          let speedup = solve_full /. Float.max 1e-9 solve_incr in
          row
            [
              string_of_int machines;
              label;
              Printf.sprintf "%.0f" events;
              pp solve_full;
              pp solve_incr;
              Printf.sprintf "%.1fx" speedup;
              pp (Stats.mean times_incr);
              Printf.sprintf "%d/%d" repair_rounds rounds;
            ];
          Json_out.record ~experiment:"incr" ~scale
            [
              ("machines", float_of_int machines);
              ("churn_frac", churn_frac);
              ("delta_events", events);
              ("rounds", float_of_int rounds);
              ("solve_full_mean_s", solve_full);
              ("solve_incr_mean_s", solve_incr);
              ("solve_speedup", speedup);
              ("round_incr_mean_s", Stats.mean times_incr);
              ("round_incr_p99_s", Stats.percentile times_incr 99.);
              ("repair_rounds", float_of_int repair_rounds);
              ("repair_round_copies", float_of_int repair_copies);
              ("repair_full_scans", float_of_int repair_full_scans);
              ("extract_full_scans", float_of_int extract_full_scans);
              ("repair_audit_failures", float_of_int audit_failures);
              ("repair_settled_mean", settled);
            ])
        [ ("32 events", `Events 32, 0.); ("1% churn", `Churn 0.01, 0.01) ])
    points

(* {1 Crash recovery} *)

(* A 32-task batch job standing in for the arrivals that accrued while
   the scheduler was down: both sides of the comparison solve the same
   steady-state-plus-backlog problem. *)
let submit_outage_backlog sched ~machines ~n ~now =
  let rng = Random.State.make [| 0xbac0106 |] in
  let tasks =
    Array.init n (fun i ->
        let replicas = List.init 3 (fun _ -> Random.State.int rng machines) in
        Cluster.Workload.make_task ~tid:(20_000_000 + i) ~job:9_999_999
          ~submit_time:now ~duration:120. ~input_mb:500. ~input_machines:replicas
          ~net_demand_mbps:(200 + Random.State.int rng 800) ())
  in
  Firmament.Scheduler.submit_job sched
    (Cluster.Workload.make_job ~jid:9_999_999 ~klass:Cluster.Types.Batch
       ~submit_time:now ~tasks)

let recovery ~scale () =
  header "Crash recovery: snapshot restore + warm catch-up round vs cold re-solve";
  let ladder = [ 1_000; 5_000; 12_500 ] in
  let budget = max 1_000 (int_of_float (50_000. *. scale)) in
  let points = List.filter (fun mch -> mch <= budget) ladder in
  (match List.filter (fun mch -> mch > budget) ladder with
  | [] -> ()
  | skipped ->
      Printf.printf "skipping %s machines (raise --scale to include)\n"
        (String.concat ", " (List.map string_of_int skipped)));
  let backlog = 32 in
  row
    [
      "machines"; "snapshot"; "size"; "restore"; "catch-up round"; "recovery";
      "cold solve"; "speedup";
    ];
  List.iter
    (fun machines ->
      let s = Setup.settle ~machines ~util:0.5 ~policy:Setup.Quincy ~seed:42 () in
      (* Two churn rounds so the snapshot captures the adopted-optimal
         steady state the repair path starts from. *)
      for i = 1 to 2 do
        let now = float_of_int i in
        Setup.finish_random s ~n:(backlog / 2) ~now;
        Setup.submit_batch s ~n:(backlog / 2) ~now;
        ignore (Setup.schedule s ~now)
      done;
      let path = Filename.temp_file "firmament-recovery" ".snap" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let t0 = Unix.gettimeofday () in
          Firmament.Snapshot.Writer.close
            (Firmament.Snapshot.Writer.to_file ~path s.Setup.sched ~now:3.);
          let t_snap = Unix.gettimeofday () -. t0 in
          let snap_bytes = (Unix.stat path).Unix.st_size in
          (* Cold restart: the same problem solved from scratch. Graph
             copy, cluster rebuild and policy construction are all left
             out of the cold bill — the comparison is generous to it. *)
          submit_outage_backlog s.Setup.sched ~machines ~n:backlog ~now:3.5;
          let g = G.copy (FN.graph (Firmament.Scheduler.network s.Setup.sched)) in
          G.reset_flow g;
          let t0 = Unix.gettimeofday () in
          ignore (Mcmf.Cost_scaling.solve (Mcmf.Cost_scaling.create ()) g);
          let t_cold = Unix.gettimeofday () -. t0 in
          (* Warm failover: parse the snapshot, rebuild cluster + network,
             certify the warm start, ingest the backlog and run the first
             round down the incremental-repair path. *)
          let t0 = Unix.gettimeofday () in
          let { Firmament.Snapshot.scheduler = sched'; now } =
            Firmament.Snapshot.restore_file
              ~policy:(Setup.policy_factory Setup.Quincy) path
          in
          let t_restore = Unix.gettimeofday () -. t0 in
          submit_outage_backlog sched' ~machines ~n:backlog ~now:(now +. 0.5);
          let t0 = Unix.gettimeofday () in
          let r = Firmament.Scheduler.schedule sched' ~now:(now +. 1.) in
          let t_round = Unix.gettimeofday () -. t0 in
          let t_warm = t_restore +. t_round in
          let speedup = t_cold /. Float.max 1e-9 t_warm in
          row
            [
              string_of_int machines;
              pp t_snap;
              Printf.sprintf "%.1fMB" (float_of_int snap_bytes /. 1e6);
              pp t_restore;
              pp t_round;
              pp t_warm;
              pp t_cold;
              Printf.sprintf "%.1fx" speedup;
            ];
          Json_out.record ~experiment:"recovery" ~scale
            [
              ("machines", float_of_int machines);
              ("backlog_tasks", float_of_int backlog);
              ("snapshot_write_s", t_snap);
              ("snapshot_bytes", float_of_int snap_bytes);
              ("restore_s", t_restore);
              ("first_round_s", t_round);
              ("recovery_s", t_warm);
              ("cold_solve_s", t_cold);
              ("speedup", speedup);
              ("first_round_placed", float_of_int (List.length r.Firmament.Scheduler.started));
            ]))
    points

(* {1 Soak: memory under steady churn} *)

(* A scheduler that runs for months must hold memory in proportion to
   the live cluster. On a settled cluster at 50% utilization (2,500
   machines at --scale 1, the perfbench steady-churn cluster), runs
   [3 * interval] rounds of 1% churn (that many running tasks finish and
   one job of as many tasks arrives per round) and at the end of each
   third records the live heap after a full major collection, with the
   cluster's task and job tables against the tasks waiting or running
   and the jobs that have one. A flat live heap, and tables equal to the
   live counts, show that nothing grows with the tasks that came and
   went. *)
let soak ~scale () =
  header "Soak: live heap under steady 1% churn";
  let machines = max 50 (int_of_float (2500. *. scale)) in
  let interval = 1200 in
  let s = Setup.settle ~machines ~util:0.5 ~policy:Setup.Quincy ~seed:42 () in
  let cluster = s.Setup.cluster in
  row
    [
      "checkpoint"; "rounds"; "events"; "live heap"; "state tasks"; "live tasks";
      "state jobs"; "live jobs";
    ];
  let rounds = ref 0 and events = ref 0 in
  for checkpoint = 1 to 3 do
    for _ = 1 to interval do
      rounds := !rounds + 1;
      let now = float_of_int !rounds in
      let n = max 1 (int_of_float (0.01 *. float_of_int (Cluster.State.live_task_count cluster))) in
      Setup.churn s ~frac:0.01 ~now;
      events := !events + (2 * n);
      ignore (Setup.schedule s ~now)
    done;
    Gc.full_major ();
    let live_words = (Gc.stat ()).Gc.live_words in
    let state_tasks = ref 0 and live_tasks = ref 0 and state_jobs = ref 0 in
    let live_jobs = Hashtbl.create 64 in
    Cluster.State.iter_tasks cluster (fun t ->
        state_tasks := !state_tasks + 1;
        if Cluster.Workload.(is_waiting t || is_running t) then begin
          live_tasks := !live_tasks + 1;
          Hashtbl.replace live_jobs t.Cluster.Workload.job ()
        end);
    Cluster.State.iter_jobs cluster (fun _ -> state_jobs := !state_jobs + 1);
    row
      [
        string_of_int checkpoint; string_of_int !rounds; string_of_int !events;
        Printf.sprintf "%.1f MB" (float_of_int live_words *. 8. /. 1e6);
        string_of_int !state_tasks; string_of_int !live_tasks; string_of_int !state_jobs;
        string_of_int (Hashtbl.length live_jobs);
      ];
    Json_out.record ~experiment:"soak" ~scale
      [
        ("machines", float_of_int machines);
        ("checkpoint", float_of_int checkpoint);
        ("rounds", float_of_int !rounds);
        ("events", float_of_int !events);
        ("live_words", float_of_int live_words);
        ("state_tasks", float_of_int !state_tasks);
        ("live_tasks", float_of_int !live_tasks);
        ("state_jobs", float_of_int !state_jobs);
        ("live_jobs", float_of_int (Hashtbl.length live_jobs));
      ]
  done

(* {1 Registry} *)

let all =
  [
    ("table1", "Worst-case MCMF complexities", table1);
    ("table2", "Algorithm per-iteration preconditions", table2);
    ("table3", "Arc-change reoptimization grid", table3);
    ("fig3", "Quincy runtime vs cluster size", fig3);
    ("fig7", "Four MCMF algorithms vs cluster size", fig7);
    ("fig8", "Runtime near full utilization", fig8);
    ("fig9", "Arriving-job size vs runtime", fig9);
    ("fig10", "Early-termination misplacements", fig10);
    ("fig11", "Incremental vs from-scratch cost scaling", fig11);
    ("fig12a", "Arc prioritization ablation", fig12a);
    ("fig12b", "Efficient task removal ablation", fig12b);
    ("fig13", "Price refine at algorithm switch", fig13);
    ("fig14", "Placement latency: Firmament vs Quincy", fig14);
    ("fig15", "Preference threshold sweep + locality", fig15);
    ("fig16", "Oversubscription timeline", fig16);
    ("fig17", "Short-task breaking point", fig17);
    ("fig18", "Accelerated-trace placement latency", fig18);
    ("fig19a", "Testbed, idle network", fig19a);
    ("fig19b", "Testbed, background traffic", fig19b);
    ("alloc", "Steady-state round latency + allocations", alloc);
    ("sweep", "Scale sweep across the machine ladder", sweep);
    ("incr", "Incremental delta-solve vs full race", incr);
    ("recovery", "Snapshot restore + warm failover vs cold re-solve", recovery);
    ("soak", "Live heap under steady churn", soak);
  ]
