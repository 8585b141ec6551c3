(* Cross-checked tests for the MCMF solver suite: every algorithm must
   agree with every other (and with the optimality validators) on optimal
   cost, feasibility detection, and incremental re-optimization. *)

module G = Flowgraph.Graph
module Validate = Flowgraph.Validate
module Dimacs = Flowgraph.Dimacs
module S = Mcmf.Solver_intf

let checki msg = Alcotest.check Alcotest.int msg
let checkb msg = Alcotest.check Alcotest.bool msg

let outcome_t =
  Alcotest.testable
    (fun ppf o -> S.pp_outcome ppf o)
    (fun a b -> a = b)

type algorithm = {
  name : string;
  run : G.t -> S.stats;
}

let algorithms =
  [
    { name = "cycle-canceling"; run = (fun g -> Mcmf.Cycle_canceling.solve g) };
    { name = "ssp"; run = (fun g -> Mcmf.Ssp.solve g) };
    {
      name = "cost-scaling";
      run = (fun g -> Mcmf.Cost_scaling.solve (Mcmf.Cost_scaling.create ()) g);
    };
    {
      name = "cost-scaling-alpha9";
      run = (fun g -> Mcmf.Cost_scaling.solve (Mcmf.Cost_scaling.create ~alpha:9 ()) g);
    };
    { name = "relaxation"; run = (fun g -> Mcmf.Relaxation.solve g) };
    {
      name = "relaxation-no-ap";
      run = (fun g -> Mcmf.Relaxation.solve ~arc_prioritization:false g);
    };
  ]

(* {1 Hand instances} *)

(* Two sources, two paths of different cost, tight capacities: the optimum
   is forced to split flow and its cost is computable by hand. *)
let diamond () =
  let g = G.create () in
  let s1 = G.add_node g ~supply:3 in
  let s2 = G.add_node g ~supply:2 in
  let mid = G.add_node g ~supply:0 in
  let t = G.add_node g ~supply:(-5) in
  ignore (G.add_arc g ~src:s1 ~dst:mid ~cost:1 ~cap:2);
  ignore (G.add_arc g ~src:s1 ~dst:t ~cost:5 ~cap:3);
  ignore (G.add_arc g ~src:s2 ~dst:mid ~cost:2 ~cap:2);
  ignore (G.add_arc g ~src:s2 ~dst:t ~cost:4 ~cap:2);
  ignore (G.add_arc g ~src:mid ~dst:t ~cost:1 ~cap:3);
  g

(* Optimal: s1 sends 2 via mid (cost 1+1 each) and 1 direct (5);
   mid's capacity to t is 3, so s2 sends 1 via mid (2+1) and 1 direct (4).
   Total = 2*2 + 5 + 3 + 4 = 16. *)
let diamond_optimal_cost = 16

(* The paper's Figure 5 flow network: five tasks of two jobs, four
   machines, per-job unscheduled aggregators, one sink. Unit capacities on
   task arcs; T0 tasks pay 5 to stay unscheduled, T1 tasks pay 7. Task
   preference costs chosen so exactly one task (T01) stays unscheduled when
   machines have one slot each, as in the figure. *)
let figure5 () =
  let g = G.create () in
  let t00 = G.add_node g ~supply:1 in
  let t01 = G.add_node g ~supply:1 in
  let t02 = G.add_node g ~supply:1 in
  let t10 = G.add_node g ~supply:1 in
  let t11 = G.add_node g ~supply:1 in
  let m = Array.init 4 (fun _ -> G.add_node g ~supply:0) in
  let u0 = G.add_node g ~supply:0 in
  let u1 = G.add_node g ~supply:0 in
  let sink = G.add_node g ~supply:(-5) in
  let arc s d c cap = ignore (G.add_arc g ~src:s ~dst:d ~cost:c ~cap) in
  arc t00 m.(0) 2 1;
  arc t00 m.(1) 3 1;
  arc t01 m.(0) 1 1;
  arc t02 m.(1) 6 1;
  arc t02 m.(2) 4 1;
  arc t10 m.(2) 2 1;
  arc t10 m.(3) 1 1;
  arc t11 m.(3) 2 1;
  arc t00 u0 5 1;
  arc t01 u0 5 1;
  arc t02 u0 5 1;
  arc t10 u1 7 1;
  arc t11 u1 7 1;
  List.iter (fun mi -> arc mi sink 0 1) (Array.to_list m);
  arc u0 sink 0 3;
  arc u1 sink 0 2;
  (g, (t00, t01, t02, t10, t11), m, sink)

(* T00->M0 (2), T01 unscheduled (5), T02->M2... competition: T10 wants M3(1)
   and M2(2); T11 only M3(2). Best: T00->M0=2, T02->M1=6 or M2=4;
   T10->M2=2 or M3=1; T11->M3=2.
   Assign T02->M2(4) forces T10->M3(1) and T11 unscheduled(7): 2+5+4+1+7=19.
   Assign T02->M1(6), T10->M2(2), T11->M3(2), T01 unscheduled(5): 2+5+6+2+2=17.
   Assign T01->M0(1), T00->M1(3), T02->M2(4), T10->M3(1), T11 unsched(7): 16.
   Assign T01->M0(1), T00->M1(3), T02 unsched(5), T10->M2(2), T11->M3(2): 13. *)
let figure5_optimal_cost = 13

let test_diamond_all_algorithms () =
  List.iter
    (fun alg ->
      let g = diamond () in
      let st = alg.run g in
      Alcotest.check outcome_t (alg.name ^ " outcome") S.Optimal st.S.outcome;
      checki (alg.name ^ " cost") diamond_optimal_cost (G.total_cost g);
      checkb (alg.name ^ " valid") true (Validate.is_optimal g))
    algorithms

let test_figure5_all_algorithms () =
  List.iter
    (fun alg ->
      let g, _, _, _ = figure5 () in
      let st = alg.run g in
      Alcotest.check outcome_t (alg.name ^ " outcome") S.Optimal st.S.outcome;
      checki (alg.name ^ " cost") figure5_optimal_cost (G.total_cost g);
      checkb (alg.name ^ " valid") true (Validate.is_optimal g))
    algorithms

let test_figure5_placements () =
  (* The min-cost solution leaves exactly one task unscheduled. *)
  let g, (t00, t01, t02, t10, t11), m, _ = figure5 () in
  ignore (Mcmf.Relaxation.solve g);
  let scheduled t =
    let placed = ref false in
    G.iter_out g t (fun a ->
        if G.is_forward a && G.flow g a = 1 && Array.exists (fun x -> x = G.dst g a) m then
          placed := true);
    !placed
  in
  let placements = List.map scheduled [ t00; t01; t02; t10; t11 ] in
  checki "exactly four scheduled" 4
    (List.length (List.filter Fun.id placements))

let test_infeasible_detected () =
  (* A source with demand unreachable within capacity. *)
  List.iter
    (fun alg ->
      let g = G.create () in
      let s = G.add_node g ~supply:5 in
      let t = G.add_node g ~supply:(-5) in
      ignore (G.add_arc g ~src:s ~dst:t ~cost:1 ~cap:2);
      let st = alg.run g in
      Alcotest.check outcome_t (alg.name ^ " infeasible") S.Infeasible st.S.outcome)
    algorithms

let test_empty_graph () =
  List.iter
    (fun alg ->
      let g = G.create () in
      let st = alg.run g in
      Alcotest.check outcome_t (alg.name ^ " empty optimal") S.Optimal st.S.outcome)
    algorithms

let test_zero_supply_graph () =
  (* No supply: the zero flow must be recognized optimal even with
     tempting negative arcs absent; with a negative arc, flow circulates
     only if a negative cycle exists. *)
  List.iter
    (fun alg ->
      let g = G.create () in
      let a = G.add_node g ~supply:0 in
      let b = G.add_node g ~supply:0 in
      ignore (G.add_arc g ~src:a ~dst:b ~cost:3 ~cap:4);
      let st = alg.run g in
      Alcotest.check outcome_t (alg.name ^ " outcome") S.Optimal st.S.outcome;
      checki (alg.name ^ " cost") 0 (G.total_cost g))
    algorithms

let test_negative_arc_costs () =
  (* Negative arcs must be exploited: sending via the negative arc is
     cheaper despite a longer path. *)
  List.iter
    (fun alg ->
      let g = G.create () in
      let s = G.add_node g ~supply:1 in
      let v = G.add_node g ~supply:0 in
      let t = G.add_node g ~supply:(-1) in
      ignore (G.add_arc g ~src:s ~dst:t ~cost:1 ~cap:1);
      ignore (G.add_arc g ~src:s ~dst:v ~cost:2 ~cap:1);
      ignore (G.add_arc g ~src:v ~dst:t ~cost:(-4) ~cap:1);
      let st = alg.run g in
      Alcotest.check outcome_t (alg.name ^ " outcome") S.Optimal st.S.outcome;
      checki (alg.name ^ " cost") (-2) (G.total_cost g))
    algorithms

let test_negative_cycle_in_input () =
  (* A zero-supply graph containing a negative cycle: optimal flow
     saturates the cycle. Cost of cycle: 1 - 3 = -2 per unit, cap 2. *)
  List.iter
    (fun alg ->
      let g = G.create () in
      let a = G.add_node g ~supply:0 in
      let b = G.add_node g ~supply:0 in
      ignore (G.add_arc g ~src:a ~dst:b ~cost:1 ~cap:2);
      ignore (G.add_arc g ~src:b ~dst:a ~cost:(-3) ~cap:2);
      let st = alg.run g in
      Alcotest.check outcome_t (alg.name ^ " outcome") S.Optimal st.S.outcome;
      checki (alg.name ^ " cost") (-4) (G.total_cost g);
      checkb (alg.name ^ " optimal") true (Validate.is_optimal g))
    algorithms

(* {1 Random cross-checking} *)

(* Generate a feasible instance: [k] sources, one sink, a backbone arc from
   each source to the sink (guaranteeing feasibility) plus random arcs. *)
let random_instance (seed : int) =
  let rng = Random.State.make [| seed |] in
  let g = G.create () in
  let n = 4 + Random.State.int rng 12 in
  let nodes = Array.init n (fun _ -> G.add_node g ~supply:0) in
  let sink = nodes.(n - 1) in
  let total = ref 0 in
  for i = 0 to n - 2 do
    if Random.State.bool rng then begin
      let s = 1 + Random.State.int rng 5 in
      G.set_supply g nodes.(i) s;
      total := !total + s;
      (* Backbone: expensive but guarantees feasibility. *)
      ignore (G.add_arc g ~src:nodes.(i) ~dst:sink ~cost:(50 + Random.State.int rng 50) ~cap:s)
    end
  done;
  G.set_supply g sink (- !total);
  let arcs = n * 3 in
  for _ = 1 to arcs do
    let i = Random.State.int rng n and j = Random.State.int rng n in
    if i <> j then
      ignore
        (G.add_arc g ~src:nodes.(i) ~dst:nodes.(j)
           ~cost:(Random.State.int rng 41 - 5)
           ~cap:(Random.State.int rng 8))
  done;
  g

(* One instance per seed, cycling through all three NETGEN families so the
   agreement property exercises transportation, grid and scheduling shapes
   rather than a single ad-hoc topology. *)
let netgen_instance (seed : int) =
  let s = seed / 3 in
  let inst =
    match seed mod 3 with
    | 0 ->
        Flowgraph.Netgen.transportation
          ~sources:(3 + (s mod 8))
          ~sinks:(2 + (s mod 4))
          ~seed ()
    | 1 -> Flowgraph.Netgen.grid ~width:(3 + (s mod 5)) ~height:(2 + (s mod 4)) ~seed ()
    | _ ->
        Flowgraph.Netgen.scheduling
          ~tasks:(5 + (s mod 25))
          ~machines:(3 + (s mod 6))
          ~seed ()
  in
  inst.Flowgraph.Netgen.graph

(* Cost perturbations and capacity increases: arbitrary on any feasible
   instance (costs stay non-negative, capacity never shrinks, so the
   feasibility backbone survives). *)
let mutation_burst ~mseed g =
  let rng = Random.State.make [| 0x6d7574; mseed |] in
  let arcs = ref [] in
  G.iter_arcs g (fun a -> arcs := a :: !arcs);
  List.iter
    (fun a ->
      match Random.State.int rng 3 with
      | 0 -> G.set_cost g a (max 0 (G.cost g a + Random.State.int rng 21 - 5))
      | 1 -> G.set_capacity g a (G.capacity g a + Random.State.int rng 4)
      | _ -> ())
    !arcs

let prop_all_algorithms_agree =
  QCheck.Test.make
    ~name:"all algorithms agree on NETGEN families; incremental matches after burst"
    ~count:90
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      (* Phase 1: every algorithm, from scratch, on the same instance. *)
      let reference = ref None in
      let scratch_ok =
        List.for_all
          (fun alg ->
            let g = netgen_instance seed in
            let st = alg.run g in
            if st.S.outcome <> S.Optimal then false
            else if not (Validate.is_optimal g) then false
            else begin
              let c = G.total_cost g in
              match !reference with
              | None ->
                  reference := Some c;
                  true
              | Some c' -> c = c'
            end)
          algorithms
      in
      scratch_ok
      && begin
           (* Phase 2: warm incremental re-solves after a mutation burst
              must match a from-scratch solve of the mutated instance. *)
           let g_ref = netgen_instance seed in
           mutation_burst ~mseed:seed g_ref;
           let s_ref = Mcmf.Ssp.solve g_ref in
           let cs = Mcmf.Cost_scaling.create ~alpha:4 () in
           let g_cs = netgen_instance seed in
           ignore (Mcmf.Cost_scaling.solve cs g_cs);
           mutation_burst ~mseed:seed g_cs;
           let s_cs = Mcmf.Cost_scaling.solve ~incremental:true cs g_cs in
           let g_rx = netgen_instance seed in
           ignore (Mcmf.Relaxation.solve g_rx);
           mutation_burst ~mseed:seed g_rx;
           let s_rx = Mcmf.Relaxation.solve ~incremental:true g_rx in
           s_ref.S.outcome = S.Optimal
           && s_cs.S.outcome = S.Optimal
           && s_rx.S.outcome = S.Optimal
           && Validate.is_optimal g_cs && Validate.is_optimal g_rx
           && G.total_cost g_cs = G.total_cost g_ref
           && G.total_cost g_rx = G.total_cost g_ref
         end)

let prop_incremental_cost_scaling_matches =
  (* Solve, mutate randomly, re-solve incrementally; the incremental result
     must match a from-scratch solve of the mutated graph. *)
  QCheck.Test.make ~name:"incremental cost scaling = from scratch" ~count:80
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, mseed) ->
      let st = Mcmf.Cost_scaling.create ~alpha:4 () in
      let g = random_instance seed in
      let s1 = Mcmf.Cost_scaling.solve st g in
      if s1.S.outcome <> S.Optimal then QCheck.assume_fail ()
      else begin
        (* Random mutations: cost and capacity changes on existing arcs. *)
        let rng = Random.State.make [| mseed |] in
        let arcs = ref [] in
        G.iter_arcs g (fun a -> arcs := a :: !arcs);
        List.iter
          (fun a ->
            match Random.State.int rng 4 with
            | 0 -> G.set_cost g a (Random.State.int rng 41 - 5)
            | 1 -> G.set_capacity g a (G.capacity g a + Random.State.int rng 4)
            | 2 ->
                (* Never shrink a backbone arc below its source's supply:
                   keep the instance feasible. *)
                if G.cost g a < 50 then
                  G.set_capacity g a (max 0 (G.capacity g a - Random.State.int rng 3))
            | _ -> ())
          !arcs;
        let g_scratch = G.copy g in
        let s2 = Mcmf.Cost_scaling.solve ~incremental:true st g in
        let s3 = Mcmf.Cost_scaling.solve (Mcmf.Cost_scaling.create ()) g_scratch in
        s2.S.outcome = S.Optimal && s3.S.outcome = S.Optimal
        && G.total_cost g = G.total_cost g_scratch
        && Validate.is_optimal g
      end)

let prop_incremental_relaxation_matches =
  QCheck.Test.make ~name:"incremental relaxation = from scratch" ~count:80
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, mseed) ->
      let g = random_instance seed in
      let s1 = Mcmf.Relaxation.solve g in
      if s1.S.outcome <> S.Optimal then QCheck.assume_fail ()
      else begin
        let rng = Random.State.make [| mseed |] in
        let arcs = ref [] in
        G.iter_arcs g (fun a -> arcs := a :: !arcs);
        List.iter
          (fun a ->
            match Random.State.int rng 4 with
            | 0 -> G.set_cost g a (Random.State.int rng 41 - 5)
            | 1 -> G.set_capacity g a (G.capacity g a + Random.State.int rng 4)
            | _ -> ())
          !arcs;
        let g_scratch = G.copy g in
        let s2 = Mcmf.Relaxation.solve ~incremental:true g in
        let s3 = Mcmf.Relaxation.solve g_scratch in
        s2.S.outcome = S.Optimal && s3.S.outcome = S.Optimal
        && G.total_cost g = G.total_cost g_scratch
        && Validate.is_optimal g
      end)

let prop_price_refine_restores_slackness =
  QCheck.Test.make ~name:"price refine yields reduced-cost-optimal potentials" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = random_instance seed in
      let st = Mcmf.Relaxation.solve g in
      if st.S.outcome <> S.Optimal then QCheck.assume_fail ()
      else begin
        (* Scramble potentials, then refine. *)
        G.iter_nodes g (fun n -> G.set_potential g n (((n * 7919) mod 23) - 11));
        Mcmf.Price_refine.run g && Validate.is_reduced_cost_optimal g
      end)

let prop_price_refine_refuses_nonoptimal =
  QCheck.Test.make ~name:"price refine refuses non-optimal flow" ~count:50
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = random_instance seed in
      (* Find a negative cycle opportunity: route flow expensively by hand
         along a backbone arc while a cheaper alternative exists. This is
         just zero flow + an added negative cycle. *)
      let a = G.add_node g ~supply:0 in
      let b = G.add_node g ~supply:0 in
      ignore (G.add_arc g ~src:a ~dst:b ~cost:1 ~cap:1);
      ignore (G.add_arc g ~src:b ~dst:a ~cost:(-2) ~cap:1);
      not (Mcmf.Price_refine.run g))

(* {1 Golden DIMACS instance} *)

let test_golden_dimacs_instance () =
  (* A checked-in assignment-shaped instance with a known optimum (36);
     exercises file loading plus every solver on identical input. *)
  let path = "data/netgen_8.min" in
  List.iter
    (fun alg ->
      let g, _ = Dimacs.load path in
      let st = alg.run g in
      Alcotest.check outcome_t (alg.name ^ " outcome") S.Optimal st.S.outcome;
      checki (alg.name ^ " golden cost") 36 (G.total_cost g);
      checkb (alg.name ^ " valid") true (Validate.is_optimal g))
    algorithms

(* {1 Structural edge cases} *)

let test_parallel_arcs () =
  (* Two arcs between the same pair with different costs: cheap one fills
     first. *)
  List.iter
    (fun alg ->
      let g = G.create () in
      let s = G.add_node g ~supply:3 in
      let t = G.add_node g ~supply:(-3) in
      let cheap = G.add_arc g ~src:s ~dst:t ~cost:1 ~cap:2 in
      let dear = G.add_arc g ~src:s ~dst:t ~cost:5 ~cap:2 in
      let st = alg.run g in
      Alcotest.check outcome_t (alg.name ^ " outcome") S.Optimal st.S.outcome;
      checki (alg.name ^ " cheap saturated") 2 (G.flow g cheap);
      checki (alg.name ^ " dear partial") 1 (G.flow g dear);
      checki (alg.name ^ " cost") 7 (G.total_cost g))
    algorithms

let test_negative_self_loop () =
  (* A negative-cost self loop must be saturated by the optimum (it lowers
     cost without moving supply). *)
  List.iter
    (fun alg ->
      let g = G.create () in
      let a = G.add_node g ~supply:0 in
      let loop = G.add_arc g ~src:a ~dst:a ~cost:(-3) ~cap:4 in
      let st = alg.run g in
      Alcotest.check outcome_t (alg.name ^ " outcome") S.Optimal st.S.outcome;
      checki (alg.name ^ " loop saturated") 4 (G.flow g loop);
      checki (alg.name ^ " cost") (-12) (G.total_cost g))
    algorithms

let test_zero_capacity_arcs_ignored () =
  List.iter
    (fun alg ->
      let g = G.create () in
      let s = G.add_node g ~supply:1 in
      let t = G.add_node g ~supply:(-1) in
      ignore (G.add_arc g ~src:s ~dst:t ~cost:0 ~cap:0);
      ignore (G.add_arc g ~src:s ~dst:t ~cost:7 ~cap:1);
      let st = alg.run g in
      Alcotest.check outcome_t (alg.name ^ " outcome") S.Optimal st.S.outcome;
      checki (alg.name ^ " cost") 7 (G.total_cost g))
    algorithms

let test_optimality_maintaining_algorithms_leave_valid_duals () =
  (* Relaxation and SSP maintain reduced-cost optimality (paper Table 2):
     their final potentials must certify the solution. *)
  List.iter
    (fun (name, solve) ->
      let g = diamond () in
      let st : S.stats = solve g in
      Alcotest.check outcome_t (name ^ " outcome") S.Optimal st.S.outcome;
      checkb (name ^ " reduced-cost optimal potentials") true
        (Validate.is_reduced_cost_optimal g))
    [
      ("relaxation", fun g -> Mcmf.Relaxation.solve g);
      ("ssp", fun g -> Mcmf.Ssp.solve g);
    ]

let prop_duals_certify_relaxation =
  QCheck.Test.make ~name:"relaxation potentials certify optimality" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = random_instance seed in
      let st = Mcmf.Relaxation.solve g in
      if st.S.outcome <> S.Optimal then QCheck.assume_fail ()
      else Validate.is_reduced_cost_optimal g)

let test_max_flow_routes_feasible () =
  let g = diamond () in
  checkb "feasible" true (Mcmf.Max_flow.route g);
  checkb "flow feasible" true (Validate.is_feasible g);
  (* Max-flow ignores costs: the result need not be optimal. *)
  let g2 = G.create () in
  let s = G.add_node g2 ~supply:5 in
  let t = G.add_node g2 ~supply:(-5) in
  ignore (G.add_arc g2 ~src:s ~dst:t ~cost:1 ~cap:3);
  checkb "infeasible detected" false (Mcmf.Max_flow.route g2)

(* {1 Generator-driven stress tests} *)

let netgen_cost instance alg =
  let g = instance.Flowgraph.Netgen.graph in
  let st = alg.run g in
  Alcotest.check outcome_t (alg.name ^ " outcome") S.Optimal st.S.outcome;
  checkb (alg.name ^ " valid") true (Validate.is_optimal g);
  G.total_cost g

let agree_on mk =
  match List.map (fun alg -> netgen_cost (mk ()) alg) algorithms with
  | [] -> ()
  | c :: rest -> List.iter (fun c' -> checki "same optimal cost" c c') rest

let test_netgen_transportation_agreement () =
  agree_on (fun () ->
      Flowgraph.Netgen.transportation ~sources:12 ~sinks:6 ~seed:3 ())

let test_netgen_grid_agreement () =
  agree_on (fun () -> Flowgraph.Netgen.grid ~width:6 ~height:4 ~seed:4 ())

let test_netgen_scheduling_agreement () =
  agree_on (fun () -> Flowgraph.Netgen.scheduling ~tasks:40 ~machines:8 ~seed:5 ())

let prop_netgen_grid_agreement =
  QCheck.Test.make ~name:"grid instances: relaxation = cost scaling" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let solve mk_alg =
        let inst = Flowgraph.Netgen.grid ~width:5 ~height:3 ~seed () in
        let st = mk_alg inst.Flowgraph.Netgen.graph in
        let ok =
          st.S.outcome = S.Optimal && Validate.is_optimal inst.Flowgraph.Netgen.graph
        in
        (ok, G.total_cost inst.Flowgraph.Netgen.graph)
      in
      let ok1, c1 = solve (fun g -> Mcmf.Relaxation.solve g) in
      let ok2, c2 =
        solve (fun g -> Mcmf.Cost_scaling.solve (Mcmf.Cost_scaling.create ~alpha:4 ()) g)
      in
      ok1 && ok2 && c1 = c2)

let prop_incremental_random_change_stream =
  (* Long-horizon incremental soak: a stream of random structural changes
     interleaved with incremental solves must stay in lockstep with
     from-scratch solves at every step. *)
  QCheck.Test.make ~name:"incremental lockstep under change streams" ~count:25
    QCheck.(pair (int_bound 100_000) (list_of_size Gen.(int_range 4 12) (int_bound 1_000)))
    (fun (seed, steps) ->
      let inst = Flowgraph.Netgen.scheduling ~tasks:20 ~machines:5 ~seed () in
      let g = inst.Flowgraph.Netgen.graph in
      let st = Mcmf.Cost_scaling.create ~alpha:4 () in
      let ok = ref ((Mcmf.Cost_scaling.solve st g).S.outcome = S.Optimal) in
      let rng = Random.State.make [| seed + 1 |] in
      List.iter
        (fun _step ->
          if !ok then begin
            (* Random change: cost or capacity tweak on a random live arc. *)
            let arcs = ref [] in
            G.iter_arcs g (fun a -> arcs := a :: !arcs);
            (match !arcs with
            | [] -> ()
            | l ->
                let a = List.nth l (Random.State.int rng (List.length l)) in
                if Random.State.bool rng then
                  G.set_cost g a (1 + Random.State.int rng 2_000)
                else G.set_capacity g a (Random.State.int rng 4));
            let g_scratch = G.copy g in
            let s_inc = Mcmf.Cost_scaling.solve ~incremental:true st g in
            let s_scr =
              Mcmf.Cost_scaling.solve (Mcmf.Cost_scaling.create ~alpha:4 ()) g_scratch
            in
            ok :=
              s_inc.S.outcome = S.Optimal && s_scr.S.outcome = S.Optimal
              && G.total_cost g = G.total_cost g_scratch
              && Validate.is_optimal g
          end)
        steps;
      !ok)

let prop_netgen_always_feasible =
  QCheck.Test.make ~name:"generated instances are feasible" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let feasible (i : Flowgraph.Netgen.instance) =
        Mcmf.Max_flow.route i.Flowgraph.Netgen.graph
      in
      feasible (Flowgraph.Netgen.transportation ~sources:6 ~sinks:3 ~seed ())
      && feasible (Flowgraph.Netgen.grid ~width:4 ~height:3 ~seed ())
      && feasible (Flowgraph.Netgen.scheduling ~tasks:15 ~machines:4 ~seed ()))

let test_race_prepare_noop_without_cost_scaling () =
  (* Relaxation-only mode never needs scaled potentials: prepare must not
     touch the graph. *)
  let race = Mcmf.Race.create ~mode:Mcmf.Race.Relaxation_only () in
  let g = diamond () in
  ignore (Mcmf.Relaxation.solve g);
  let before = List.init 4 (fun n -> G.potential g n) in
  Mcmf.Race.prepare race g;
  let after = List.init 4 (fun n -> G.potential g n) in
  Alcotest.(check (list int)) "potentials untouched" before after

let test_deadline_stop_fires_after_elapsed () =
  let stop = S.deadline_stop 0.005 in
  checkb "not immediately" false (stop ());
  Unix.sleepf 0.01;
  checkb "after deadline" true (stop ())

let test_either_stop_combines () =
  let fired = ref false in
  let stop = S.either_stop (fun () -> !fired) S.never_stop in
  checkb "neither" false (stop ());
  fired := true;
  checkb "first fires" true (stop ())

let test_cost_scaling_rejects_bad_alpha () =
  Alcotest.check_raises "alpha < 2" (Invalid_argument "Cost_scaling.create: alpha < 2")
    (fun () -> ignore (Mcmf.Cost_scaling.create ~alpha:1 ()))

(* {1 Race orchestration} *)

let test_race_parallel () =
  let race = Mcmf.Race.create ~mode:Mcmf.Race.Race () in
  let g = diamond () in
  let r = Mcmf.Race.solve race g in
  checki "cost" diamond_optimal_cost (G.total_cost r.Mcmf.Race.graph);
  Alcotest.check outcome_t "winner optimal" S.Optimal r.Mcmf.Race.stats.S.outcome

let test_race_modes_agree () =
  let costs =
    List.map
      (fun mode ->
        let race = Mcmf.Race.create ~mode () in
        let g = random_instance 42 in
        let r = Mcmf.Race.solve race g in
        G.total_cost r.Mcmf.Race.graph)
      (List.map snd Mcmf.Race.modes)
  in
  match costs with
  | c :: rest -> List.iter (fun c' -> checki "same cost" c c') rest
  | [] -> ()

let test_race_incremental_sequence () =
  (* Drive several change->prepare->solve cycles through the orchestrator,
     checking optimality at each step (the scheduler's usage pattern).
     [Race_only] never repairs, so every round runs the full solvers. *)
  let race = Mcmf.Race.create ~mode:Mcmf.Race.Race_only () in
  let g = ref (diamond ()) in
  let r = Mcmf.Race.solve race !g in
  g := r.Mcmf.Race.graph;
  for i = 1 to 5 do
    Mcmf.Race.prepare race !g;
    (* Add one more source each round. *)
    let s = G.add_node !g ~supply:1 in
    let sink = ref (-1) in
    G.iter_nodes !g (fun n -> if G.supply !g n < 0 then sink := n);
    G.set_supply !g !sink (G.supply !g !sink - 1);
    ignore (G.add_arc !g ~src:s ~dst:!sink ~cost:(3 + i) ~cap:1);
    let r = Mcmf.Race.solve race !g in
    g := r.Mcmf.Race.graph;
    checkb "optimal each round" true (Validate.is_optimal !g)
  done

let test_race_recycle_rounds_stay_optimal () =
  (* The scheduler's steady-state protocol: adopt the winner's graph, hand
     the displaced one back through [recycle], mutate, solve again. Rounds
     after the first reuse scratch slots via [copy_into]; every one must
     still be optimal and agree with a from-scratch reference solve.
     [Race_only]: the repair would solve in place and never take a slot. *)
  let race = Mcmf.Race.create ~mode:Mcmf.Race.Race_only () in
  let g = ref (diamond ()) in
  for i = 1 to 8 do
    Mcmf.Race.prepare race !g;
    let r = Mcmf.Race.solve race !g in
    Alcotest.check outcome_t "optimal" S.Optimal r.Mcmf.Race.stats.S.outcome;
    let old = !g in
    g := r.Mcmf.Race.graph;
    if old != !g then Mcmf.Race.recycle race old;
    checkb "round optimal" true (Validate.is_optimal !g);
    let reference = G.copy !g in
    G.reset_flow reference;
    ignore (Mcmf.Ssp.solve reference);
    checki "matches scratch reference" (G.total_cost reference) (G.total_cost !g);
    (* Perturb one arc cost so the next round has real work. *)
    let some_arc = ref (-1) in
    G.iter_arcs !g (fun a -> if !some_arc < 0 then some_arc := a);
    G.set_cost !g !some_arc (1 + ((i * 3) mod 7))
  done

let test_race_handed_out_graph_never_clobbered () =
  (* A result graph the caller has NOT recycled must stay untouched by
     later rounds: its slot is empty, so subsequent solves may not write
     into it. (This is what lets the scheduler keep reading placements
     while the next round runs.) *)
  let race = Mcmf.Race.create ~mode:Mcmf.Race.Race () in
  let r1 = Mcmf.Race.solve race (diamond ()) in
  let kept = r1.Mcmf.Race.graph in
  let cost1 = G.total_cost kept in
  checki "first round optimal cost" diamond_optimal_cost cost1;
  (* Run several further rounds on other instances without recycling. *)
  for seed = 1 to 3 do
    let inst = Flowgraph.Netgen.transportation ~sources:6 ~sinks:5 ~seed () in
    let r = Mcmf.Race.solve race inst.Flowgraph.Netgen.graph in
    checkb "later result is a different graph" true (r.Mcmf.Race.graph != kept)
  done;
  checki "kept graph unchanged" cost1 (G.total_cost kept);
  checkb "kept graph still optimal" true (Validate.is_optimal kept);
  (* Once recycled, the slot may be reused... *)
  Mcmf.Race.recycle race kept;
  Mcmf.Race.recycle race kept;
  (* ...and double-recycle above must have been a harmless no-op: a round
     solved now still takes two distinct working copies. *)
  let r = Mcmf.Race.solve race (diamond ()) in
  checki "post-recycle round optimal" diamond_optimal_cost
    (G.total_cost r.Mcmf.Race.graph)

let test_race_recycling_input_is_rejected () =
  (* Recycling the live input graph must not let a later [take] alias it:
     the slot guards compare physically against the input. *)
  let race = Mcmf.Race.create ~mode:Mcmf.Race.Relaxation_only () in
  let g = diamond () in
  Mcmf.Race.recycle race g;
  let r = Mcmf.Race.solve race g in
  checkb "working copy is not the input" true (r.Mcmf.Race.graph != g);
  checki "still optimal" diamond_optimal_cost (G.total_cost r.Mcmf.Race.graph);
  (* The input keeps its zero flow: the solver worked on a copy. *)
  checki "input untouched" 0 (G.total_cost g)

(* {1 Incremental flow repair} *)

(* A change-set burst richer than [mutation_burst]: cost perturbations,
   capacity increases {e and cuts}, plus a handful of brand-new arcs —
   the full shape of a scheduler round's deltas minus task add/remove
   (covered end-to-end by the fuzz harness). Capacity cuts may make the
   instance infeasible; callers must accept a [No_path] give-up exactly
   when a scratch solve is infeasible. *)
let repair_burst ~mseed g =
  let rng = Random.State.make [| 0x726570; mseed |] in
  let arcs = ref [] in
  G.iter_arcs g (fun a -> arcs := a :: !arcs);
  List.iter
    (fun a ->
      match Random.State.int rng 6 with
      | 0 -> G.set_cost g a (max 0 (G.cost g a + Random.State.int rng 21 - 10))
      | 1 -> G.set_capacity g a (G.capacity g a + Random.State.int rng 4)
      | 2 -> G.set_capacity g a (max 0 (G.capacity g a - Random.State.int rng 2))
      | _ -> ())
    !arcs;
  let nodes = ref [] in
  G.iter_nodes g (fun v -> nodes := v :: !nodes);
  let nodes = Array.of_list !nodes in
  let n = Array.length nodes in
  if n >= 2 then
    for _ = 1 to 1 + Random.State.int rng 4 do
      let i = Random.State.int rng n and j = Random.State.int rng n in
      if i <> j then
        ignore
          (G.add_arc g ~src:nodes.(i) ~dst:nodes.(j)
             ~cost:(Random.State.int rng 30)
             ~cap:(Random.State.int rng 6))
    done

let prop_incremental_repair_matches_full =
  (* The tentpole property: starting from a certified optimal solution,
     [Incremental.repair] after an arbitrary mutation burst must land on
     the same objective cost as a from-scratch solve of the mutated
     instance, feasible and optimal per the validators — across all
     three NETGEN families. When the burst makes the instance
     infeasible, repair must give up [No_path], never mis-certify. *)
  QCheck.Test.make ~name:"incremental repair = full solve on NETGEN after burst"
    ~count:120
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, mseed) ->
      let g = netgen_instance seed in
      let s1 = Mcmf.Relaxation.solve g in
      if s1.S.outcome <> S.Optimal then QCheck.assume_fail ()
      else if not (Mcmf.Price_refine.certified ~scale:1 g) then
        QCheck.Test.fail_report "relaxation optimum not dual-feasible"
      else begin
        repair_burst ~mseed g;
        let g_scratch = G.copy g in
        G.reset_flow g_scratch;
        let s_ref = Mcmf.Ssp.solve g_scratch in
        match Mcmf.Incremental.repair ~max_scan:max_int ~scale:1 g with
        | Mcmf.Incremental.Repaired st ->
            if s_ref.S.outcome <> S.Optimal then
              QCheck.Test.fail_report "repair certified an infeasible instance"
            else
              st.S.outcome = S.Optimal
              && G.total_cost g = G.total_cost g_scratch
              && Validate.is_feasible g && Validate.is_optimal g
        | Mcmf.Incremental.Gave_up Mcmf.Incremental.No_path ->
            (* Sound give-up only on genuinely unroutable change sets. *)
            s_ref.S.outcome = S.Infeasible
        | Mcmf.Incremental.Gave_up r ->
            QCheck.Test.fail_report
              ("repair gave up: " ^ Mcmf.Incremental.reason_name r)
      end)

let prop_race_repair_path_matches =
  (* Race-level integration: prepare on the adopted optimum, mutate, then
     solve — whatever path the orchestrator takes (repair or full race),
     the result must match a scratch solve. *)
  QCheck.Test.make ~name:"prepared race = scratch solve" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let race = Mcmf.Race.create ~mode:Mcmf.Race.Race () in
      let r1 = Mcmf.Race.solve race (netgen_instance seed) in
      if r1.Mcmf.Race.stats.S.outcome <> S.Optimal then QCheck.assume_fail ()
      else begin
        let g = r1.Mcmf.Race.graph in
        Mcmf.Race.prepare race g;
        mutation_burst ~mseed:(seed lxor 0x5eed) g;
        let g_scratch = G.copy g in
        G.reset_flow g_scratch;
        let s_ref = Mcmf.Ssp.solve g_scratch in
        let r2 = Mcmf.Race.solve race g in
        r2.Mcmf.Race.stats.S.outcome = S.Optimal
        && s_ref.S.outcome = S.Optimal
        && G.total_cost r2.Mcmf.Race.graph = G.total_cost g_scratch
        && Validate.is_optimal r2.Mcmf.Race.graph
      end)

let counter_value name =
  let m = Telemetry.Metrics.global () in
  match Telemetry.Metrics.find m name with
  | Some id -> Telemetry.Metrics.value m id
  | None -> 0

let test_race_repair_taken_and_telemetry () =
  (* The orchestrator must actually take the repair path on a quiet round
     following prepare on the adopted graph, report [winner = Repair]
     with both per-solver stats absent, and count it in telemetry. *)
  let repairs0 = counter_value "mcmf_race_wins_repair_total" in
  let race = Mcmf.Race.create ~mode:Mcmf.Race.Race () in
  let r1 = Mcmf.Race.solve race (diamond ()) in
  Alcotest.check outcome_t "round 1 optimal" S.Optimal r1.Mcmf.Race.stats.S.outcome;
  let g = r1.Mcmf.Race.graph in
  Mcmf.Race.prepare race g;
  (* Small perturbation: one arc cost bump. *)
  let some_arc = ref (-1) in
  G.iter_arcs g (fun a -> if !some_arc < 0 then some_arc := a);
  G.set_cost g !some_arc (G.cost g !some_arc + 2);
  let r2 = Mcmf.Race.solve race g in
  Alcotest.check outcome_t "repair round optimal" S.Optimal r2.Mcmf.Race.stats.S.outcome;
  checkb "winner is Repair" true (r2.Mcmf.Race.winner = Mcmf.Race.Repair);
  checkb "no per-solver stats on repair rounds" true
    (r2.Mcmf.Race.relaxation_stats = None && r2.Mcmf.Race.cost_scaling_stats = None);
  checkb "repair win counted" true
    (counter_value "mcmf_race_wins_repair_total" > repairs0);
  checkb "repaired graph optimal" true (Validate.is_optimal r2.Mcmf.Race.graph);
  (* Without a fresh prepare (or after a round that did not certify), the
     next solve must fall back to the full race. *)
  let g2 = r2.Mcmf.Race.graph in
  let r3 = Mcmf.Race.solve race (G.copy g2) in
  checkb "no repair without prepare on that graph" true
    (r3.Mcmf.Race.winner <> Mcmf.Race.Repair)

let test_repair_give_up_reasons () =
  (* No_path: a single-arc instance whose only route is cut to zero. *)
  let g = G.create () in
  let s = G.add_node g ~supply:1 in
  let t = G.add_node g ~supply:(-1) in
  let a = G.add_arc g ~src:s ~dst:t ~cost:1 ~cap:1 in
  ignore (Mcmf.Ssp.solve g);
  checkb "solved" true (Validate.is_optimal g);
  G.set_capacity g a 0;
  (match Mcmf.Incremental.repair ~scale:1 g with
  | Mcmf.Incremental.Gave_up Mcmf.Incremental.No_path -> ()
  | Mcmf.Incremental.Gave_up r ->
      Alcotest.failf "expected No_path, got %s" (Mcmf.Incremental.reason_name r)
  | Mcmf.Incremental.Repaired _ -> Alcotest.fail "repaired an unroutable cut");
  (* Oversized: a burst whose searches scan past a work cap of 0. *)
  let g = netgen_instance 9 in
  ignore (Mcmf.Relaxation.solve g);
  repair_burst ~mseed:9 g;
  (match Mcmf.Incremental.repair ~max_scan:0 ~scale:1 g with
  | Mcmf.Incremental.Gave_up Mcmf.Incremental.Oversized -> ()
  | Mcmf.Incremental.Gave_up r ->
      Alcotest.failf "expected Oversized, got %s" (Mcmf.Incremental.reason_name r)
  | Mcmf.Incremental.Repaired _ -> Alcotest.fail "a work cap of 0 must not repair");
  (* Stopped: the stop callback fires before the first augmentation. *)
  let g = G.create () in
  let s = G.add_node g ~supply:2 in
  let t = G.add_node g ~supply:(-2) in
  let a = G.add_arc g ~src:s ~dst:t ~cost:1 ~cap:2 in
  let b = G.add_arc g ~src:s ~dst:t ~cost:3 ~cap:2 in
  ignore b;
  ignore (Mcmf.Ssp.solve g);
  G.set_capacity g a 1;
  (match Mcmf.Incremental.repair ~stop:(fun () -> true) ~scale:1 g with
  | Mcmf.Incremental.Gave_up Mcmf.Incremental.Stopped_mid_repair -> ()
  | Mcmf.Incremental.Gave_up r ->
      Alcotest.failf "expected Stopped, got %s" (Mcmf.Incremental.reason_name r)
  | Mcmf.Incremental.Repaired _ -> Alcotest.fail "stop must abandon the repair")

(* A burst of [k] brand-new unit sources, the shape of a batch of task
   arrivals: each new node has supply 1, zero to two cheap arcs into the
   existing graph, and a costly direct arc to an existing demand node
   whose demand grows by one — the instance stays balanced and the new
   unit always has a route, like a task's unscheduled arc. *)
let source_burst ~k ~mseed g =
  let rng = Random.State.make [| 0x737263; mseed |] in
  let nodes = ref [] and demands = ref [] in
  G.iter_nodes g (fun v ->
      nodes := v :: !nodes;
      if G.supply g v < 0 then demands := v :: !demands);
  let nodes = Array.of_list !nodes in
  let demands = Array.of_list (if !demands = [] then Array.to_list nodes else !demands) in
  for _ = 1 to k do
    let v = G.add_node g ~supply:1 in
    for _ = 1 to Random.State.int rng 3 do
      let w = nodes.(Random.State.int rng (Array.length nodes)) in
      ignore
        (G.add_arc g ~src:v ~dst:w ~cost:(Random.State.int rng 40)
           ~cap:(1 + Random.State.int rng 2))
    done;
    let t = demands.(Random.State.int rng (Array.length demands)) in
    ignore (G.add_arc g ~src:v ~dst:t ~cost:(100 + Random.State.int rng 50) ~cap:1);
    G.set_supply g t (G.supply g t - 1)
  done

(* {2 Undo journal} *)

(* The state a repair may touch and a rollback must restore: every live
   node's excess and potential, every live residual arc's capacity, and
   each node's active-arc {e set} (list order may differ after a
   rollback). *)
let repair_state g =
  let nodes = ref [] in
  G.iter_nodes g (fun v ->
      let active = ref [] in
      let it = ref (G.first_active g v) in
      while !it >= 0 do
        active := !it :: !active;
        it := G.next_active g !it
      done;
      nodes := (v, G.excess g v, G.potential g v, List.sort compare !active) :: !nodes);
  let arcs = ref [] in
  G.iter_arcs g (fun a -> arcs := (a, G.rescap g a, G.rescap g (G.rev a)) :: !arcs);
  (!nodes, !arcs)

let prop_repair_giveup_restores_graph =
  (* Every forced give-up — a scan cap of 0 or 3, a stop after the first
     phase, an unroutable unit — must leave flows, excesses, potentials
     and active-arc sets exactly as a pre-repair copy has them; a repair
     that succeeds anyway must be undone by [rollback] just as exactly. NETGEN families with cost, capacity and
     source bursts, as in the batched-repair property. *)
  QCheck.Test.make ~name:"forced give-ups and rollback restore the entry state"
    ~count:80
    QCheck.(triple (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 3))
    (fun (seed, mseed, force) ->
      let g = netgen_instance seed in
      if (Mcmf.Relaxation.solve g).S.outcome <> S.Optimal then QCheck.assume_fail ()
      else begin
        repair_burst ~mseed g;
        source_burst ~k:(1 + (mseed mod 40)) ~mseed g;
        if force = 3 then begin
          (* A unit with nowhere to go, and a demand nothing reaches. *)
          ignore (G.add_node g ~supply:1);
          ignore (G.add_node g ~supply:(-1))
        end;
        let pre = repair_state g in
        let ws = Mcmf.Incremental.create_workspace () in
        let phases = ref 0 in
        let stop () =
          incr phases;
          !phases > 1
        in
        let outcome =
          match force with
          | 0 -> Mcmf.Incremental.repair ~max_scan:0 ~scale:1 ~workspace:ws g
          | 1 -> Mcmf.Incremental.repair ~max_scan:3 ~scale:1 ~workspace:ws g
          | 2 -> Mcmf.Incremental.repair ~stop ~max_scan:max_int ~scale:1 ~workspace:ws g
          | _ -> Mcmf.Incremental.repair ~max_scan:max_int ~scale:1 ~workspace:ws g
        in
        (match outcome with
        | Mcmf.Incremental.Gave_up _ -> (
            match Mcmf.Incremental.rollback ws g with
            | () -> QCheck.Test.fail_report "a give-up left a live journal"
            | exception Invalid_argument _ -> ())
        | Mcmf.Incremental.Repaired _ -> Mcmf.Incremental.rollback ws g);
        (match (force, outcome) with
        | 3, Mcmf.Incremental.Repaired _ ->
            QCheck.Test.fail_report "repaired an unroutable unit"
        | _ -> ());
        repair_state g = pre
      end)

let test_repair_rollback_guards () =
  (* A journal only undoes its own pushes: rolling back a graph that
     changed since the repair, or twice, or a graph it never touched,
     must refuse rather than corrupt. *)
  let g = netgen_instance 5 in
  ignore (Mcmf.Relaxation.solve g);
  source_burst ~k:3 ~mseed:5 g;
  let ws = Mcmf.Incremental.create_workspace () in
  (match Mcmf.Incremental.repair ~max_scan:max_int ~scale:1 ~workspace:ws g with
  | Mcmf.Incremental.Repaired _ -> ()
  | Mcmf.Incremental.Gave_up r ->
      Alcotest.failf "expected a repair, got %s" (Mcmf.Incremental.reason_name r));
  Alcotest.check_raises "another graph"
    (Invalid_argument "Incremental.rollback: no live repair journal for this graph")
    (fun () -> Mcmf.Incremental.rollback ws (G.copy g));
  let a = ref (-1) in
  G.iter_arcs g (fun x -> if !a < 0 then a := x);
  G.set_cost g !a (G.cost g !a + 1);
  Alcotest.check_raises "graph changed"
    (Invalid_argument "Incremental.rollback: the graph changed after the repair")
    (fun () -> Mcmf.Incremental.rollback ws g);
  G.set_cost g !a (G.cost g !a - 1);
  (* The change counters still record the edit: the journal stays
     refused, which is the safe answer. *)
  Alcotest.check_raises "still refused after the edit is undone"
    (Invalid_argument "Incremental.rollback: the graph changed after the repair")
    (fun () -> Mcmf.Incremental.rollback ws g)

let test_race_repair_in_place () =
  (* A [Repair] round copies nothing: its result is the input graph
     itself, repaired in place, and adopting it skips the refine pass. *)
  let race = Mcmf.Race.create ~mode:Mcmf.Race.Race () in
  let r1 = Mcmf.Race.solve race (netgen_instance 7) in
  Alcotest.check outcome_t "round 1 optimal" S.Optimal r1.Mcmf.Race.stats.S.outcome;
  let g = r1.Mcmf.Race.graph in
  Mcmf.Race.prepare race g;
  source_burst ~k:4 ~mseed:7 g;
  let copies0 = counter_value "mcmf_race_graph_copies_total" in
  let r2 = Mcmf.Race.solve race g in
  checkb "winner is Repair" true (r2.Mcmf.Race.winner = Mcmf.Race.Repair);
  checkb "result aliases the input" true (r2.Mcmf.Race.graph == g);
  checki "no scratch copy taken" copies0 (counter_value "mcmf_race_graph_copies_total");
  checkb "repaired in place" true (Validate.is_optimal g && Validate.is_feasible g);
  (* The next quiet round on the adopted graph repairs again. *)
  Mcmf.Race.prepare race g;
  let r3 = Mcmf.Race.solve race g in
  checkb "adopted repair stays certified" true (r3.Mcmf.Race.winner = Mcmf.Race.Repair);
  checki "still no copy" copies0 (counter_value "mcmf_race_graph_copies_total")

(* {2 Dirty log} *)

(* A sparse change set on a graph whose log was just synced: cost
   changes, capacity growth and cuts, pushes along residual arcs, supply
   changes, arc and node removals, and new sources — each a handful, so
   the log stays below its size cap. *)
let sparse_burst ~mseed g =
  let rng = Random.State.make [| 0x6c6f67; mseed |] in
  let arcs = ref [] in
  G.iter_arcs g (fun a -> arcs := a :: !arcs);
  let arcs = Array.of_list !arcs in
  let pick () = arcs.(Random.State.int rng (Array.length arcs)) in
  for _ = 1 to 1 + Random.State.int rng 12 do
    let a = pick () in
    if G.arc_is_live g a then
      match Random.State.int rng 6 with
      | 0 -> G.set_cost g a (max 0 (G.cost g a + Random.State.int rng 21 - 10))
      | 1 -> G.set_capacity g a (G.capacity g a + 1 + Random.State.int rng 3)
      | 2 -> G.set_capacity g a (max 0 (G.capacity g a - 1))
      | 3 ->
          let r = if Random.State.bool rng then a else G.rev a in
          if G.rescap g r > 0 then G.push g r 1
      | 4 -> G.remove_arc g a
      | _ ->
          (* One more unit from the arc's tail to its head: balanced. *)
          let s = G.src g a and d = G.dst g a in
          G.set_supply g s (G.supply g s + 1);
          G.set_supply g d (G.supply g d - 1)
  done;
  let transit = ref [] in
  G.iter_nodes g (fun v -> if G.supply g v = 0 then transit := v :: !transit);
  (match !transit with
  | v :: _ when Random.State.bool rng -> G.remove_node g v
  | _ -> ());
  source_burst ~k:(Random.State.int rng 4) ~mseed g

let sorted_negative iter g =
  let acc = ref [] in
  iter g ~scale:1 (fun a rc -> acc := (a, rc) :: !acc);
  List.sort compare !acc

let excess_nodes iter g =
  let acc = ref [] in
  iter (fun v -> if G.node_is_live g v && G.excess g v <> 0 then acc := v :: !acc);
  List.sort_uniq compare !acc

let prop_dirty_log_matches_full_scans =
  (* From a certified optimum with a freshly synced log, after any sparse
     change set: the log-driven negative-arc scan finds exactly the arcs
     the whole-graph scan finds, the log-driven node sweep exactly the
     nodes with nonzero excess, and a repair reading the log lands on the
     SSP optimum without counting a full scan. *)
  QCheck.Test.make ~name:"dirty log = full negative-arc and excess scans" ~count:120
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, mseed) ->
      let g = netgen_instance seed in
      if (Mcmf.Relaxation.solve g).S.outcome <> S.Optimal then QCheck.assume_fail ()
      else begin
        G.sync_log g;
        sparse_burst ~mseed g;
        if not (G.log_bounds_duals g) then
          QCheck.Test.fail_report "a sparse change set dropped the log"
        else if
          sorted_negative G.iter_dirty_negative g <> sorted_negative G.iter_negative g
        then QCheck.Test.fail_report "log-driven negative arcs differ from the full scan"
        else if excess_nodes (G.iter_dirty_nodes g) g <> excess_nodes (G.iter_nodes g) g
        then QCheck.Test.fail_report "log-driven excess nodes differ from the full sweep"
        else begin
          let g_scratch = G.copy g in
          G.reset_flow g_scratch;
          let s_ref = Mcmf.Ssp.solve g_scratch in
          let full0 = counter_value "mcmf_incremental_full_scans_total" in
          let outcome = Mcmf.Incremental.repair ~max_scan:max_int ~scale:1 g in
          counter_value "mcmf_incremental_full_scans_total" = full0
          &&
          match outcome with
          | Mcmf.Incremental.Repaired _ ->
              s_ref.S.outcome = S.Optimal
              && G.total_cost g = G.total_cost g_scratch
              && Validate.is_feasible g && Validate.is_optimal g
          | Mcmf.Incremental.Gave_up Mcmf.Incremental.No_path ->
              s_ref.S.outcome = S.Infeasible
          | Mcmf.Incremental.Gave_up r ->
              QCheck.Test.fail_report ("repair gave up: " ^ Mcmf.Incremental.reason_name r)
        end
      end)

let test_dirty_log_unusable_forces_full_pass () =
  (* The repair reads the log only while it bounds the negative arcs: a
     copy, a [copy_into] destination and a price refine (which rewrites
     every potential) each make the next repair scan the whole graph, and
     the next [sync_log] makes it read the log again. *)
  let full () = counter_value "mcmf_incremental_full_scans_total" in
  (* The repair agrees with a scratch SSP solve of the same instance. *)
  let agrees g =
    let g_scratch = G.copy g in
    G.reset_flow g_scratch;
    let s_ref = Mcmf.Ssp.solve g_scratch in
    match Mcmf.Incremental.repair ~max_scan:max_int ~scale:1 g with
    | Mcmf.Incremental.Repaired _ ->
        s_ref.S.outcome = S.Optimal && G.total_cost g = G.total_cost g_scratch
    | Mcmf.Incremental.Gave_up Mcmf.Incremental.No_path -> s_ref.S.outcome = S.Infeasible
    | Mcmf.Incremental.Gave_up _ -> false
  in
  let certified () =
    let g = netgen_instance 7 in
    checkb "instance solves" true ((Mcmf.Relaxation.solve g).S.outcome = S.Optimal);
    G.sync_log g;
    g
  in
  let step name g ~mseed ~full_pass =
    sparse_burst ~mseed g;
    let f0 = full () in
    checkb (name ^ ": repair agrees with SSP") true (agrees g);
    checki (name ^ ": full scans") (if full_pass then f0 + 1 else f0) (full ())
  in
  let g = certified () in
  step "synced log" g ~mseed:1 ~full_pass:false;
  let c = G.copy g in
  checkb "copy drops the log" false (G.log_complete c);
  step "copy" c ~mseed:2 ~full_pass:true;
  let d = G.create () in
  G.copy_into d g;
  checkb "copy_into drops the log" false (G.log_complete d);
  step "copy_into" d ~mseed:3 ~full_pass:true;
  ignore (Mcmf.Price_refine.run ~scale:1 g);
  checkb "price refine keeps the log" true (G.log_complete g);
  checkb "price refine unbounds the duals" false (G.log_bounds_duals g);
  step "price refine" g ~mseed:4 ~full_pass:true;
  G.sync_log g;
  step "re-synced" g ~mseed:5 ~full_pass:false

(* After a repaired sparse change set, a second sparse set: logged
   mutations (cost changes, capacity growth and cuts, pushes, supply
   changes) and potential moves at nodes the repair already moved: back
   to their entry value, a few units off it or off their current one, or
   just far enough to break one residual arc at them. Those moves are
   the only unlogged changes the log-driven certificate must cover. *)
let break_burst ~bseed ~entry g =
  let rng = Random.State.make [| 0x62726b; bseed |] in
  let arcs = ref [] in
  G.iter_arcs g (fun a -> arcs := a :: !arcs);
  let arcs = Array.of_list !arcs in
  let moved = ref [] in
  Array.iteri
    (fun v p -> if G.node_is_live g v && G.potential g v <> p then moved := v :: !moved)
    entry;
  let moved = Array.of_list !moved in
  for _ = 1 to 1 + Random.State.int rng 3 do
    let a = arcs.(Random.State.int rng (Array.length arcs)) in
    match Random.State.int rng 8 with
    | 0 | 1 -> G.set_cost g a (max 0 (G.cost g a + Random.State.int rng 21 - 10))
    | 2 -> G.set_capacity g a (G.capacity g a + 1)
    | 3 -> G.set_capacity g a (max 0 (G.capacity g a - 1))
    | 4 ->
        let r = if Random.State.bool rng then a else G.rev a in
        if Random.State.int rng 4 = 0 && G.rescap g r > 0 then G.push g r 1
    | 5 when Random.State.int rng 4 = 0 ->
        let v = G.src g a in
        G.set_supply g v (G.supply g v + 1)
    | 6 when Array.length moved > 0 ->
        (* Break one residual arc at a moved node by exactly one unit,
           into it or out of it, preferring an unlogged arc whose other
           end did not move: only the check around [v] can see that one. *)
        let v = moved.(Random.State.int rng (Array.length moved)) in
        let logged = Hashtbl.create 16 in
        G.iter_dirty_pairs g (fun k -> Hashtbl.replace logged k ());
        let hidden b =
          let w = if G.src g b = v then G.dst g b else G.src g b in
          (not (Hashtbl.mem logged (b lsr 1))) && G.potential g w = entry.(w)
        in
        let residual = ref [] in
        G.iter_out g v (fun b ->
            if G.rescap g b > 0 then residual := b :: !residual;
            if G.rescap g (G.rev b) > 0 then residual := G.rev b :: !residual);
        (match List.filter hidden !residual with [] -> () | l -> residual := l);
        (match !residual with
        | [] -> ()
        | l ->
            let r = List.nth l (Random.State.int rng (List.length l)) in
            let rc = G.reduced_cost g r in
            let p = G.potential g v in
            G.set_potential_journaled g v (if G.src g r = v then p + rc + 1 else p - rc - 1))
    | _ when Array.length moved > 0 ->
        let v = moved.(Random.State.int rng (Array.length moved)) in
        let near p = p + ((if Random.State.bool rng then 1 else -1) * (1 + Random.State.int rng 3)) in
        let p =
          match Random.State.int rng 3 with
          | 0 -> entry.(v)
          | 1 -> near entry.(v)
          | _ -> near (G.potential g v)
        in
        G.set_potential_journaled g v p
    | _ -> ()
  done

let certificate_verdicts = [| 0; 0 |] (* passed, failed *)

let prop_log_certificate_matches_whole =
  (* From a certified optimum with a freshly synced log: a sparse change
     set, a repair of it, then [break_burst]. The repair's log-driven
     certificate must give the whole-graph verdict, on the repaired
     graph and after the second set. *)
  QCheck.Test.make ~name:"log-driven certificate = whole-graph certificate" ~count:150
    QCheck.(triple (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (seed, mseed, bseed) ->
      let g = netgen_instance seed in
      if (Mcmf.Relaxation.solve g).S.outcome <> S.Optimal then QCheck.assume_fail ()
      else begin
        G.sync_log g;
        sparse_burst ~mseed g;
        let entry = Array.init (G.node_bound g) (G.potential g) in
        let ws = Mcmf.Incremental.create_workspace () in
        match Mcmf.Incremental.repair ~max_scan:max_int ~scale:1 ~workspace:ws g with
        | Mcmf.Incremental.Gave_up _ -> QCheck.assume_fail ()
        | Mcmf.Incremental.Repaired _ ->
            let verdicts () =
              ( Mcmf.Incremental.log_certified ws ~scale:1 g,
                Mcmf.Incremental.whole_certified ~scale:1 g )
            in
            if verdicts () <> (true, true) then
              QCheck.Test.fail_report "a repaired graph does not certify both ways"
            else begin
              break_burst ~bseed ~entry g;
              if not (G.log_bounds_duals g) then QCheck.assume_fail ()
              else begin
                let by_log, whole = verdicts () in
                let i = if whole then 0 else 1 in
                certificate_verdicts.(i) <- certificate_verdicts.(i) + 1;
                by_log = whole
              end
            end
      end)

let test_log_certificate_matches_whole () =
  QCheck.Test.check_exn prop_log_certificate_matches_whole;
  (* The property has teeth only if the second change sets break the
     optimum in some cases and leave it in others. *)
  checkb "some change sets keep the optimum" true (certificate_verdicts.(0) > 0);
  checkb "some change sets break it" true (certificate_verdicts.(1) > 0)

let test_unjournaled_potential_forces_whole_certificate () =
  (* An unjournaled potential write can break an arc the log never saw.
     The log-driven certificate cannot see it; the repair must notice
     that the log no longer bounds the duals, scan and certify the whole
     graph, count that once, and still land on the SSP optimum. *)
  let g = netgen_instance 7 in
  checkb "instance solves" true ((Mcmf.Relaxation.solve g).S.outcome = S.Optimal);
  G.sync_log g;
  let a = ref (-1) in
  G.iter_arcs g (fun x -> if !a < 0 && G.rescap g x > 0 then a := x);
  let v = G.src g !a in
  G.set_potential g v (G.potential g v + G.reduced_cost g !a + 1);
  checkb "the log no longer bounds the duals" false (G.log_bounds_duals g);
  let ws = Mcmf.Incremental.create_workspace () in
  checkb "log-driven certificate is blind to it" true
    (Mcmf.Incremental.log_certified ws ~scale:1 g);
  checkb "whole-graph certificate sees it" false (Mcmf.Incremental.whole_certified ~scale:1 g);
  let g_scratch = G.copy g in
  G.reset_flow g_scratch;
  checkb "reference solves" true ((Mcmf.Ssp.solve g_scratch).S.outcome = S.Optimal);
  let full0 = counter_value "mcmf_incremental_full_scans_total" in
  (match Mcmf.Incremental.repair ~max_scan:max_int ~scale:1 ~workspace:ws g with
  | Mcmf.Incremental.Repaired _ -> ()
  | Mcmf.Incremental.Gave_up r ->
      Alcotest.failf "expected a repair, got %s" (Mcmf.Incremental.reason_name r));
  checki "counted once" (full0 + 1) (counter_value "mcmf_incremental_full_scans_total");
  checki "SSP cost" (G.total_cost g_scratch) (G.total_cost g);
  checkb "optimal" true (Validate.is_feasible g && Validate.is_optimal g)

let test_audit_catches_a_missed_change () =
  (* A potential write that bypasses both the log and the repair's
     journal breaks the premise the log-driven certificate rests on. It
     passes the log-driven check, so only the whole-graph audit of every
     64th log-certified repair can catch it: that repair must give up and
     count the disagreement. *)
  let g = netgen_instance 7 in
  checkb "instance solves" true ((Mcmf.Relaxation.solve g).S.outcome = S.Optimal);
  G.sync_log g;
  let ws = Mcmf.Incremental.create_workspace () in
  let repair () = Mcmf.Incremental.repair ~scale:1 ~workspace:ws g in
  for i = 1 to 63 do
    match repair () with
    | Mcmf.Incremental.Repaired _ -> ()
    | Mcmf.Incremental.Gave_up r ->
        Alcotest.failf "quiet repair %d gave up: %s" i (Mcmf.Incremental.reason_name r)
  done;
  let a = ref (-1) in
  G.iter_arcs g (fun x -> if !a < 0 && G.rescap g x > 0 then a := x);
  let v = G.src g !a in
  G.set_potential_journaled g v (G.potential g v + G.reduced_cost g !a + 1);
  let fails0 = counter_value "mcmf_incremental_audit_failures_total" in
  (match repair () with
  | Mcmf.Incremental.Gave_up Mcmf.Incremental.Not_certified -> ()
  | Mcmf.Incremental.Gave_up r ->
      Alcotest.failf "expected not_certified, got %s" (Mcmf.Incremental.reason_name r)
  | Mcmf.Incremental.Repaired _ -> Alcotest.fail "the 64th repair passed unaudited");
  checki "audit failure counted" (fails0 + 1)
    (counter_value "mcmf_incremental_audit_failures_total")

let test_repair_stops_before_the_plateau () =
  (* One task arrives at a cluster of 200 free machines. Each machine is
     one aggregator arc of the same cost from the task and a
     zero-reduced-cost arc on to the sink, so all 200 tie at one label.
     The first machine settled reaches the sink, whose deficit absorbs
     the unit: the search must stop there, not settle the whole tie. *)
  let machines = 200 in
  let g = G.create () in
  let sink = G.add_node g ~supply:0 in
  let agg = G.add_node g ~supply:0 in
  for _ = 1 to machines do
    let m = G.add_node g ~supply:0 in
    ignore (G.add_arc g ~src:agg ~dst:m ~cost:1 ~cap:1);
    ignore (G.add_arc g ~src:m ~dst:sink ~cost:0 ~cap:1)
  done;
  (* No flow at zero potentials is optimal: every cost is nonnegative. *)
  G.sync_log g;
  let task = G.add_node g ~supply:1 in
  ignore (G.add_arc g ~src:task ~dst:agg ~cost:0 ~cap:1);
  G.set_supply g sink (-1);
  let g_scratch = G.copy g in
  G.reset_flow g_scratch;
  checkb "reference solves" true ((Mcmf.Ssp.solve g_scratch).S.outcome = S.Optimal);
  match Mcmf.Incremental.repair ~scale:1 g with
  | Mcmf.Incremental.Gave_up r ->
      Alcotest.failf "expected a repair, got %s" (Mcmf.Incremental.reason_name r)
  | Mcmf.Incremental.Repaired st ->
      checkb
        (Printf.sprintf "settled %d nodes, far fewer than %d machines" st.S.relabels machines)
        true
        (st.S.relabels < machines / 10);
      checki "SSP cost" (G.total_cost g_scratch) (G.total_cost g);
      checkb "optimal" true (Validate.is_feasible g && Validate.is_optimal g)

let prop_batched_repair_matches_ssp =
  (* Batched primal-dual repair must land on the SSP optimum when a round
     brings hundreds of unit sources at once, on top of the cost changes,
     capacity growth {e and cuts} of [repair_burst], on all three NETGEN
     families. Unroutable bursts must give up [No_path] exactly when SSP
     finds the instance infeasible. *)
  QCheck.Test.make ~name:"batched repair = SSP optimum under 200+ source bursts"
    ~count:40
    QCheck.(triple (int_bound 1_000_000) (int_bound 1_000_000) (int_range 200 320))
    (fun (seed, mseed, k) ->
      let g = netgen_instance seed in
      if (Mcmf.Relaxation.solve g).S.outcome <> S.Optimal then QCheck.assume_fail ()
      else begin
        repair_burst ~mseed g;
        source_burst ~k ~mseed g;
        let g_scratch = G.copy g in
        G.reset_flow g_scratch;
        let s_ref = Mcmf.Ssp.solve g_scratch in
        match Mcmf.Incremental.repair ~max_scan:max_int ~scale:1 g with
        | Mcmf.Incremental.Repaired st ->
            s_ref.S.outcome = S.Optimal
            && st.S.outcome = S.Optimal
            && G.total_cost g = G.total_cost g_scratch
            && Validate.is_feasible g && Validate.is_optimal g
        | Mcmf.Incremental.Gave_up Mcmf.Incremental.No_path ->
            s_ref.S.outcome = S.Infeasible
        | Mcmf.Incremental.Gave_up r ->
            QCheck.Test.fail_report ("repair gave up: " ^ Mcmf.Incremental.reason_name r)
      end)

let test_repair_work_cap () =
  (* A hopeless delta: [k] new units behind one hub, each of which must
     take a differently priced one-unit route to the single deficit. Every
     phase can route one unit only, and every phase's search rescans the
     hub's [k] routes, so the searches scan ~k² arcs against a graph of
     ~3k — past the work cap of 32× the arc count long before the last
     unit. The kernel must give up [Oversized]; without the cap the same
     delta repairs, so the cap, not the instance, stopped it. *)
  let k = 200 in
  let instance () =
    let g = G.create () in
    let hub = G.add_node g ~supply:0 in
    let sink = G.add_node g ~supply:(-k) in
    for j = 1 to k do
      let s = G.add_node g ~supply:1 in
      ignore (G.add_arc g ~src:s ~dst:hub ~cost:0 ~cap:1);
      let mid = G.add_node g ~supply:0 in
      ignore (G.add_arc g ~src:hub ~dst:mid ~cost:j ~cap:1);
      ignore (G.add_arc g ~src:mid ~dst:sink ~cost:0 ~cap:1)
    done;
    g
  in
  let oversized0 = counter_value "mcmf_incremental_giveup_oversized_total" in
  (match Mcmf.Incremental.repair ~scale:1 (instance ()) with
  | Mcmf.Incremental.Gave_up Mcmf.Incremental.Oversized -> ()
  | Mcmf.Incremental.Gave_up r ->
      Alcotest.failf "expected Oversized, got %s" (Mcmf.Incremental.reason_name r)
  | Mcmf.Incremental.Repaired _ -> Alcotest.fail "a delta past the work cap must give up");
  checkb "counted as an oversized give-up" true
    (counter_value "mcmf_incremental_giveup_oversized_total" > oversized0);
  let g = instance () in
  match Mcmf.Incremental.repair ~max_scan:max_int ~scale:1 g with
  | Mcmf.Incremental.Repaired _ ->
      checkb "uncapped repair optimal" true (Validate.is_optimal g)
  | Mcmf.Incremental.Gave_up r ->
      Alcotest.failf "uncapped repair gave up: %s" (Mcmf.Incremental.reason_name r)

let test_repair_no_change_round () =
  (* Zero changes: repair finds nothing to do and certifies immediately. *)
  let g = netgen_instance 5 in
  ignore (Mcmf.Relaxation.solve g);
  let cost = G.total_cost g in
  match Mcmf.Incremental.repair ~scale:1 g with
  | Mcmf.Incremental.Repaired st ->
      Alcotest.check outcome_t "optimal" S.Optimal st.S.outcome;
      checki "cost unchanged" cost (G.total_cost g)
  | Mcmf.Incremental.Gave_up r ->
      Alcotest.failf "no-change repair gave up: %s" (Mcmf.Incremental.reason_name r)

(* {1 The hedged race} *)

(* Stops that tell the two racers apart: relaxation runs in the caller's
   domain, the cost-scaling hedge in a second one. *)
let stop_hedge () =
  let main = Domain.self () in
  fun () -> Domain.self () <> main

let test_race_single_solver_never_repairs () =
  (* Only [Race] repairs: on the graph [prepare] certified, mutated, a
     single-solver mode (and the hedged race without repair) runs its own
     solver, and the repair counter does not move. *)
  List.iter
    (fun mode ->
      let name = Mcmf.Race.mode_name mode in
      let race = Mcmf.Race.create ~mode () in
      let g = (Mcmf.Race.solve race (diamond ())).Mcmf.Race.graph in
      Mcmf.Race.prepare race g;
      let some_arc = ref (-1) in
      G.iter_arcs g (fun a -> if !some_arc < 0 then some_arc := a);
      G.set_cost g !some_arc (G.cost g !some_arc + 2);
      let repairs0 = counter_value "mcmf_race_wins_repair_total" in
      let r = Mcmf.Race.solve race g in
      Alcotest.check outcome_t (name ^ " optimal") S.Optimal r.Mcmf.Race.stats.S.outcome;
      checkb (name ^ " not repaired") true (r.Mcmf.Race.winner <> Mcmf.Race.Repair);
      if mode = Mcmf.Race.Relaxation_only then
        checkb "relaxation won" true (r.Mcmf.Race.winner = Mcmf.Race.Relaxation);
      checki (name ^ " no repair counted") repairs0
        (counter_value "mcmf_race_wins_repair_total");
      checkb (name ^ " result optimal") true (Validate.is_optimal r.Mcmf.Race.graph))
    (List.filter (fun m -> m <> Mcmf.Race.Race) (List.map snd Mcmf.Race.modes))

let stop_relaxation () =
  let main = Domain.self () in
  fun () -> Domain.self () = main

let test_race_fresh_starts_both () =
  (* No history yet: both solvers start at once, and both report.
     [Race_only]: [prepare] certifies the flowless graph's zero potentials,
     so [Race]'s repair path would solve it before any racer starts. *)
  let hedges0 = counter_value "mcmf_race_hedges_total" in
  let race = Mcmf.Race.create ~mode:Mcmf.Race.Race_only () in
  let g = diamond () in
  Mcmf.Race.prepare race g;
  let r = Mcmf.Race.solve race g in
  checki "cost" diamond_optimal_cost (G.total_cost r.Mcmf.Race.graph);
  checkb "both stats present" true
    (r.Mcmf.Race.relaxation_stats <> None && r.Mcmf.Race.cost_scaling_stats <> None);
  checki "hedge started" (hedges0 + 1) (counter_value "mcmf_race_hedges_total")

let test_race_within_deadline_runs_alone () =
  (* A 2,000-task round sets the history (its hedge is stopped at once,
     so relaxation wins); a tiny round then finishes far inside 2× that
     runtime, with one copy and no hedge. *)
  let race = Mcmf.Race.create ~mode:Mcmf.Race.Race_only () in
  let big = Flowgraph.Netgen.scheduling ~tasks:2000 ~machines:100 ~seed:1 () in
  let r0 = Mcmf.Race.solve ~stop:(stop_hedge ()) race big.Flowgraph.Netgen.graph in
  checkb "priming round won by relaxation" true (r0.Mcmf.Race.winner = Mcmf.Race.Relaxation);
  let wo0 = counter_value "mcmf_race_winner_only_total" in
  let hedges0 = counter_value "mcmf_race_hedges_total" in
  let copies0 = counter_value "mcmf_race_graph_copies_total" in
  let r = Mcmf.Race.solve race (diamond ()) in
  Alcotest.check outcome_t "optimal" S.Optimal r.Mcmf.Race.stats.S.outcome;
  checki "cost" diamond_optimal_cost (G.total_cost r.Mcmf.Race.graph);
  checkb "relaxation won" true (r.Mcmf.Race.winner = Mcmf.Race.Relaxation);
  checkb "relaxation stats" true (r.Mcmf.Race.relaxation_stats <> None);
  checkb "no cost-scaling stats" true (r.Mcmf.Race.cost_scaling_stats = None);
  checki "counted winner-only" (wo0 + 1) (counter_value "mcmf_race_winner_only_total");
  checki "no hedge" hedges0 (counter_value "mcmf_race_hedges_total");
  checki "one copy" (copies0 + 1) (counter_value "mcmf_race_graph_copies_total")

let test_race_overrun_starts_hedge () =
  (* History from a tiny instance makes the deadline microseconds; a much
     larger instance overruns it, so the hedge starts, and whichever
     solver wins, the result is feasible and reduced-cost optimal. *)
  let race = Mcmf.Race.create ~mode:Mcmf.Race.Race_only () in
  let r0 = Mcmf.Race.solve ~stop:(stop_hedge ()) race (diamond ()) in
  checkb "priming round won by relaxation" true (r0.Mcmf.Race.winner = Mcmf.Race.Relaxation);
  let hedges0 = counter_value "mcmf_race_hedges_total" in
  let big = Flowgraph.Netgen.scheduling ~tasks:3000 ~machines:200 ~seed:2 () in
  let r = Mcmf.Race.solve race big.Flowgraph.Netgen.graph in
  checki "hedge started" (hedges0 + 1) (counter_value "mcmf_race_hedges_total");
  checkb "both stats present" true
    (r.Mcmf.Race.relaxation_stats <> None && r.Mcmf.Race.cost_scaling_stats <> None);
  Alcotest.check outcome_t "optimal" S.Optimal r.Mcmf.Race.stats.S.outcome;
  let g = r.Mcmf.Race.graph in
  checkb "feasible" true (Validate.is_feasible g);
  checkb "reduced-cost optimal" true
    (Mcmf.Price_refine.run ~scale:1 g && Validate.is_reduced_cost_optimal g)

let test_race_after_cost_scaling_win_races () =
  (* Once cost scaling wins a raced round, the next round starts both
     solvers at once although relaxation has a history. *)
  let race = Mcmf.Race.create ~mode:Mcmf.Race.Race_only () in
  let big = Flowgraph.Netgen.scheduling ~tasks:400 ~machines:40 ~seed:3 () in
  let r0 = Mcmf.Race.solve ~stop:(stop_hedge ()) race big.Flowgraph.Netgen.graph in
  checkb "history from a relaxation win" true (r0.Mcmf.Race.winner = Mcmf.Race.Relaxation);
  (* A scratch retry hedges at once; stopping relaxation hands it to
     cost scaling. *)
  let r1 = Mcmf.Race.solve ~scratch:true ~stop:(stop_relaxation ()) race (diamond ()) in
  checkb "cost scaling won" true (r1.Mcmf.Race.winner = Mcmf.Race.Cost_scaling);
  Alcotest.check outcome_t "optimal" S.Optimal r1.Mcmf.Race.stats.S.outcome;
  let hedges0 = counter_value "mcmf_race_hedges_total" in
  let r2 = Mcmf.Race.solve race (diamond ()) in
  checki "next round hedged from the start" (hedges0 + 1)
    (counter_value "mcmf_race_hedges_total");
  checkb "both stats present" true
    (r2.Mcmf.Race.relaxation_stats <> None && r2.Mcmf.Race.cost_scaling_stats <> None);
  checki "cost" diamond_optimal_cost (G.total_cost r2.Mcmf.Race.graph)

(* {1 Degraded outcomes: infeasible and stopped races} *)

let all_race_modes = List.map snd Mcmf.Race.modes

let test_race_two_solver_stats_always_populated () =
  (* Whenever both racers actually ran (a fresh race hedges at once), both
     stats fields must be [Some] — including rounds where the loser was
     cancelled or the whole race was deadline-stopped — so winner/loser
     margins stay observable. The
     single-solver modes conversely never fabricate stats for a solver
     that did not run. *)
  let check_two name (r : Mcmf.Race.result) =
    checkb (name ^ " relaxation stats present") true (r.Mcmf.Race.relaxation_stats <> None);
    checkb (name ^ " cost-scaling stats present") true
      (r.Mcmf.Race.cost_scaling_stats <> None);
    (match (r.Mcmf.Race.relaxation_stats, r.Mcmf.Race.cost_scaling_stats) with
    | Some rx, Some cs ->
        checkb (name ^ " rx runtime non-negative") true (rx.S.runtime >= 0.);
        checkb (name ^ " cs runtime non-negative") true (cs.S.runtime >= 0.)
    | _ -> ())
  in
  List.iter
    (fun mode ->
      let name = Mcmf.Race.mode_name mode in
      let race = Mcmf.Race.create ~mode () in
      check_two (name ^ " clean") (Mcmf.Race.solve race (random_instance 11));
      (* A fresh orchestrator per scenario: the stopped round must not
         inherit warm scratch state from the clean one. *)
      let race = Mcmf.Race.create ~mode () in
      check_two
        (name ^ " stopped")
        (Mcmf.Race.solve ~stop:(fun () -> true) race (random_instance 12));
      let race = Mcmf.Race.create ~mode () in
      check_two
        (name ^ " zero deadline")
        (Mcmf.Race.solve ~stop:(Mcmf.Solver_intf.deadline_stop 0.) race
           (random_instance 13)))
    Mcmf.Race.[ Race; Race_only ];
  List.iter
    (fun (mode, rx_expected, cs_expected) ->
      let name = Mcmf.Race.mode_name mode in
      let race = Mcmf.Race.create ~mode () in
      let r = Mcmf.Race.solve race (random_instance 14) in
      checkb (name ^ " rx stats") rx_expected (r.Mcmf.Race.relaxation_stats <> None);
      checkb (name ^ " cs stats") cs_expected (r.Mcmf.Race.cost_scaling_stats <> None))
    Mcmf.Race.
      [
        (Relaxation_only, true, false);
        (Incremental_cost_scaling_only, false, true);
        (Cost_scaling_scratch_only, false, true);
      ]

let test_race_infeasible_returns_untouched_input () =
  (* An unroutable instance must come back as a result (not an exception),
     with [graph] being the caller's input, flow-free: the warm start
     survives the bad round and recovers once the instance is repaired. *)
  List.iter
    (fun mode ->
      let name = Mcmf.Race.mode_name mode in
      let race = Mcmf.Race.create ~mode () in
      let g = G.create () in
      let s = G.add_node g ~supply:5 in
      let t = G.add_node g ~supply:(-5) in
      let a = G.add_arc g ~src:s ~dst:t ~cost:1 ~cap:2 in
      let r = Mcmf.Race.solve race g in
      Alcotest.check outcome_t (name ^ " infeasible") S.Infeasible
        r.Mcmf.Race.stats.S.outcome;
      checkb (name ^ " returns the input graph") true (r.Mcmf.Race.graph == g);
      checki (name ^ " input flow untouched") 0 (G.flow g a);
      checkb (name ^ " no partial on infeasible") true (r.Mcmf.Race.partial = None);
      G.set_capacity g a 5;
      let r2 = Mcmf.Race.solve race g in
      Alcotest.check outcome_t (name ^ " optimal after repair") S.Optimal
        r2.Mcmf.Race.stats.S.outcome;
      checki (name ^ " cost after repair") 5 (G.total_cost r2.Mcmf.Race.graph))
    all_race_modes

let test_race_stopped_preserves_input () =
  List.iter
    (fun mode ->
      let name = Mcmf.Race.mode_name mode in
      let race = Mcmf.Race.create ~mode () in
      let g = random_instance 7 in
      let flows g' =
        let acc = ref [] in
        G.iter_arcs g' (fun a -> acc := G.flow g' a :: !acc);
        !acc
      in
      let before = flows g in
      let r = Mcmf.Race.solve ~stop:(fun () -> true) race g in
      match r.Mcmf.Race.stats.S.outcome with
      | S.Stopped ->
          checkb (name ^ " input graph returned") true (r.Mcmf.Race.graph == g);
          checkb (name ^ " partial pseudoflow surfaced") true
            (r.Mcmf.Race.partial <> None);
          Alcotest.(check (list int)) (name ^ " input flow untouched") before (flows g)
      | S.Optimal -> () (* beat the first stop poll: also a legal outcome *)
      | S.Infeasible -> Alcotest.failf "%s: feasible instance reported infeasible" name)
    all_race_modes

let test_race_scratch_ignores_stale_flow () =
  (* A half-mutated pseudoflow on the input (as a stopped round leaves
     behind) must not leak into a ~scratch solve, nor be clobbered by it. *)
  List.iter
    (fun mode ->
      let name = Mcmf.Race.mode_name mode in
      let race = Mcmf.Race.create ~mode () in
      let g = diamond () in
      let dirty = ref (-1) in
      G.iter_arcs g (fun a -> if G.cost g a = 5 then dirty := a);
      G.push g !dirty 1;
      let r = Mcmf.Race.solve ~scratch:true race g in
      Alcotest.check outcome_t (name ^ " optimal") S.Optimal r.Mcmf.Race.stats.S.outcome;
      checki (name ^ " cost") diamond_optimal_cost (G.total_cost r.Mcmf.Race.graph);
      checki (name ^ " stale input flow kept") 1 (G.flow g !dirty))
    all_race_modes

let prop_race_stop_never_corrupts =
  (* Cancel the solve after [k] polls, at whatever point that lands: the
     input stays coherent, so re-solving without a stop reaches the true
     optimum. *)
  QCheck.Test.make ~name:"stopped race leaves a re-solvable graph" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_bound 200))
    (fun (seed, k) ->
      let race = Mcmf.Race.create ~mode:Mcmf.Race.Race () in
      let g = random_instance seed in
      let polls = ref 0 in
      let stop () =
        incr polls;
        !polls > k
      in
      let r = Mcmf.Race.solve ~stop race g in
      match r.Mcmf.Race.stats.S.outcome with
      | S.Optimal -> Validate.is_optimal r.Mcmf.Race.graph
      | S.Stopped ->
          let r2 = Mcmf.Race.solve race g in
          r2.Mcmf.Race.stats.S.outcome = S.Optimal
          && Validate.is_optimal r2.Mcmf.Race.graph
      | S.Infeasible -> false)

let test_ensure_scale_shrinks_after_contraction () =
  (* Race orchestrators share one cost-scaling state across rounds; after
     a big instance the stored scale must come back down for a small one
     instead of inflating its ε ladder forever. *)
  let st = Mcmf.Cost_scaling.create ~alpha:4 () in
  let big = (Flowgraph.Netgen.scheduling ~tasks:60 ~machines:10 ~seed:1 ()).Flowgraph.Netgen.graph in
  let sb = Mcmf.Cost_scaling.solve st big in
  Alcotest.check outcome_t "big optimal" S.Optimal sb.S.outcome;
  let big_scale = Mcmf.Cost_scaling.ensure_scale st big in
  let g = diamond () in
  let shrunk = Mcmf.Cost_scaling.ensure_scale st g in
  checkb "scale shrank" true (shrunk < big_scale);
  checki "tracks the live node count" (G.node_count g + 2) shrunk;
  let s = Mcmf.Cost_scaling.solve st g in
  Alcotest.check outcome_t "small optimal at shrunk scale" S.Optimal s.S.outcome;
  checki "small cost" diamond_optimal_cost (G.total_cost g)

let test_ensure_scale_shrink_keeps_incremental_lockstep () =
  (* Warm potentials written before the contraction are rescaled, not
     discarded: an incremental re-solve after the shrink must still agree
     with a from-scratch solve. *)
  let st = Mcmf.Cost_scaling.create ~alpha:4 () in
  let g = diamond () in
  let s1 = Mcmf.Cost_scaling.solve st g in
  Alcotest.check outcome_t "first optimal" S.Optimal s1.S.outcome;
  (* The shared state visits a much larger graph, growing the scale... *)
  let big = (Flowgraph.Netgen.scheduling ~tasks:60 ~machines:10 ~seed:2 ()).Flowgraph.Netgen.graph in
  ignore (Mcmf.Cost_scaling.solve st big);
  (* ...then returns to the small warm graph with a changed cost. *)
  let changed = ref (-1) in
  G.iter_arcs g (fun a -> if G.cost g a = 5 then changed := a);
  G.set_cost g !changed 2;
  let g_scratch = G.copy g in
  G.reset_flow g_scratch;
  let s2 = Mcmf.Cost_scaling.solve ~incremental:true st g in
  let s3 = Mcmf.Cost_scaling.solve (Mcmf.Cost_scaling.create ()) g_scratch in
  Alcotest.check outcome_t "incremental optimal" S.Optimal s2.S.outcome;
  Alcotest.check outcome_t "scratch optimal" S.Optimal s3.S.outcome;
  checki "same cost as scratch" (G.total_cost g_scratch) (G.total_cost g);
  checkb "valid optimum" true (Validate.is_optimal g)

(* {1 Early termination (deadline) behaviour} *)

let test_deadline_stops () =
  (* A large random instance with an immediate deadline must stop quickly
     and report Stopped, leaving a usable intermediate state. *)
  let g = random_instance 7 in
  let st = Mcmf.Cost_scaling.solve ~stop:(fun () -> true) (Mcmf.Cost_scaling.create ()) g in
  Alcotest.check outcome_t "stopped" S.Stopped st.S.outcome

let test_stop_callback_polled () =
  let calls = ref 0 in
  let stop () =
    incr calls;
    false
  in
  let g = diamond () in
  ignore (Mcmf.Relaxation.solve ~stop g);
  checkb "not required to poll on tiny instances" true (!calls >= 0)

(* {1 Heap} *)

let test_heap_ordering () =
  let h = Mcmf.Heap.create ~capacity:8 in
  List.iter (fun (e, p) -> Mcmf.Heap.insert h e p) [ (0, 5); (1, 3); (2, 9); (3, 1) ];
  checki "size" 4 (Mcmf.Heap.size h);
  let order = List.init 4 (fun _ -> Mcmf.Heap.pop_min h) in
  Alcotest.check Alcotest.(list int) "pop order" [ 3; 1; 0; 2 ] order

let test_heap_decrease_key () =
  let h = Mcmf.Heap.create ~capacity:4 in
  Mcmf.Heap.insert h 0 10;
  Mcmf.Heap.insert h 1 5;
  Mcmf.Heap.insert h 0 1;
  (* decrease *)
  let p = Mcmf.Heap.min_prio h in
  let e = Mcmf.Heap.pop_min h in
  checki "element" 0 e;
  checki "priority" 1 p;
  Mcmf.Heap.insert h 1 99;
  (* increase ignored *)
  let p = Mcmf.Heap.min_prio h in
  ignore (Mcmf.Heap.pop_min h);
  checki "kept lower priority" 5 p

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing priority order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 50) (int_bound 1000))
    (fun prios ->
      let h = Mcmf.Heap.create ~capacity:64 in
      List.iteri (fun i p -> Mcmf.Heap.insert h i p) prios;
      let rec drain last =
        if Mcmf.Heap.is_empty h then true
        else begin
          let p = Mcmf.Heap.min_prio h in
          ignore (Mcmf.Heap.pop_min h);
          p >= last && drain p
        end
      in
      drain min_int)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "mcmf"
    [
      ( "hand-instances",
        [
          Alcotest.test_case "diamond, all algorithms" `Quick test_diamond_all_algorithms;
          Alcotest.test_case "paper figure 5, all algorithms" `Quick test_figure5_all_algorithms;
          Alcotest.test_case "figure 5 placements" `Quick test_figure5_placements;
          Alcotest.test_case "infeasibility detected" `Quick test_infeasible_detected;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "zero-supply graph" `Quick test_zero_supply_graph;
          Alcotest.test_case "negative arc costs" `Quick test_negative_arc_costs;
          Alcotest.test_case "negative cycle in input" `Quick test_negative_cycle_in_input;
        ] );
      ( "cross-check",
        qcheck
          [
            prop_all_algorithms_agree;
            prop_incremental_cost_scaling_matches;
            prop_incremental_relaxation_matches;
            prop_price_refine_restores_slackness;
            prop_price_refine_refuses_nonoptimal;
          ] );
      ( "golden",
        [ Alcotest.test_case "netgen-8 instance" `Quick test_golden_dimacs_instance ] );
      ( "edge-cases",
        Alcotest.test_case "parallel arcs" `Quick test_parallel_arcs
        :: Alcotest.test_case "negative self loop" `Quick test_negative_self_loop
        :: Alcotest.test_case "zero-capacity arcs" `Quick test_zero_capacity_arcs_ignored
        :: Alcotest.test_case "dual certificates" `Quick
             test_optimality_maintaining_algorithms_leave_valid_duals
        :: Alcotest.test_case "max-flow feasibility oracle" `Quick test_max_flow_routes_feasible
        :: qcheck [ prop_duals_certify_relaxation ] );
      ( "netgen",
        Alcotest.test_case "transportation agreement" `Quick test_netgen_transportation_agreement
        :: Alcotest.test_case "grid agreement" `Quick test_netgen_grid_agreement
        :: Alcotest.test_case "scheduling agreement" `Quick test_netgen_scheduling_agreement
        :: qcheck
             [
               prop_netgen_grid_agreement;
               prop_incremental_random_change_stream;
               prop_netgen_always_feasible;
             ] );
      ( "race",
        [
          Alcotest.test_case "fresh race starts both solvers" `Quick
            test_race_fresh_starts_both;
          Alcotest.test_case "parallel race" `Quick test_race_parallel;
          Alcotest.test_case "all modes agree" `Quick test_race_modes_agree;
          Alcotest.test_case "incremental sequence" `Quick test_race_incremental_sequence;
          Alcotest.test_case "prepare no-op without cost scaling" `Quick
            test_race_prepare_noop_without_cost_scaling;
          Alcotest.test_case "recycled rounds stay optimal" `Quick
            test_race_recycle_rounds_stay_optimal;
          Alcotest.test_case "handed-out graph never clobbered" `Quick
            test_race_handed_out_graph_never_clobbered;
          Alcotest.test_case "recycling the input is rejected" `Quick
            test_race_recycling_input_is_rejected;
          Alcotest.test_case "two-solver stats always populated" `Quick
            test_race_two_solver_stats_always_populated;
          Alcotest.test_case "hedge: round within H runs relaxation alone" `Quick
            test_race_within_deadline_runs_alone;
          Alcotest.test_case "hedge: overrun starts cost scaling" `Quick
            test_race_overrun_starts_hedge;
          Alcotest.test_case "hedge: races again after a cost-scaling win" `Quick
            test_race_after_cost_scaling_win_races;
        ] );
      ( "incremental-repair",
        Alcotest.test_case "repair path taken and counted" `Quick
          test_race_repair_taken_and_telemetry
        :: Alcotest.test_case "single-solver modes never repair" `Quick
             test_race_single_solver_never_repairs
        :: Alcotest.test_case "give-up reasons" `Quick test_repair_give_up_reasons
        :: Alcotest.test_case "no-change round" `Quick test_repair_no_change_round
        :: Alcotest.test_case "work cap gives up oversized" `Quick test_repair_work_cap
        :: Alcotest.test_case "rollback guards" `Quick test_repair_rollback_guards
        :: Alcotest.test_case "race repairs in place, copies nothing" `Quick
             test_race_repair_in_place
        :: qcheck
             [
               prop_incremental_repair_matches_full;
               prop_race_repair_path_matches;
               prop_batched_repair_matches_ssp;
               prop_repair_giveup_restores_graph;
             ]
      );
      ( "dirty-log",
        Alcotest.test_case "unusable log forces the full pass" `Quick
          test_dirty_log_unusable_forces_full_pass
        :: Alcotest.test_case "unjournaled potential forces the whole certificate" `Quick
             test_unjournaled_potential_forces_whole_certificate
        :: Alcotest.test_case "log-driven certificate = whole-graph certificate" `Quick
             test_log_certificate_matches_whole
        :: Alcotest.test_case "audit catches a change the log missed" `Quick
             test_audit_catches_a_missed_change
        :: Alcotest.test_case "repair stops before the plateau" `Quick
             test_repair_stops_before_the_plateau
        :: qcheck [ prop_dirty_log_matches_full_scans ] );
      ( "degradation",
        Alcotest.test_case "infeasible returns untouched input" `Quick
          test_race_infeasible_returns_untouched_input
        :: Alcotest.test_case "stopped preserves input" `Quick test_race_stopped_preserves_input
        :: Alcotest.test_case "scratch ignores stale flow" `Quick
             test_race_scratch_ignores_stale_flow
        :: Alcotest.test_case "scale shrinks after contraction" `Quick
             test_ensure_scale_shrinks_after_contraction
        :: Alcotest.test_case "shrink keeps incremental lockstep" `Quick
             test_ensure_scale_shrink_keeps_incremental_lockstep
        :: qcheck [ prop_race_stop_never_corrupts ] );
      ( "termination",
        [
          Alcotest.test_case "deadline stops" `Quick test_deadline_stops;
          Alcotest.test_case "stop callback" `Quick test_stop_callback_polled;
          Alcotest.test_case "deadline_stop timing" `Quick test_deadline_stop_fires_after_elapsed;
          Alcotest.test_case "either_stop combines" `Quick test_either_stop_combines;
          Alcotest.test_case "alpha validation" `Quick test_cost_scaling_rejects_bad_alpha;
        ] );
      ( "heap",
        Alcotest.test_case "ordering" `Quick test_heap_ordering
        :: Alcotest.test_case "decrease key" `Quick test_heap_decrease_key
        :: qcheck [ prop_heap_sorts ] );
    ]
