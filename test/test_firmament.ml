(* Integration tests for the Firmament core: flow-network management,
   placement extraction (paper Listing 1), the three policies, and the
   scheduler's placement/migration/preemption loop. *)

module G = Flowgraph.Graph
module FN = Firmament.Flow_network
module W = Cluster.Workload

let checki msg = Alcotest.check Alcotest.int msg
let checkb msg = Alcotest.check Alcotest.bool msg

(* {1 Flow_network} *)

let test_fn_task_lifecycle () =
  let net = FN.create () in
  let n1 = FN.add_task net 10 in
  let _n2 = FN.add_task net 11 in
  checki "task count" 2 (FN.task_count net);
  checki "sink demand" (-2) (G.supply (FN.graph net) (FN.sink net));
  checki "task supply" 1 (G.supply (FN.graph net) n1);
  checkb "lookup" true (FN.task_node net 10 = Some n1);
  checkb "reverse lookup" true (FN.task_of_node net n1 = Some 10);
  FN.remove_task net 10 ~drain:false;
  checki "after removal" 1 (FN.task_count net);
  checki "sink demand shrinks" (-1) (G.supply (FN.graph net) (FN.sink net));
  checkb "gone" true (FN.task_node net 10 = None)

let test_fn_duplicate_task_rejected () =
  let net = FN.create () in
  ignore (FN.add_task net 1);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Flow_network.add_task: task 1 already present") (fun () ->
      ignore (FN.add_task net 1))

let test_fn_machine_and_aggregators () =
  let net = FN.create () in
  let m = FN.ensure_machine net 0 ~slots:4 in
  checkb "machine idempotent" true (FN.ensure_machine net 0 ~slots:4 = m);
  let sink_arc = FN.find_arc net m (FN.sink net) in
  checkb "machine has sink arc" true (sink_arc <> None);
  (match sink_arc with
  | Some a -> checki "slots capacity" 4 (G.capacity (FN.graph net) a)
  | None -> ());
  let u = FN.ensure_unscheduled net 7 in
  checkb "unsched idempotent" true (FN.ensure_unscheduled net 7 = u);
  for tid = 0 to 2 do
    ignore (FN.add_task net tid);
    FN.ensure_unscheduled_arc net tid ~job:7 ~cost:5
  done;
  (match FN.find_arc net u (FN.sink net) with
  | Some a -> checki "unsched capacity grown" 3 (G.capacity (FN.graph net) a)
  | None -> Alcotest.fail "missing unsched sink arc");
  checkb "structure valid" true (FN.validate_structure net = [])

let test_fn_unscheduled_arc_cache () =
  (* The cached aggregator->sink handle is the arc find_arc would find,
     behind every task's arc into the aggregator. Both it and each task's
     unscheduled-arc handle survive adopting a structure-preserving copy;
     the capacity counts the tasks holding an arc. *)
  let net = FN.create () in
  let u = FN.ensure_unscheduled net 7 in
  for i = 0 to 9 do
    ignore (FN.add_task net i);
    FN.ensure_unscheduled_arc net i ~job:7 ~cost:5
  done;
  checkb "cached = found" true
    (FN.unscheduled_sink_arc net 7 = FN.find_arc net u (FN.sink net));
  checkb "task handle = found" true
    (FN.unscheduled_arc net 3 = FN.find_arc net (Option.get (FN.task_node net 3)) u);
  FN.set_graph net (G.copy (FN.graph net));
  ignore (FN.add_task net 10);
  FN.ensure_unscheduled_arc net 10 ~job:7 ~cost:5;
  let cap () = G.capacity (FN.graph net) (Option.get (FN.unscheduled_sink_arc net 7)) in
  checki "capacity grown on the adopted copy" 11 (cap ());
  FN.ensure_unscheduled_arc net 3 ~job:7 ~cost:9;
  checki "re-pricing keeps the capacity" 11 (cap ());
  checki "re-priced through the kept handle" 9
    (G.cost (FN.graph net) (Option.get (FN.unscheduled_arc net 3)));
  Alcotest.(check (list string)) "structure valid" [] (FN.validate_structure net);
  FN.remove_task net 3 ~drain:false;
  checki "removal releases the arc" 10 (cap ());
  checkb "handle dropped with the task" true (FN.unscheduled_arc net 3 = None);
  Alcotest.(check (list string)) "still valid" [] (FN.validate_structure net);
  G.set_capacity (FN.graph net) (Option.get (FN.unscheduled_sink_arc net 7)) 4;
  checkb "capacity drift reported" true (FN.validate_structure net <> [])

let test_fn_task_log () =
  (* Readers see every task added since their position, in order; a
     position from another network, or one the trimmed log has moved
     past, is refused so the reader walks all tasks instead. *)
  let net = FN.create () in
  let uid = FN.uid net in
  ignore (FN.add_task net 1);
  let pos = FN.task_log_end net in
  ignore (FN.add_task net 2);
  ignore (FN.add_task net 3);
  FN.remove_task net 2 ~drain:false;
  let seen = ref [] in
  checkb "read from a live position" true
    (FN.iter_tasks_added_since net ~uid ~pos (fun tid -> seen := tid :: !seen));
  Alcotest.(check (list int)) "added since, oldest first" [ 2; 3 ] (List.rev !seen);
  checkb "another network's position is refused" false
    (FN.iter_tasks_added_since (FN.create ()) ~uid ~pos (fun _ -> ()));
  for i = 10 to 3000 do
    ignore (FN.add_task net i);
    FN.remove_task net i ~drain:false
  done;
  checkb "a position the log dropped is refused" false
    (FN.iter_tasks_added_since net ~uid ~pos (fun _ -> ()));
  let now = FN.task_log_end net in
  checkb "the end is always readable" true
    (FN.iter_tasks_added_since net ~uid ~pos:now (fun _ -> Alcotest.fail "nothing new"))

(* Build the canonical single-task chain task -> X -> machine -> sink with
   flow routed, for drain and extraction tests. *)
let routed_chain () =
  let net = FN.create () in
  let g = FN.graph net in
  let t = FN.add_task net 0 in
  let x = FN.ensure_cluster_agg net in
  let m = FN.ensure_machine net 0 ~slots:2 in
  let a_tx = G.add_arc g ~src:t ~dst:x ~cost:0 ~cap:1 in
  let a_xm = G.add_arc g ~src:x ~dst:m ~cost:0 ~cap:2 in
  let a_ms = Option.get (FN.find_arc net m (FN.sink net)) in
  G.push g a_tx 1;
  G.push g a_xm 1;
  G.push g a_ms 1;
  (net, t, x, m)

let test_fn_drain_removal_keeps_balance () =
  let net, _, x, m = routed_chain () in
  let g = FN.graph net in
  FN.remove_task net 0 ~drain:true;
  checki "x balanced" 0 (G.excess g x);
  checki "machine balanced" 0 (G.excess g m);
  checki "sink balanced" 0 (G.excess g (FN.sink net));
  checkb "feasible" true (Flowgraph.Validate.is_feasible g)

let test_fn_plain_removal_breaks_balance () =
  let net, _, x, _ = routed_chain () in
  let g = FN.graph net in
  FN.remove_task net 0 ~drain:false;
  (* The aggregator keeps its outgoing flow but lost its inflow: demand
     appears mid-graph (the expensive case of §5.3.2). *)
  checki "x in demand" (-1) (G.excess g x);
  checkb "infeasible" false (Flowgraph.Validate.is_feasible g)

let test_reroute_direct_moves_flow () =
  (* task -> X -> R -> m routed; reroute moves the unit onto a direct arc
     and leaves every node balanced. *)
  let net = FN.create () in
  let g = FN.graph net in
  let t = FN.add_task net 0 in
  let x = FN.ensure_cluster_agg net in
  let r = FN.ensure_rack net 0 in
  let m = FN.ensure_machine net 0 ~slots:2 in
  let a_tx = G.add_arc g ~src:t ~dst:x ~cost:5 ~cap:1 in
  let a_xr = G.add_arc g ~src:x ~dst:r ~cost:0 ~cap:4 in
  let a_rm = G.add_arc g ~src:r ~dst:m ~cost:0 ~cap:4 in
  let a_ms = Option.get (FN.find_arc net m (FN.sink net)) in
  List.iter (fun a -> G.push g a 1) [ a_tx; a_xr; a_rm; a_ms ];
  checkb "reroute succeeds" true (FN.reroute_direct net 0 0 ~cost:0);
  checkb "feasible" true (Flowgraph.Validate.is_feasible g);
  let direct = Option.get (FN.find_arc net t m) in
  checki "direct carries unit" 1 (G.flow g direct);
  checki "direct cost" 0 (G.cost g direct);
  checki "old path drained" 0 (G.flow g a_tx);
  checki "aggregator leg drained" 0 (G.flow g a_xr);
  checki "machine->sink untouched" 1 (G.flow g a_ms);
  (* Second call: already direct, a no-op. *)
  checkb "idempotent" true (FN.reroute_direct net 0 0 ~cost:0)

let test_reroute_direct_unrouted_fails () =
  let net = FN.create () in
  ignore (FN.add_task net 0);
  ignore (FN.ensure_machine net 3 ~slots:1);
  checkb "unrouted task cannot reroute" false (FN.reroute_direct net 0 3 ~cost:0)

let test_prune_task_arcs_keeps_selected () =
  let net = FN.create () in
  let g = FN.graph net in
  let t = FN.add_task net 0 in
  let m0 = FN.ensure_machine net 0 ~slots:1 in
  let m1 = FN.ensure_machine net 1 ~slots:1 in
  ignore (G.add_arc g ~src:t ~dst:m0 ~cost:1 ~cap:1);
  ignore (G.add_arc g ~src:t ~dst:m1 ~cost:2 ~cap:1);
  FN.ensure_unscheduled_arc net 0 ~job:0 ~cost:9;
  let u = Option.get (FN.unscheduled_node net 0) in
  FN.prune_task_arcs net 0 ~keep:(fun n -> n = m0);
  checkb "kept machine arc" true (FN.find_arc net t m0 <> None);
  checkb "kept unscheduled arc" true (FN.find_arc net t u <> None);
  checkb "pruned other machine" true (FN.find_arc net t m1 = None);
  FN.prune_task_arcs net 0 ~keep:(fun _ -> false);
  checkb "the unscheduled arc is never pruned" true
    (FN.find_arc net t u = FN.unscheduled_arc net 0 && FN.find_arc net t u <> None);
  checkb "everything else pruned" true (FN.find_arc net t m0 = None);
  Alcotest.(check (list string)) "structure valid" [] (FN.validate_structure net)

(* [FN.restore] input for a hand-built network: a copy of its graph and
   the role of every live node. *)
let restore_input net =
  let kinds = ref [] in
  G.iter_nodes (FN.graph net) (fun n -> kinds := (n, FN.kind net n) :: !kinds);
  (G.copy (FN.graph net), !kinds)

let test_fn_restore_unscheduled_arcs () =
  (* Restore rederives each task's unscheduled-arc handle from the graph,
     and rejects a task node holding zero unscheduled arcs, or two. *)
  let net = FN.create () in
  ignore (FN.add_task net 0);
  FN.ensure_unscheduled_arc net 0 ~job:0 ~cost:7;
  let graph, kinds = restore_input net in
  let restored = FN.restore ~graph ~kinds in
  checkb "handle rederived" true (FN.unscheduled_arc restored 0 = FN.unscheduled_arc net 0);
  Alcotest.(check (list string)) "restored valid" [] (FN.validate_structure restored);
  (* An aggregator no task holds an arc into is still a valid image. *)
  let empty = FN.create () in
  ignore (FN.ensure_unscheduled empty 3);
  let graph, kinds = restore_input empty in
  checkb "an empty aggregator restores" true
    (FN.unscheduled_node (FN.restore ~graph ~kinds) 3 <> None);
  let bare = FN.create () in
  ignore (FN.add_task bare 0);
  ignore (FN.ensure_unscheduled bare 0);
  let graph, kinds = restore_input bare in
  Alcotest.check_raises "zero unscheduled arcs"
    (Invalid_argument "Flow_network.restore: task 0 has 0 unscheduled arcs, expected 1")
    (fun () -> ignore (FN.restore ~graph ~kinds));
  let u1 = FN.ensure_unscheduled net 1 in
  ignore (G.add_arc (FN.graph net) ~src:(Option.get (FN.task_node net 0)) ~dst:u1 ~cost:3 ~cap:1);
  checkb "a second arc is drift" true (FN.validate_structure net <> []);
  let graph, kinds = restore_input net in
  Alcotest.check_raises "two unscheduled arcs"
    (Invalid_argument "Flow_network.restore: task 0 has 2 unscheduled arcs, expected 1")
    (fun () -> ignore (FN.restore ~graph ~kinds))

(* {1 Placement extraction} *)

let test_extract_simple_chain () =
  let net, _, _, _ = routed_chain () in
  let assignments = Firmament.Placement.extract net in
  Alcotest.(check (list (pair int (option int))))
    "task placed"
    [ (0, Some 0) ]
    (List.map (fun a -> (a.Firmament.Placement.task, a.Firmament.Placement.machine)) assignments)

let test_extract_unscheduled_task () =
  let net = FN.create () in
  let g = FN.graph net in
  ignore (FN.add_task net 3);
  FN.ensure_unscheduled_arc net 3 ~job:0 ~cost:5;
  let u = Option.get (FN.unscheduled_node net 0) in
  G.push g (Option.get (FN.unscheduled_arc net 3)) 1;
  G.push g (Option.get (FN.find_arc net u (FN.sink net))) 1;
  let assignments = Firmament.Placement.extract net in
  Alcotest.(check (list (pair int (option int))))
    "unplaced"
    [ (3, None) ]
    (List.map (fun a -> (a.Firmament.Placement.task, a.Firmament.Placement.machine)) assignments)

let test_extract_multi_hop_aggregators () =
  (* Two tasks via rack aggregators on distinct machines. *)
  let net = FN.create () in
  let g = FN.graph net in
  let t0 = FN.add_task net 0 and t1 = FN.add_task net 1 in
  let r = FN.ensure_rack net 0 in
  let m0 = FN.ensure_machine net 0 ~slots:1 and m1 = FN.ensure_machine net 1 ~slots:1 in
  let arc s d c = G.add_arc g ~src:s ~dst:d ~cost:0 ~cap:c in
  let a0 = arc t0 r 1 and a1 = arc t1 r 1 in
  let rm0 = arc r m0 1 and rm1 = arc r m1 1 in
  G.push g a0 1;
  G.push g a1 1;
  G.push g rm0 1;
  G.push g rm1 1;
  G.push g (Option.get (FN.find_arc net m0 (FN.sink net))) 1;
  G.push g (Option.get (FN.find_arc net m1 (FN.sink net))) 1;
  let m = Firmament.Placement.extract_map net in
  checki "both placed" 2 (Hashtbl.length m);
  let m0' = Hashtbl.find m 0 and m1' = Hashtbl.find m 1 in
  checkb "distinct machines" true (m0' <> m1');
  checkb "valid ids" true (List.mem m0' [ 0; 1 ] && List.mem m1' [ 0; 1 ])

let test_extract_rejects_infeasible () =
  let net = FN.create () in
  ignore (FN.add_task net 0);
  (* Supply 1 with no flow: excess nonzero somewhere (task and sink). *)
  match Firmament.Placement.extract net with
  | _ -> Alcotest.fail "expected failure on infeasible flow"
  | exception Failure msg ->
      checkb "mentions infeasibility" true
        (String.length msg > 0
        && Option.is_some
             (String.index_opt msg 'i')
        &&
        let re = "infeasible" in
        let rec contains i =
          if i + String.length re > String.length msg then false
          else if String.sub msg i (String.length re) = re then true
          else contains (i + 1)
        in
        contains 0)

let test_extract_partial_reads_incomplete_flow () =
  (* Route only one of two tasks; the lenient extractor reports the other
     as unplaced instead of failing. *)
  let net = FN.create () in
  let g = FN.graph net in
  let t0 = FN.add_task net 0 in
  let _t1 = FN.add_task net 1 in
  let m = FN.ensure_machine net 0 ~slots:2 in
  let a = G.add_arc g ~src:t0 ~dst:m ~cost:0 ~cap:1 in
  G.push g a 1;
  G.push g (Option.get (FN.find_arc net m (FN.sink net))) 1;
  (match Firmament.Placement.extract net with
  | _ -> Alcotest.fail "strict extraction must reject infeasible flow"
  | exception Failure _ -> ());
  let partial = Firmament.Placement.extract_partial net in
  Alcotest.(check (list (pair int (option int))))
    "partial placements"
    [ (0, Some 0); (1, None) ]
    (List.map (fun p -> (p.Firmament.Placement.task, p.Firmament.Placement.machine)) partial)

let partial_pairs partial =
  List.map (fun p -> (p.Firmament.Placement.task, p.Firmament.Placement.machine)) partial

let test_extract_partial_backtracks_and_refunds () =
  (* Two tasks through an aggregator; a dead-end arc (flow parked at a
     rack that forwards nothing) is probed first thanks to head insertion.
     Both walks must probe it, refund it, and still place both tasks — a
     leaked probe budget would strand the second task. *)
  let net = FN.create () in
  let g = FN.graph net in
  let t0 = FN.add_task net 0 in
  let t1 = FN.add_task net 1 in
  let agg = FN.ensure_cluster_agg net in
  let m = FN.ensure_machine net 0 ~slots:2 in
  let dead = FN.ensure_rack net 0 in
  let a_t0 = G.add_arc g ~src:t0 ~dst:agg ~cost:0 ~cap:1 in
  let a_t1 = G.add_arc g ~src:t1 ~dst:agg ~cost:0 ~cap:1 in
  let a_am = G.add_arc g ~src:agg ~dst:m ~cost:0 ~cap:2 in
  (* Added last: iterated first by the walk. *)
  let a_ad = G.add_arc g ~src:agg ~dst:dead ~cost:0 ~cap:1 in
  List.iter (fun a -> G.push g a 1) [ a_t0; a_t1; a_ad ];
  G.push g a_am 2;
  G.push g (Option.get (FN.find_arc net m (FN.sink net))) 2;
  Alcotest.(check (list (pair int (option int))))
    "both tasks placed despite the dead-end probe"
    [ (0, Some 0); (1, Some 0) ]
    (partial_pairs (Firmament.Placement.extract_partial net))

let test_extract_partial_machine_sink_budget () =
  (* The walk reaches a machine whose sink arc carries no flow (excess
     parked there mid-solve): it must not claim that machine, and must
     back out and find the one whose flow actually drains. *)
  let net = FN.create () in
  let g = FN.graph net in
  let t0 = FN.add_task net 0 in
  let agg = FN.ensure_cluster_agg net in
  let m1 = FN.ensure_machine net 1 ~slots:1 in
  let m0 = FN.ensure_machine net 0 ~slots:1 in
  let a_t = G.add_arc g ~src:t0 ~dst:agg ~cost:0 ~cap:1 in
  let a_m1 = G.add_arc g ~src:agg ~dst:m1 ~cost:0 ~cap:1 in
  (* Added last, probed first: this unit parks at m0, never reaching the
     sink. *)
  let a_m0 = G.add_arc g ~src:agg ~dst:m0 ~cost:0 ~cap:1 in
  List.iter (fun a -> G.push g a 1) [ a_t; a_m1; a_m0 ];
  G.push g (Option.get (FN.find_arc net m1 (FN.sink net))) 1;
  Alcotest.(check (list (pair int (option int))))
    "placed on the machine with sink flow"
    [ (0, Some 1) ]
    (partial_pairs (Firmament.Placement.extract_partial net))

let test_extract_partial_never_oversubscribes () =
  (* Two units of task flow converge on a machine that forwards only one
     to the sink: at most one task may be attributed to it. *)
  let net = FN.create () in
  let g = FN.graph net in
  let t0 = FN.add_task net 0 in
  let t1 = FN.add_task net 1 in
  let m = FN.ensure_machine net 0 ~slots:2 in
  let a0 = G.add_arc g ~src:t0 ~dst:m ~cost:0 ~cap:1 in
  let a1 = G.add_arc g ~src:t1 ~dst:m ~cost:0 ~cap:1 in
  G.push g a0 1;
  G.push g a1 1;
  G.push g (Option.get (FN.find_arc net m (FN.sink net))) 1;
  let placed =
    List.filter
      (fun p -> p.Firmament.Placement.machine <> None)
      (Firmament.Placement.extract_partial net)
  in
  checki "exactly one placement" 1 (List.length placed)

let test_validate_structure_detects_drift () =
  let net = FN.create () in
  let m = FN.ensure_machine net 0 ~slots:2 in
  checkb "valid" true (FN.validate_structure net = []);
  (* A machine with a non-sink outgoing arc violates the invariant the
     placement extractor relies on. *)
  let other = FN.ensure_machine net 1 ~slots:2 in
  ignore (G.add_arc (FN.graph net) ~src:m ~dst:other ~cost:0 ~cap:1);
  checkb "violation reported" true (FN.validate_structure net <> [])

(* {1 Scheduler + policies, end to end} *)

let mk_cluster ~machines ~slots =
  let topo =
    Cluster.Topology.make ~machines ~machines_per_rack:2 ~slots_per_machine:slots ()
  in
  Cluster.State.create topo

let job_of_tasks ~jid ?(klass = Cluster.Types.Batch) ~submit tasks =
  W.make_job ~jid ~klass ~submit_time:submit ~tasks:(Array.of_list tasks)

let simple_job ~jid ~n ~submit ~duration =
  job_of_tasks ~jid ~submit
    (List.init n (fun i ->
         W.make_task ~tid:((jid * 1000) + i) ~job:jid ~submit_time:submit ~duration ()))

let solve_sched sched ~now = Firmament.Scheduler.schedule sched ~now

let test_load_spread_end_to_end () =
  let cluster = mk_cluster ~machines:4 ~slots:2 in
  let sched =
    Firmament.Scheduler.create cluster ~policy:(fun ~drain net st ->
        Firmament.Policy_load_spread.make ~drain net st)
  in
  Firmament.Scheduler.submit_job sched (simple_job ~jid:0 ~n:4 ~submit:0. ~duration:10.);
  let round = solve_sched sched ~now:0. in
  checki "all started" 4 (List.length round.Firmament.Scheduler.started);
  checki "none waiting" 0 (Cluster.State.waiting_count cluster);
  (* Load-spreading: 4 tasks over 4 machines, one each. *)
  for m = 0 to 3 do
    checki "one per machine" 1 (Cluster.State.running_count cluster m)
  done;
  (* Finish two, submit three more: spreading continues. *)
  let t0, _ = List.nth round.Firmament.Scheduler.started 0 in
  let t1, _ = List.nth round.Firmament.Scheduler.started 1 in
  Firmament.Scheduler.finish_task sched t0 ~now:10.;
  Firmament.Scheduler.finish_task sched t1 ~now:10.;
  Firmament.Scheduler.submit_job sched (simple_job ~jid:1 ~n:3 ~submit:10. ~duration:10.);
  let round2 = solve_sched sched ~now:10. in
  checki "three more started" 3 (List.length round2.Firmament.Scheduler.started);
  let counts = List.init 4 (fun m -> Cluster.State.running_count cluster m) in
  checki "five running" 5 (List.fold_left ( + ) 0 counts);
  checkb "max spread" true (List.for_all (fun c -> c <= 2) counts)

let test_load_spread_oversubscription_waits () =
  let cluster = mk_cluster ~machines:2 ~slots:1 in
  let sched =
    Firmament.Scheduler.create cluster ~policy:(fun ~drain net st ->
        Firmament.Policy_load_spread.make ~drain net st)
  in
  Firmament.Scheduler.submit_job sched (simple_job ~jid:0 ~n:5 ~submit:0. ~duration:10.);
  let round = solve_sched sched ~now:0. in
  checki "only capacity starts" 2 (List.length round.Firmament.Scheduler.started);
  checki "rest wait" 3 (Cluster.State.waiting_count cluster);
  checki "reported unscheduled" 3 round.Firmament.Scheduler.unscheduled

let quincy_task ~tid ~job ~submit ~duration ~input_mb ~input_machines =
  W.make_task ~tid ~job ~submit_time:submit ~duration ~input_mb ~input_machines ()

let test_quincy_prefers_local_data () =
  let cluster = mk_cluster ~machines:4 ~slots:2 in
  let sched =
    Firmament.Scheduler.create cluster ~policy:(fun ~drain net st ->
        Firmament.Policy_quincy.make ~drain net st)
  in
  (* All input on machine 2: scheduling there transfers nothing. *)
  let t =
    quincy_task ~tid:0 ~job:0 ~submit:0. ~duration:10. ~input_mb:1000.
      ~input_machines:[ 2; 2; 2 ]
  in
  Firmament.Scheduler.submit_job sched (job_of_tasks ~jid:0 ~submit:0. [ t ]);
  let round = solve_sched sched ~now:0. in
  Alcotest.(check (list (pair int int))) "placed on data" [ (0, 2) ] round.Firmament.Scheduler.started

let test_quincy_falls_back_when_preferred_full () =
  let cluster = mk_cluster ~machines:2 ~slots:1 in
  let sched =
    Firmament.Scheduler.create cluster ~policy:(fun ~drain net st ->
        Firmament.Policy_quincy.make ~drain net st)
  in
  let mk tid = quincy_task ~tid ~job:0 ~submit:0. ~duration:10. ~input_mb:100. ~input_machines:[ 0; 0; 0 ] in
  (* Two tasks both preferring machine 0 (slots 1): one falls back. *)
  Firmament.Scheduler.submit_job sched (job_of_tasks ~jid:0 ~submit:0. [ mk 0; mk 1 ]);
  let round = solve_sched sched ~now:0. in
  checki "both scheduled" 2 (List.length round.Firmament.Scheduler.started);
  let machines = List.map snd round.Firmament.Scheduler.started |> List.sort compare in
  Alcotest.(check (list int)) "one per machine" [ 0; 1 ] machines

let test_quincy_service_priority_preempts () =
  let cluster = mk_cluster ~machines:1 ~slots:1 in
  let sched =
    Firmament.Scheduler.create cluster ~policy:(fun ~drain net st ->
        Firmament.Policy_quincy.make ~drain net st)
  in
  let batch = quincy_task ~tid:0 ~job:0 ~submit:0. ~duration:1000. ~input_mb:10. ~input_machines:[] in
  Firmament.Scheduler.submit_job sched (job_of_tasks ~jid:0 ~submit:0. [ batch ]);
  let r1 = solve_sched sched ~now:0. in
  checki "batch starts" 1 (List.length r1.Firmament.Scheduler.started);
  (* A service task arrives; the only slot is taken by batch work. *)
  let service = quincy_task ~tid:100 ~job:1 ~submit:5. ~duration:1e7 ~input_mb:0. ~input_machines:[] in
  Firmament.Scheduler.submit_job sched
    (job_of_tasks ~jid:1 ~klass:Cluster.Types.Service ~submit:5. [ service ]);
  let r2 = solve_sched sched ~now:5. in
  checkb "batch preempted" true (List.mem 0 r2.Firmament.Scheduler.preempted);
  Alcotest.(check (list (pair int int))) "service placed" [ (100, 0) ] r2.Firmament.Scheduler.started

let test_network_aware_avoids_loaded_machine () =
  let cluster = mk_cluster ~machines:2 ~slots:4 in
  (* Machine 0 is saturated by background traffic. *)
  let background m = if m = 0 then 9_900 else 0 in
  let sched =
    Firmament.Scheduler.create cluster ~policy:(fun ~drain net st ->
        Firmament.Policy_network_aware.make ~bandwidth_used:background ~drain net st)
  in
  let t =
    W.make_task ~tid:0 ~job:0 ~submit_time:0. ~duration:10. ~net_demand_mbps:500 ()
  in
  Firmament.Scheduler.submit_job sched (job_of_tasks ~jid:0 ~submit:0. [ t ]);
  let round = solve_sched sched ~now:0. in
  Alcotest.(check (list (pair int int)))
    "avoids machine 0" [ (0, 1) ] round.Firmament.Scheduler.started

let test_network_aware_balances_bandwidth () =
  let cluster = mk_cluster ~machines:2 ~slots:8 in
  let sched =
    Firmament.Scheduler.create cluster ~policy:(fun ~drain net st ->
        Firmament.Policy_network_aware.make ~drain net st)
  in
  let tasks =
    List.init 4 (fun i ->
        W.make_task ~tid:i ~job:0 ~submit_time:0. ~duration:100. ~net_demand_mbps:3000 ())
  in
  Firmament.Scheduler.submit_job sched (job_of_tasks ~jid:0 ~submit:0. tasks);
  let round = solve_sched sched ~now:0. in
  checki "all placed" 4 (List.length round.Firmament.Scheduler.started);
  (* 4 x 3000 Mbps over 2 x 10G links: the only non-overcommitting split
     is 2+2. *)
  checki "balanced" 2 (Cluster.State.running_count cluster 0);
  checki "balanced" 2 (Cluster.State.running_count cluster 1)

let test_machine_failure_reschedules () =
  let cluster = mk_cluster ~machines:2 ~slots:2 in
  let sched =
    Firmament.Scheduler.create cluster ~policy:(fun ~drain net st ->
        Firmament.Policy_load_spread.make ~drain net st)
  in
  Firmament.Scheduler.submit_job sched (simple_job ~jid:0 ~n:2 ~submit:0. ~duration:100.);
  let r1 = solve_sched sched ~now:0. in
  checki "started" 2 (List.length r1.Firmament.Scheduler.started);
  (* Kill machine 0; its task must move to machine 1. *)
  Firmament.Scheduler.fail_machine sched 0;
  let r2 = solve_sched sched ~now:1. in
  checki "victim rescheduled" 1 (List.length r2.Firmament.Scheduler.started);
  checki "machine 1 hosts both" 2 (Cluster.State.running_count cluster 1);
  (* Restore machine 0: spreading brings one task back eventually on new
     submissions. *)
  Firmament.Scheduler.restore_machine sched 0;
  Firmament.Scheduler.submit_job sched (simple_job ~jid:1 ~n:1 ~submit:2. ~duration:100.);
  let r3 = solve_sched sched ~now:2. in
  checki "new task started" 1 (List.length r3.Firmament.Scheduler.started);
  checki "lands on restored machine" 1 (Cluster.State.running_count cluster 0)

let test_scheduler_parallel_race_mode () =
  (* End-to-end with the hedged race: the first round starts both
     solvers on two domains (no history yet). *)
  let cluster = mk_cluster ~machines:4 ~slots:2 in
  let sched =
    Firmament.Scheduler.create
      ~config:{ Firmament.Scheduler.default_config with mode = Mcmf.Race.Race }
      cluster
      ~policy:(fun ~drain net st -> Firmament.Policy_quincy.make ~drain net st)
  in
  Firmament.Scheduler.submit_job sched (simple_job ~jid:0 ~n:6 ~submit:0. ~duration:10.);
  let round = solve_sched sched ~now:0. in
  checki "all placed" 6 (List.length round.Firmament.Scheduler.started);
  (* Subsequent incremental round after completions. *)
  let tid, _ = List.hd round.Firmament.Scheduler.started in
  Firmament.Scheduler.finish_task sched tid ~now:5.;
  Firmament.Scheduler.submit_job sched (simple_job ~jid:1 ~n:1 ~submit:5. ~duration:10.);
  let round2 = solve_sched sched ~now:5. in
  checki "replacement placed" 1 (List.length round2.Firmament.Scheduler.started)

let test_quincy_threshold_controls_arc_count () =
  (* A lower preference threshold admits more preference arcs (Fig. 15's
     mechanism). *)
  let arcs_for threshold =
    let cluster = mk_cluster ~machines:8 ~slots:2 in
    let sched =
      Firmament.Scheduler.create cluster ~policy:(fun ~drain net st ->
          Firmament.Policy_quincy.make
            ~config:
              {
                Firmament.Policy_quincy.default_config with
                preference_threshold = threshold;
              }
            ~drain net st)
    in
    (* One block on each of 8 machines: per-machine fraction is 1/8 = 12.5%. *)
    let t =
      quincy_task ~tid:0 ~job:0 ~submit:0. ~duration:10. ~input_mb:800.
        ~input_machines:[ 0; 1; 2; 3; 4; 5; 6; 7 ]
    in
    Firmament.Scheduler.submit_job sched (job_of_tasks ~jid:0 ~submit:0. [ t ]);
    let net = Firmament.Scheduler.network sched in
    let tn = Option.get (FN.task_node net 0) in
    let g = FN.graph net in
    let count = ref 0 in
    G.iter_out g tn (fun a -> if G.is_forward a then incr count);
    !count
  in
  let narrow = arcs_for 0.14 in
  let wide = arcs_for 0.02 in
  checkb "2% threshold adds preference arcs" true (wide > narrow)

let test_network_aware_bucket_rounding () =
  let config = Firmament.Policy_network_aware.default_config in
  checki "rounds up" 200 (Firmament.Policy_network_aware.bucket_of ~config 101);
  checki "exact" 200 (Firmament.Policy_network_aware.bucket_of ~config 200);
  checki "minimum one bucket" 100 (Firmament.Policy_network_aware.bucket_of ~config 0)

let test_scheduler_quincy_mode_matches_firmament_placements () =
  (* Same workload under Quincy configuration (from-scratch cost scaling)
     and Firmament (race): identical placement *cost* since both optimal. *)
  let run mode =
    let cluster = mk_cluster ~machines:4 ~slots:2 in
    let sched =
      Firmament.Scheduler.create
        ~config:{ Firmament.Scheduler.default_config with mode }
        cluster
        ~policy:(fun ~drain net st -> Firmament.Policy_quincy.make ~drain net st)
    in
    let tasks =
      List.init 6 (fun i ->
          quincy_task ~tid:i ~job:0 ~submit:0. ~duration:10. ~input_mb:200.
            ~input_machines:[ i mod 4; (i + 1) mod 4; i mod 4 ])
    in
    Firmament.Scheduler.submit_job sched (job_of_tasks ~jid:0 ~submit:0. tasks);
    let _ = solve_sched sched ~now:0. in
    G.total_cost (FN.graph (Firmament.Scheduler.network sched))
  in
  let c_quincy = run Mcmf.Race.Cost_scaling_scratch_only in
  let c_firm = run Mcmf.Race.Race in
  checki "same optimal cost" c_quincy c_firm

(* {1 Degraded rounds: infeasible networks and round deadlines} *)

let all_race_modes = List.map snd Mcmf.Race.modes

let degraded_t =
  Alcotest.testable Firmament.Scheduler.pp_degraded (fun a b -> a = b)

(* A policy whose network is unroutable by construction: every task's only
   arc leads to a machine with a zero-capacity sink arc, and no
   unscheduled aggregator exists to absorb the supply. *)
let unroutable_policy ~drain:_ net _st =
  let g = FN.graph net in
  {
    Firmament.Policy.name = "unroutable";
    task_submitted =
      (fun (task : W.task) ->
        let tn = FN.add_task net task.W.tid in
        let m = FN.ensure_machine net 0 ~slots:0 in
        ignore (G.add_arc g ~src:tn ~dst:m ~cost:1 ~cap:1));
    task_finished = (fun _ -> ());
    task_started = (fun _ _ -> ());
    task_preempted = (fun _ -> ());
    machine_failed = (fun _ -> ());
    machine_restored = (fun _ -> ());
    refresh = (fun ~now:_ -> ());
  }

let test_scheduler_infeasible_round_fails_gracefully () =
  List.iter
    (fun mode ->
      let cluster = mk_cluster ~machines:1 ~slots:2 in
      let sched =
        Firmament.Scheduler.create
          ~config:{ Firmament.Scheduler.default_config with mode }
          cluster ~policy:unroutable_policy
      in
      Firmament.Scheduler.submit_job sched (simple_job ~jid:0 ~n:2 ~submit:0. ~duration:10.);
      let r1 = solve_sched sched ~now:0. in
      Alcotest.check degraded_t "failed round" `Failed r1.Firmament.Scheduler.degraded;
      checki "nothing started" 0 (List.length r1.Firmament.Scheduler.started);
      checki "all reported unscheduled" 2 r1.Firmament.Scheduler.unscheduled;
      checki "cluster untouched" 2 (Cluster.State.waiting_count cluster);
      (* Repair the network (give machine 0 its real slot capacity): the
         preserved pre-round graph must recover to a clean optimal round. *)
      let net = Firmament.Scheduler.network sched in
      let m = FN.ensure_machine net 0 ~slots:0 in
      (match FN.find_arc net m (FN.sink net) with
      | Some a -> G.set_capacity (FN.graph net) a 2
      | None -> Alcotest.fail "machine lost its sink arc");
      let r2 = solve_sched sched ~now:1. in
      Alcotest.check degraded_t "recovered" `None r2.Firmament.Scheduler.degraded;
      checki "both started" 2 (List.length r2.Firmament.Scheduler.started);
      checki "none waiting" 0 (Cluster.State.waiting_count cluster))
    all_race_modes

let test_scheduler_stopped_round_degrades_to_partial () =
  List.iter
    (fun mode ->
      let cluster = mk_cluster ~machines:4 ~slots:2 in
      let sched =
        Firmament.Scheduler.create
          ~config:{ Firmament.Scheduler.default_config with mode }
          cluster
          ~policy:(fun ~drain net st -> Firmament.Policy_load_spread.make ~drain net st)
      in
      Firmament.Scheduler.submit_job sched (simple_job ~jid:0 ~n:6 ~submit:0. ~duration:50.);
      let r1 = Firmament.Scheduler.schedule ~stop:(fun () -> true) sched ~now:0. in
      Alcotest.check degraded_t "partial round" `Partial r1.Firmament.Scheduler.degraded;
      for m = 0 to 3 do
        checkb "no oversubscription" true (Cluster.State.running_count cluster m <= 2)
      done;
      let r2 = solve_sched sched ~now:1. in
      Alcotest.check degraded_t "recovered" `None r2.Firmament.Scheduler.degraded;
      checki "everything running" 6
        (List.length r1.Firmament.Scheduler.started
        + List.length r2.Firmament.Scheduler.started);
      checki "none waiting" 0 (Cluster.State.waiting_count cluster))
    all_race_modes

let test_scheduler_midsolve_stop_capacity_valid () =
  (* Cancel the solve after a handful of polls, wherever that lands: the
     round reports a ladder rung, commits only capacity-valid placements,
     and the next unconstrained round recovers fully. *)
  List.iter
    (fun k ->
      let cluster = mk_cluster ~machines:4 ~slots:2 in
      let sched =
        Firmament.Scheduler.create cluster ~policy:(fun ~drain net st ->
            Firmament.Policy_quincy.make ~drain net st)
      in
      let tasks =
        List.init 8 (fun i ->
            quincy_task ~tid:i ~job:0 ~submit:0. ~duration:50. ~input_mb:200.
              ~input_machines:[ i mod 4 ])
      in
      Firmament.Scheduler.submit_job sched (job_of_tasks ~jid:0 ~submit:0. tasks);
      let polls = ref 0 in
      let stop () =
        incr polls;
        !polls > k
      in
      let r1 = Firmament.Scheduler.schedule ~stop sched ~now:0. in
      checkb "on the ladder" true
        (List.mem r1.Firmament.Scheduler.degraded [ `None; `Partial ]);
      for m = 0 to 3 do
        checkb "no oversubscription" true (Cluster.State.running_count cluster m <= 2)
      done;
      let r2 = solve_sched sched ~now:1. in
      Alcotest.check degraded_t "recovers" `None r2.Firmament.Scheduler.degraded;
      checki "none waiting" 0 (Cluster.State.waiting_count cluster))
    [ 0; 1; 2; 5; 20 ]

let test_scheduler_config_deadline () =
  (* A zero deadline stops every solve immediately: rounds degrade to
     [`Partial] without exceptions. A generous one changes nothing. *)
  let run deadline =
    let cluster = mk_cluster ~machines:2 ~slots:2 in
    let sched =
      Firmament.Scheduler.create
        ~config:{ Firmament.Scheduler.default_config with deadline }
        cluster
        ~policy:(fun ~drain net st -> Firmament.Policy_load_spread.make ~drain net st)
    in
    Firmament.Scheduler.submit_job sched (simple_job ~jid:0 ~n:3 ~submit:0. ~duration:10.);
    let r = solve_sched sched ~now:0. in
    (r.Firmament.Scheduler.degraded, Cluster.State.waiting_count cluster)
  in
  let d0, _ = run (Some 0.) in
  Alcotest.check degraded_t "zero deadline degrades" `Partial d0;
  let d, waiting = run (Some 60.) in
  Alcotest.check degraded_t "generous deadline completes" `None d;
  checki "all placed" 0 waiting

let test_scheduler_phase_attribution () =
  (* A 10 ms deadline on a from-scratch solve of a large cluster cannot
     complete: the round degrades to [`Partial], and its [phase_ns] must
     attribute the spent budget across named phases whose durations sum
     to the round's wall time (the checkpoints are contiguous, so the sum
     is exact up to the instants before/after the schedule call). The
     instance must be big enough that a warm-started-workspace scratch
     solve still reliably blows the deadline. *)
  let machines = 1500 in
  let cluster = mk_cluster ~machines ~slots:4 in
  let sched =
    Firmament.Scheduler.create
      ~config:{ Firmament.Scheduler.default_config with deadline = Some 0.01 }
      cluster
      ~policy:(fun ~drain net st -> Firmament.Policy_load_spread.make ~drain net st)
  in
  Firmament.Scheduler.submit_job sched
    (simple_job ~jid:0 ~n:(machines * 4) ~submit:0. ~duration:50.);
  let w0 = Telemetry.Clock.now_ns () in
  let r = Firmament.Scheduler.schedule sched ~now:0. in
  let w1 = Telemetry.Clock.now_ns () in
  Alcotest.check degraded_t "10ms deadline degrades to partial" `Partial
    r.Firmament.Scheduler.degraded;
  let phases = r.Firmament.Scheduler.phase_ns in
  checkb "phases named" true
    (List.mem_assoc "refresh" phases && List.mem_assoc "solve" phases
    && List.mem_assoc "extract" phases && List.mem_assoc "apply" phases);
  List.iter
    (fun (p, d) -> checkb (p ^ " duration non-negative") true (d >= 0))
    phases;
  (* The deadline budget went to the solve phase. *)
  let solve_ns = List.assoc "solve" phases in
  checkb "solve consumed the deadline" true (solve_ns >= 8_000_000);
  let sum = List.fold_left (fun acc (_, d) -> acc + d) 0 phases in
  let wall = w1 - w0 in
  checkb "phase sum bounded by outer wall" true (sum <= wall);
  checkb "phase sum ~ round wall time" true
    (float_of_int sum >= 0.9 *. float_of_int wall)

(* {1 Quincy policy} *)

let test_quincy_machine_restored_reinstalls_preferences () =
  (* Regression: a task submitted while its data's machine is down gets
     no preference arc (dead machines are skipped); restoring the machine
     must reinstall the arc so the next round can place the task on its
     data instead of anywhere via the wildcard. *)
  let cluster = mk_cluster ~machines:2 ~slots:2 in
  let sched =
    Firmament.Scheduler.create cluster ~policy:(fun ~drain net st ->
        Firmament.Policy_quincy.make ~drain net st)
  in
  Firmament.Scheduler.fail_machine sched 1;
  Firmament.Scheduler.submit_job sched
    (job_of_tasks ~jid:0 ~submit:0.
       [
         quincy_task ~tid:0 ~job:0 ~submit:0. ~duration:10. ~input_mb:500.
           ~input_machines:[ 1; 1; 1 ];
       ]);
  let net = Firmament.Scheduler.network sched in
  let tn = Option.get (FN.task_node net 0) in
  Firmament.Scheduler.restore_machine sched 1;
  (match FN.machine_node net 1 with
  | Some mn -> checkb "preference arc reinstalled" true (FN.find_arc net tn mn <> None)
  | None -> Alcotest.fail "machine 1 missing after restore");
  let r = solve_sched sched ~now:1. in
  Alcotest.(check (list (pair int int)))
    "placed on its data" [ (0, 1) ] r.Firmament.Scheduler.started

let test_quincy_refresh_wait_cost_bucketing () =
  (* Wait-cost aging is quantized to whole seconds: refreshes within the
     same bucket must not touch arc costs at all (no churn into the
     incremental solver's warm start), while crossing a bucket boundary
     must reprice the cached unscheduled arc — including across rounds
     that adopted fresh graph copies. *)
  let cluster = mk_cluster ~machines:1 ~slots:1 in
  let sched =
    Firmament.Scheduler.create cluster ~policy:(fun ~drain net st ->
        Firmament.Policy_quincy.make ~drain net st)
  in
  Firmament.Scheduler.submit_job sched (simple_job ~jid:0 ~n:2 ~submit:0. ~duration:100.);
  let _ = solve_sched sched ~now:0. in
  checki "one waits" 1 (Cluster.State.waiting_count cluster);
  let cost_changes () =
    (Flowgraph.Graph.peek_changes (FN.graph (Firmament.Scheduler.network sched)))
      .Flowgraph.Graph.cost_changes
  in
  let c0 = cost_changes () in
  let _ = solve_sched sched ~now:0.4 in
  let _ = solve_sched sched ~now:0.9 in
  checki "no cost churn within a wait bucket" 0 (cost_changes () - c0);
  let c1 = cost_changes () in
  let _ = solve_sched sched ~now:2.5 in
  checkb "bucket crossing reprices the unscheduled arc" true (cost_changes () > c1)

(* {1 Task-arc ownership under churn, every policy} *)

(* Forward arcs from task node [tn] into any unscheduled aggregator. *)
let unscheduled_arc_count net tn =
  let g = FN.graph net in
  let n = ref 0 in
  let it = ref (G.first_out g tn) in
  while !it >= 0 do
    let a = !it in
    (if G.is_forward a then
       match FN.kind_opt net (G.dst g a) with
       | Some (FN.Unscheduled_agg _) -> incr n
       | _ -> ());
    it := G.next_out g a
  done;
  !n

let test_policies_keep_task_arcs_under_churn () =
  (* Submits, finishes, operator preemptions and a machine failure then
     restore, through each policy. After every round the network is
     structurally valid, every live task holds exactly one unscheduled
     arc, and every certified round is feasible and reduced-cost
     optimal. *)
  List.iter
    (fun (name, policy) ->
      let cluster = mk_cluster ~machines:6 ~slots:2 in
      let sched = Firmament.Scheduler.create cluster ~policy in
      let certified = ref 0 in
      Firmament.Scheduler.set_round_observer sched
        (Some
           (fun _ _ ~certified:cg ->
             Option.iter
               (fun cg ->
                 incr certified;
                 checkb (name ^ ": certified copy feasible") true
                   (Flowgraph.Validate.is_feasible cg);
                 checkb (name ^ ": certified copy reduced-cost optimal") true
                   (Flowgraph.Validate.is_reduced_cost_optimal cg))
               cg));
      let submit jid n ~now =
        Firmament.Scheduler.submit_job sched
          (job_of_tasks ~jid ~submit:now
             (List.init n (fun i ->
                  quincy_task ~tid:((jid * 100) + i) ~job:jid ~submit:now ~duration:1000.
                    ~input_mb:300.
                    ~input_machines:[ (jid + i) mod 6; (jid + i) mod 6; (i + 3) mod 6 ])))
      in
      let running () =
        let acc = ref [] in
        Cluster.State.iter_tasks cluster (fun t -> if W.is_running t then acc := t.W.tid :: !acc);
        List.sort compare !acc
      in
      let now = ref 0. in
      let round step =
        now := !now +. 1.5;
        ignore (solve_sched sched ~now:!now);
        let net = Firmament.Scheduler.network sched in
        let label = Printf.sprintf "%s, %s" name step in
        Alcotest.(check (list string)) (label ^ ": structure") [] (FN.validate_structure net);
        checki (label ^ ": one node per live task")
          (Cluster.State.live_task_count cluster)
          (FN.task_count net);
        FN.iter_task_nodes net (fun tid tn ->
            checki
              (Printf.sprintf "%s: task %d unscheduled arcs" label tid)
              1 (unscheduled_arc_count net tn))
      in
      submit 0 8 ~now:0.;
      round "first placement";
      submit 1 6 ~now:!now;
      round "oversubscribed";
      List.iteri
        (fun i tid -> if i < 2 then Firmament.Scheduler.preempt_task sched tid)
        (running ());
      round "after preemptions";
      List.iteri
        (fun i tid -> if i mod 3 = 0 then Firmament.Scheduler.finish_task sched tid ~now:!now)
        (running ());
      round "after finishes";
      Firmament.Scheduler.fail_machine sched 1;
      round "machine failed";
      submit 2 4 ~now:!now;
      round "submit while down";
      Firmament.Scheduler.restore_machine sched 1;
      round "machine restored";
      List.iteri
        (fun i tid -> if i mod 2 = 1 then Firmament.Scheduler.preempt_task sched tid)
        (running ());
      round "second preemptions";
      round "steady";
      checkb (name ^ ": rounds were certified") true (!certified > 0))
    Firmament.Policies.all

(* A job's unscheduled aggregator goes with its last task, so a cluster
   that has run many short jobs keeps no node for each of them. *)
let test_finished_jobs_leave_no_aggregator () =
  let cluster = mk_cluster ~machines:4 ~slots:2 in
  let sched =
    Firmament.Scheduler.create cluster ~policy:(List.assoc "quincy" Firmament.Policies.all)
  in
  let g () = FN.graph (Firmament.Scheduler.network sched) in
  let nodes0 = G.node_count (g ()) in
  for jid = 0 to 99 do
    let now = float_of_int jid in
    Firmament.Scheduler.submit_job sched (simple_job ~jid ~n:1 ~submit:now ~duration:1.);
    let r = solve_sched sched ~now in
    checki "placed" 1 (List.length r.Firmament.Scheduler.started);
    Firmament.Scheduler.finish_task sched (jid * 1000) ~now:(now +. 0.5)
  done;
  ignore (solve_sched sched ~now:100.);
  checki "live nodes back to the start" nodes0 (G.node_count (g ()));
  checkb "no aggregator of a finished job" true
    (FN.unscheduled_node (Firmament.Scheduler.network sched) 99 = None);
  Alcotest.(check (list string)) "structure valid" []
    (FN.validate_structure (Firmament.Scheduler.network sched))

(* {1 Placement flow audit}

   Brute-force audit of the extraction pass: however the single-pass
   tracing attributes tasks, the number of tasks it assigns to a machine
   must equal (strict [extract] on an optimal flow)
   or never exceed ([extract_partial] on a stopped solver's pseudoflow)
   the flow that machine actually forwards to the sink. *)

(* A random Firmament-shaped network: tasks with direct preference arcs,
   a cluster-aggregator fallback and a per-job unscheduled path (so every
   instance is feasible). Returns the net plus (id, node) lists for the
   audit. *)
let random_audit_net seed =
  let rng = Random.State.make [| 0x706c61; seed |] in
  let net = FN.create () in
  let g = FN.graph net in
  let machines = 2 + Random.State.int rng 5 in
  let slots = 1 + Random.State.int rng 3 in
  let agg = FN.ensure_cluster_agg net in
  let mnodes =
    List.init machines (fun mid ->
        let mn = FN.ensure_machine net mid ~slots in
        ignore
          (G.add_arc g ~src:agg ~dst:mn ~cost:(1 + Random.State.int rng 6) ~cap:slots);
        (mid, mn))
  in
  let u = FN.ensure_unscheduled net 0 in
  let tasks = 1 + Random.State.int rng ((machines * slots) + 3) in
  let tnodes =
    List.init tasks (fun tid ->
        let t = FN.add_task net tid in
        FN.ensure_unscheduled_arc net tid ~job:0 ~cost:(30 + Random.State.int rng 10);
        ignore (G.add_arc g ~src:t ~dst:agg ~cost:(5 + Random.State.int rng 10) ~cap:1);
        for _ = 1 to 1 + Random.State.int rng 2 do
          let _, mn = List.nth mnodes (Random.State.int rng machines) in
          ignore (G.add_arc g ~src:t ~dst:mn ~cost:(Random.State.int rng 8) ~cap:1)
        done;
        (tid, t))
  in
  (net, tnodes, mnodes, agg, u)

let flow_audit ~exact net assignments mnodes =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun a ->
      match a.Firmament.Placement.machine with
      | Some mid ->
          Hashtbl.replace counts mid
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts mid))
      | None -> ())
    assignments;
  List.for_all
    (fun a ->
      match a.Firmament.Placement.machine with
      | Some mid -> List.mem_assoc mid mnodes
      | None -> true)
    assignments
  && List.for_all
       (fun (mid, mn) ->
         let f =
           G.flow (FN.graph net) (Option.get (FN.find_arc net mn (FN.sink net)))
         in
         let c = Option.value ~default:0 (Hashtbl.find_opt counts mid) in
         if exact then c = f else c <= f)
       mnodes

let prop_extract_matches_flow_audit =
  QCheck.Test.make
    ~name:"extract / extract_partial placements = machine sink flow" ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let net, tnodes, mnodes, _, _ = random_audit_net seed in
      let st = Mcmf.Ssp.solve (FN.graph net) in
      st.Mcmf.Solver_intf.outcome = Mcmf.Solver_intf.Optimal
      && begin
           let a = Firmament.Placement.extract net in
           List.length a = List.length tnodes
           && flow_audit ~exact:true net a mnodes
           (* On an optimal flow the lenient walk is an exact flow
              decomposition too. *)
           && flow_audit ~exact:true net (Firmament.Placement.extract_partial net) mnodes
         end)

let prop_extract_partial_capacity_valid_on_pseudoflow =
  QCheck.Test.make
    ~name:"extract_partial never exceeds sink flow on a stopped solve" ~count:80
    QCheck.(pair (int_bound 1_000_000) (int_bound 20))
    (fun (seed, polls) ->
      let net, _, mnodes, _, _ = random_audit_net seed in
      let n = ref 0 in
      let stop () =
        incr n;
        !n > polls
      in
      (* Whatever state the early-terminated solver leaves behind,
         placements must stay capacity-valid against the actual flow. *)
      ignore (Mcmf.Ssp.solve ~stop (FN.graph net));
      flow_audit ~exact:false net (Firmament.Placement.extract_partial net) mnodes)

(* {1 Delta extraction under churn} *)

(* The incremental decomposition the scheduler maintains across rounds
   must describe the same flow as a from-scratch extraction of each
   round's certified solution, whatever mutation burst preceded the
   round. Attribution between tasks merging at an aggregator is
   ambiguous, so equality is on the decomposition invariants: tracked
   task set, per-machine counts, unscheduled count. *)
let summarize_assignments asgs =
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
  ( List.sort compare !tids,
    List.sort compare (Hashtbl.fold (fun mm n acc -> (mm, n) :: acc) machines []),
    !unsched )

let prop_delta_extraction_matches_full =
  QCheck.Test.make ~name:"delta extraction = full extraction after churn bursts"
    ~count:30
    QCheck.(pair (int_bound 100_000) (int_bound (List.length all_race_modes - 1)))
    (fun (seed, mode_idx) ->
      let mode = List.nth all_race_modes mode_idx in
      let rng = Random.State.make [| 0xde17a; seed; mode_idx |] in
      let machines = 5 and slots = 2 in
      let cluster = mk_cluster ~machines ~slots in
      let sched =
        Firmament.Scheduler.create
          ~config:{ Firmament.Scheduler.default_config with mode }
          cluster
          ~policy:(fun ~drain net st -> Firmament.Policy_quincy.make ~drain net st)
      in
      let err = ref None in
      Firmament.Scheduler.set_round_observer sched
        (Some
           (fun (r : Firmament.Scheduler.round) _post ~certified ->
             match certified with
             | None -> ()
             | Some cg -> (
                 ignore r;
                 match Firmament.Scheduler.decomposition sched with
                 | None ->
                     if !err = None then
                       err := Some "adopted round left the delta workspace unsynced"
                 | Some delta ->
                     let net = Firmament.Scheduler.network sched in
                     let live = FN.graph net in
                     let full =
                       Fun.protect
                         ~finally:(fun () -> FN.set_graph net live)
                         (fun () ->
                           FN.set_graph net cg;
                           Firmament.Placement.extract net)
                     in
                     if
                       summarize_assignments delta <> summarize_assignments full
                       && !err = None
                     then err := Some "delta and full extraction disagree")));
      let next_jid = ref 0 in
      let now = ref 0. in
      let running () =
        let acc = ref [] in
        Cluster.State.iter_tasks cluster (fun t ->
            if W.is_running t then acc := t.W.tid :: !acc);
        List.sort compare !acc
      in
      let random_event () =
        match Random.State.int rng 6 with
        | 0 | 1 ->
            let jid = !next_jid in
            incr next_jid;
            let n = 1 + Random.State.int rng 3 in
            Firmament.Scheduler.submit_job sched
              (job_of_tasks ~jid ~submit:!now
                 (List.init n (fun i ->
                      quincy_task ~tid:((jid * 100) + i) ~job:jid ~submit:!now
                        ~duration:1000. ~input_mb:90.
                        ~input_machines:[ Random.State.int rng machines ])))
        | 2 -> (
            match running () with
            | [] -> ()
            | l ->
                Firmament.Scheduler.finish_task sched
                  (List.nth l (Random.State.int rng (List.length l)))
                  ~now:!now)
        | 3 -> (
            match running () with
            | [] -> ()
            | l ->
                Firmament.Scheduler.preempt_task sched
                  (List.nth l (Random.State.int rng (List.length l))))
        | 4 ->
            let m = Random.State.int rng machines in
            if Cluster.State.machine_is_live cluster m then
              Firmament.Scheduler.fail_machine sched m
        | _ ->
            let m = Random.State.int rng machines in
            if not (Cluster.State.machine_is_live cluster m) then
              Firmament.Scheduler.restore_machine sched m
      in
      (* Always at least one task so the first round has work. *)
      Firmament.Scheduler.submit_job sched
        (job_of_tasks ~jid:9999 ~submit:0.
           [ quincy_task ~tid:999900 ~job:9999 ~submit:0. ~duration:1000.
               ~input_mb:90. ~input_machines:[ 0 ] ]);
      for _round = 0 to 7 do
        let burst = Random.State.int rng 4 in
        for _i = 1 to burst do
          random_event ()
        done;
        ignore (Firmament.Scheduler.schedule sched ~now:!now);
        now := !now +. 1.
      done;
      match !err with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* The split histograms make the winner's latency and the orchestration
   wait (copies, a cancelled hedge's join) separately observable. *)
let test_solve_win_wait_split () =
  let m = Telemetry.Metrics.global () in
  let id name =
    match Telemetry.Metrics.find m name with
    | Some id -> id
    | None -> Alcotest.failf "histogram %s not registered" name
  in
  let win = id "sched_phase_solve_win_ns" in
  let wait = id "sched_phase_solve_wait_ns" in
  let c0_win = Telemetry.Metrics.hist_count m win in
  let c0_wait = Telemetry.Metrics.hist_count m wait in
  let cluster = mk_cluster ~machines:4 ~slots:2 in
  let sched =
    Firmament.Scheduler.create
      ~config:
        {
          Firmament.Scheduler.default_config with
          (* This test asserts relaxation ran; [Race]'s repair path
             would resolve quiet rounds without running either solver. *)
          mode = Mcmf.Race.Race_only;
        }
      cluster
      ~policy:(fun ~drain net st -> Firmament.Policy_quincy.make ~drain net st)
  in
  Firmament.Scheduler.submit_job sched (simple_job ~jid:0 ~n:6 ~submit:0. ~duration:50.);
  let rounds = 3 in
  for i = 1 to rounds do
    ignore (Firmament.Scheduler.schedule sched ~now:(float_of_int i))
  done;
  checki "every round observes a win split" rounds
    (Telemetry.Metrics.hist_count m win - c0_win);
  checki "every round observes a wait split" rounds
    (Telemetry.Metrics.hist_count m wait - c0_wait);
  (* Relaxation runs every race round; cost scaling only when hedged. *)
  let r = Firmament.Scheduler.schedule sched ~now:10. in
  checkb "relaxation stats present" true
    (r.Firmament.Scheduler.relaxation_stats <> None)

(* {1 Snapshot / restore (crash recovery)} *)

module Snapshot = Firmament.Snapshot

let quincy_policy ~drain net st = Firmament.Policy_quincy.make ~drain net st

(* The scheduler's assignment is its cluster's running set. *)
let sorted_assignments sched =
  let acc = ref [] in
  Cluster.State.iter_tasks (Firmament.Scheduler.cluster sched) (fun t ->
      Option.iter (fun m -> acc := (t.W.tid, m) :: !acc) (W.machine_of t));
  List.sort compare !acc

let snapshot_round_trip ~name ~policy =
  let l what = Printf.sprintf "%s: %s" name what in
  let cluster = mk_cluster ~machines:4 ~slots:2 in
  let sched = Firmament.Scheduler.create cluster ~policy in
  Firmament.Scheduler.submit_job sched
    (job_of_tasks ~jid:0 ~submit:0.
       (List.init 6 (fun i ->
            quincy_task ~tid:i ~job:0 ~submit:0. ~duration:100. ~input_mb:200.
              ~input_machines:[ i mod 4; (i + 1) mod 4 ])));
  let r1 = solve_sched sched ~now:0. in
  checki (l "six running") 6 (List.length r1.Firmament.Scheduler.started);
  (* History the base image must carry: completions, a dead machine, and
     fresh waiting work. *)
  Firmament.Scheduler.finish_task sched 0 ~now:0.5;
  Firmament.Scheduler.finish_task sched 1 ~now:0.5;
  Firmament.Scheduler.fail_machine sched 3;
  Firmament.Scheduler.submit_job sched
    (job_of_tasks ~jid:1 ~submit:1.
       [ quincy_task ~tid:100 ~job:1 ~submit:1. ~duration:100. ~input_mb:200.
           ~input_machines:[ 0; 1 ] ]);
  let _r2 = solve_sched sched ~now:1. in
  let base = Snapshot.emit_base sched ~now:2. in
  let { Snapshot.scheduler = restored; now } = Snapshot.restore_string ~policy base in
  Alcotest.(check (float 0.)) (l "clock restored") 2. now;
  Alcotest.(check (list (pair int int)))
    (l "assignments survive the crash") (sorted_assignments sched)
    (sorted_assignments restored);
  let rc = Firmament.Scheduler.cluster restored in
  checki (l "waiting set restored")
    (Cluster.State.waiting_count cluster)
    (Cluster.State.waiting_count rc);
  checki (l "live tasks restored")
    (Cluster.State.live_task_count cluster)
    (Cluster.State.live_task_count rc);
  checkb (l "dead machine stays dead") false (Cluster.State.machine_is_live rc 3);
  checkb (l "restored network structurally valid") true
    (FN.validate_structure (Firmament.Scheduler.network restored) = []);
  (* The restored structure and flow are byte-identical to the live
     ones. Potentials may be renormalized by warm-start certification
     (both duals certify the same optimum), so strip [c pi] lines. *)
  let strip_pi dump =
    String.split_on_char '\n' dump
    |> List.filter (fun l -> not (String.length l > 4 && String.sub l 0 4 = "c pi"))
    |> String.concat "\n"
  in
  Alcotest.(check string) (l "graph structure and flow round-trip")
    (strip_pi
       (Flowgraph.Dimacs.emit_state (FN.graph (Firmament.Scheduler.network sched))))
    (strip_pi
       (Flowgraph.Dimacs.emit_state (FN.graph (Firmament.Scheduler.network restored))));
  (* Same next round on both: the restored scheduler must behave as the
     original — clean optimal rounds reaching the same solution cost. *)
  List.iter
    (fun s ->
      Firmament.Scheduler.submit_job s
        (job_of_tasks ~jid:2 ~submit:3.
           [ quincy_task ~tid:200 ~job:2 ~submit:3. ~duration:100. ~input_mb:200.
               ~input_machines:[ 2; 2 ] ]))
    [ sched; restored ];
  let ra = solve_sched sched ~now:3. in
  let rb = solve_sched restored ~now:3. in
  Alcotest.check degraded_t (l "restored round clean") `None rb.Firmament.Scheduler.degraded;
  checki (l "same starts") (List.length ra.Firmament.Scheduler.started)
    (List.length rb.Firmament.Scheduler.started);
  checki (l "same optimal cost")
    (G.total_cost (FN.graph (Firmament.Scheduler.network sched)))
    (G.total_cost (FN.graph (Firmament.Scheduler.network restored)))

(* The image lists live jobs with their live tasks only: a job whose
   tasks have all finished has no [job] line, a job with one task left
   lists that task, and the restored cluster matches. *)
let test_snapshot_drops_finished_jobs () =
  let cluster = mk_cluster ~machines:2 ~slots:2 in
  let sched = Firmament.Scheduler.create cluster ~policy:quincy_policy in
  Firmament.Scheduler.submit_job sched (simple_job ~jid:3 ~n:2 ~submit:0. ~duration:10.);
  Firmament.Scheduler.submit_job sched (simple_job ~jid:4 ~n:2 ~submit:0. ~duration:10.);
  checki "all four run" 4 (List.length (solve_sched sched ~now:0.).Firmament.Scheduler.started);
  List.iter (fun tid -> Firmament.Scheduler.finish_task sched tid ~now:1.) [ 3000; 3001; 4000 ];
  ignore (solve_sched sched ~now:1.);
  let base = Snapshot.emit_base sched ~now:2. in
  let lines = String.split_on_char '\n' base in
  let starts p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
  checkb "finished job has no job line" false (List.exists (starts "job 3 ") lines);
  checkb "live job keeps its line" true (List.exists (starts "job 4 ") lines);
  Alcotest.(check (list int)) "only the live task is listed" [ 4001 ]
    (List.filter_map
       (fun l ->
         match String.split_on_char ' ' l with
         | "task" :: tid :: _ -> Some (int_of_string tid)
         | _ -> None)
       lines);
  let { Snapshot.scheduler = restored; _ } = Snapshot.restore_string ~policy:quincy_policy base in
  let rc = Firmament.Scheduler.cluster restored in
  checkb "restored cluster has no finished job" true (Cluster.State.job_opt rc 3 = None);
  checkb "restored cluster keeps the live job" true (Cluster.State.job_opt rc 4 <> None);
  checki "one live task restored" 1 (Cluster.State.live_task_count rc)

(* Every policy restores to the same scheduler: the graph and the cluster
   are its whole state. *)
let test_snapshot_round_trip () =
  List.iter (fun (name, policy) -> snapshot_round_trip ~name ~policy) Firmament.Policies.all

(* Under the network-aware policy a request aggregator lives while a task
   has an arc into it. A task of a restored waiting task's bucket that
   starts and finishes after the restore must not take that aggregator,
   and the waiting task's arc into it, away. *)
let test_snapshot_network_aware_keeps_bucket () =
  let cluster = mk_cluster ~machines:1 ~slots:1 in
  let policy = List.assoc "network-aware" Firmament.Policies.all in
  let sched = Firmament.Scheduler.create cluster ~policy in
  Firmament.Scheduler.submit_job sched (simple_job ~jid:0 ~n:3 ~submit:0. ~duration:100.);
  ignore (solve_sched sched ~now:0.);
  let { Snapshot.scheduler = restored; now } =
    Snapshot.restore_string ~policy (Snapshot.emit_base sched ~now:1.)
  in
  let net = Firmament.Scheduler.network restored in
  let rc = Firmament.Scheduler.cluster restored in
  checki "two restored waiting tasks" 2 (Cluster.State.waiting_count rc);
  (* Free the slot, then start and finish a new task of the same bucket. *)
  List.iter
    (fun (tid, _) -> Firmament.Scheduler.finish_task restored tid ~now)
    (sorted_assignments restored);
  Firmament.Scheduler.submit_job restored (simple_job ~jid:1 ~n:1 ~submit:now ~duration:1.);
  Firmament.Scheduler.replay_placement restored ~now (`Start (1000, 0));
  checkb "new task started" true (sorted_assignments restored = [ (1000, 0) ]);
  Firmament.Scheduler.finish_task restored 1000 ~now:(now +. 1.);
  let r = solve_sched restored ~now:(now +. 2.) in
  checki "a restored waiting task placed" 1 (List.length r.Firmament.Scheduler.started);
  let ra = ref None in
  FN.iter_request_aggs net (fun _ n -> ra := Some n);
  match (Cluster.State.waiting_tasks rc, !ra) with
  | [ t ], Some ra ->
      let tn = Option.get (FN.task_node net t.W.tid) in
      checkb "waiting task keeps its arc into its request aggregator" true
        (FN.find_arc net tn ra <> None)
  | l, _ ->
      Alcotest.failf "expected one waiting task and its aggregator, got %d waiting"
        (List.length l)

let test_snapshot_restore_reprices_unscheduled_arc () =
  (* Restore rederives each waiting task's unscheduled-arc handle from the
     graph dump, so the first refresh re-prices that very arc: no second
     arc, no lookup by scan. *)
  let path = Filename.temp_file "firmament" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let cluster = mk_cluster ~machines:1 ~slots:1 in
      let sched = Firmament.Scheduler.create cluster ~policy:quincy_policy in
      Firmament.Scheduler.submit_job sched (simple_job ~jid:0 ~n:3 ~submit:0. ~duration:100.);
      ignore (solve_sched sched ~now:0.);
      Snapshot.Writer.close (Snapshot.Writer.to_file ~path sched ~now:0.5);
      let { Snapshot.scheduler = restored; now } =
        Snapshot.restore_file ~policy:quincy_policy path
      in
      let net = Firmament.Scheduler.network restored in
      let waiting =
        List.map
          (fun t -> t.W.tid)
          (Cluster.State.waiting_tasks (Firmament.Scheduler.cluster restored))
      in
      checki "two wait" 2 (List.length waiting);
      let tid = List.hd waiting in
      let tn = Option.get (FN.task_node net tid) in
      let u = Option.get (FN.unscheduled_node net 0) in
      let a = Option.get (FN.unscheduled_arc net tid) in
      checkb "handle rederived on restore" true (FN.find_arc net tn u = Some a);
      let out_degree () =
        let n = ref 0 in
        G.iter_out (FN.graph net) tn (fun a -> if G.is_forward a then incr n);
        !n
      in
      let degree = out_degree () in
      let c0 = G.cost (FN.graph net) a in
      ignore (solve_sched restored ~now:(now +. 10.));
      checkb "first refresh re-priced the kept arc" true (G.cost (FN.graph net) a > c0);
      checkb "same handle" true (FN.unscheduled_arc net tid = Some a);
      checki "no arc added" degree (out_degree ());
      Alcotest.(check (list string)) "structure valid" [] (FN.validate_structure net))

let test_snapshot_journal_replay () =
  let path = Filename.temp_file "firmament" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let cluster = mk_cluster ~machines:3 ~slots:2 in
      let sched = Firmament.Scheduler.create cluster ~policy:quincy_policy in
      Firmament.Scheduler.submit_job sched
        (simple_job ~jid:0 ~n:4 ~submit:0. ~duration:100.);
      let r1 = solve_sched sched ~now:0. in
      checki "four running" 4 (List.length r1.Firmament.Scheduler.started);
      let w = Snapshot.Writer.to_file ~path sched ~now:0.5 in
      (* Post-base history lives only in the journal. *)
      let j1 = simple_job ~jid:1 ~n:2 ~submit:1. ~duration:100. in
      Firmament.Scheduler.submit_job sched j1;
      Snapshot.Writer.event w (Snapshot.Job j1);
      let victim, _ = List.hd r1.Firmament.Scheduler.started in
      Firmament.Scheduler.finish_task sched victim ~now:1.2;
      Snapshot.Writer.event w (Snapshot.Finish (victim, 1.2));
      Firmament.Scheduler.fail_machine sched 2;
      Snapshot.Writer.event w (Snapshot.Fail_machine 2);
      let r2 = solve_sched sched ~now:1.5 in
      Snapshot.Writer.round w r2 ~now:1.5;
      Snapshot.Writer.close w;
      let { Snapshot.scheduler = restored; now } =
        Snapshot.restore_file ~policy:quincy_policy path
      in
      checkb "journal advanced the clock" true (now >= 1.2);
      Alcotest.(check (list (pair int int)))
        "journal replay reconverges on the live assignment"
        (sorted_assignments sched) (sorted_assignments restored);
      checki "waiting set matches"
        (Cluster.State.waiting_count cluster)
        (Cluster.State.waiting_count (Firmament.Scheduler.cluster restored));
      checkb "journaled machine failure replayed" false
        (Cluster.State.machine_is_live (Firmament.Scheduler.cluster restored) 2))

(* {1 Repair path under steady churn} *)

(* The paper's steady-state round at 1,000 machines: a cluster settled at
   50% under Quincy, then rounds in which 1% of the running tasks finish
   and one job of the same size arrives (~60 events). Every such round
   must be resolved by the incremental repair, not the full race, and the
   certificate handed to the round observer must pass the validators in
   cost units even though the canonical potentials are in cost scaling's
   scaled units. *)
let test_one_percent_churn_takes_repair_path () =
  let base = Cluster.Trace.default_params ~machines:1000 () in
  let trace =
    Cluster.Trace.generate { base with target_utilization = 0.5; horizon_s = 0.; seed = 11 }
  in
  let cluster = Cluster.State.create trace.Cluster.Trace.topology in
  let sched = Firmament.Scheduler.create cluster ~policy:quincy_policy in
  let pending = ref 0 in
  List.iter
    (fun job ->
      Firmament.Scheduler.submit_job sched (W.clone_job job);
      pending := !pending + Array.length job.W.tasks;
      if !pending >= 500 then begin
        ignore (solve_sched sched ~now:0.);
        pending := 0
      end)
    trace.Cluster.Trace.initial_jobs;
  ignore (solve_sched sched ~now:0.);
  let rng = Random.State.make [| 11 |] in
  let next_tid = ref 10_000_000 in
  (* Finishes 1% of the running tasks and submits [arrivals] (default: as
     many) as one job. *)
  let churn_round ?arrivals i =
    let now = 100. +. float_of_int i in
    let running = ref [] in
    Cluster.State.iter_tasks cluster (fun t -> if W.is_running t then running := t.W.tid :: !running);
    let running = Array.of_list !running in
    let n = max 1 (Array.length running / 100) in
    for k = 0 to n - 1 do
      let j = k + Random.State.int rng (Array.length running - k) in
      let tid = running.(j) in
      running.(j) <- running.(k);
      Firmament.Scheduler.finish_task sched tid ~now
    done;
    let jid = 1_000_000 + i in
    Firmament.Scheduler.submit_job sched
      (job_of_tasks ~jid ~submit:now
         (List.init (Option.value arrivals ~default:n) (fun _ ->
              incr next_tid;
              quincy_task ~tid:!next_tid ~job:jid ~submit:now ~duration:120. ~input_mb:500.
                ~input_machines:(List.init 3 (fun _ -> Random.State.int rng 1000)))));
    solve_sched sched ~now
  in
  for i = 1 to 3 do
    ignore (churn_round i)
  done;
  let certified = ref 0 in
  Firmament.Scheduler.set_round_observer sched
    (Some
       (fun _ _ ~certified:c ->
         match c with
         | Some g ->
             incr certified;
             checkb "certificate feasible" true (Flowgraph.Validate.is_feasible g);
             checkb "certificate reduced-cost optimal" true
               (Flowgraph.Validate.is_reduced_cost_optimal g)
         | None -> ()));
  for i = 4 to 8 do
    let r = churn_round i in
    Alcotest.check degraded_t "clean round" `None r.Firmament.Scheduler.degraded;
    checkb (Printf.sprintf "round %d repaired" i) true
      (r.Firmament.Scheduler.winner = Mcmf.Race.Repair)
  done;
  (* A burst the size of a settle chunk: 800 arrivals, hundreds of excess
     nodes. Its size is no reason to skip repair; only the kernel's work
     cap could send it to the full race, and it stays well inside it. *)
  let r = churn_round ~arrivals:800 9 in
  Alcotest.check degraded_t "clean burst round" `None r.Firmament.Scheduler.degraded;
  checkb "800-arrival burst repaired" true (r.Firmament.Scheduler.winner = Mcmf.Race.Repair);
  checki "every repaired round certified" 6 !certified

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "firmament"
    [
      ( "flow-network",
        [
          Alcotest.test_case "task lifecycle" `Quick test_fn_task_lifecycle;
          Alcotest.test_case "duplicate task rejected" `Quick test_fn_duplicate_task_rejected;
          Alcotest.test_case "machines and aggregators" `Quick test_fn_machine_and_aggregators;
          Alcotest.test_case "unscheduled sink-arc cache" `Quick test_fn_unscheduled_arc_cache;
          Alcotest.test_case "task log" `Quick test_fn_task_log;
          Alcotest.test_case "drain removal keeps balance" `Quick test_fn_drain_removal_keeps_balance;
          Alcotest.test_case "reroute direct moves flow" `Quick test_reroute_direct_moves_flow;
          Alcotest.test_case "reroute fails when unrouted" `Quick
            test_reroute_direct_unrouted_fails;
          Alcotest.test_case "prune keeps selected arcs" `Quick test_prune_task_arcs_keeps_selected;
          Alcotest.test_case "restore rederives unscheduled arcs" `Quick
            test_fn_restore_unscheduled_arcs;
          Alcotest.test_case "plain removal breaks balance" `Quick
            test_fn_plain_removal_breaks_balance;
        ] );
      ( "placement",
        [
          Alcotest.test_case "partial extraction" `Quick test_extract_partial_reads_incomplete_flow;
          Alcotest.test_case "structure validation" `Quick test_validate_structure_detects_drift;
          Alcotest.test_case "simple chain" `Quick test_extract_simple_chain;
          Alcotest.test_case "unscheduled task" `Quick test_extract_unscheduled_task;
          Alcotest.test_case "multi-hop aggregators" `Quick test_extract_multi_hop_aggregators;
          Alcotest.test_case "rejects infeasible flow" `Quick test_extract_rejects_infeasible;
          Alcotest.test_case "partial walk backtracks and refunds" `Quick
            test_extract_partial_backtracks_and_refunds;
          Alcotest.test_case "partial walk claims machine sink budget" `Quick
            test_extract_partial_machine_sink_budget;
          Alcotest.test_case "partial walk never oversubscribes" `Quick
            test_extract_partial_never_oversubscribes;
        ] );
      ( "placement-audit",
        qcheck
          [
            prop_extract_matches_flow_audit;
            prop_extract_partial_capacity_valid_on_pseudoflow;
          ] );
      ( "scheduler",
        [
          Alcotest.test_case "load spreading end to end" `Quick test_load_spread_end_to_end;
          Alcotest.test_case "oversubscription leaves tasks waiting" `Quick
            test_load_spread_oversubscription_waits;
          Alcotest.test_case "quincy prefers local data" `Quick test_quincy_prefers_local_data;
          Alcotest.test_case "quincy falls back when preferred full" `Quick
            test_quincy_falls_back_when_preferred_full;
          Alcotest.test_case "quincy service priority preempts" `Quick
            test_quincy_service_priority_preempts;
          Alcotest.test_case "network-aware avoids loaded machine" `Quick
            test_network_aware_avoids_loaded_machine;
          Alcotest.test_case "network-aware balances bandwidth" `Quick
            test_network_aware_balances_bandwidth;
          Alcotest.test_case "machine failure reschedules" `Quick test_machine_failure_reschedules;
          Alcotest.test_case "quincy mode matches firmament cost" `Quick
            test_scheduler_quincy_mode_matches_firmament_placements;
          Alcotest.test_case "parallel race mode end to end" `Quick
            test_scheduler_parallel_race_mode;
          Alcotest.test_case "quincy threshold controls arcs" `Quick
            test_quincy_threshold_controls_arc_count;
          Alcotest.test_case "network-aware bucket rounding" `Quick
            test_network_aware_bucket_rounding;
        ] );
      ( "degraded-rounds",
        [
          Alcotest.test_case "infeasible network fails gracefully" `Quick
            test_scheduler_infeasible_round_fails_gracefully;
          Alcotest.test_case "stopped round degrades to partial" `Quick
            test_scheduler_stopped_round_degrades_to_partial;
          Alcotest.test_case "mid-solve stop stays capacity-valid" `Quick
            test_scheduler_midsolve_stop_capacity_valid;
          Alcotest.test_case "config deadline" `Quick test_scheduler_config_deadline;
          Alcotest.test_case "partial round attributes phases" `Quick
            test_scheduler_phase_attribution;
        ] );
      ( "policy-arcs",
        [
          Alcotest.test_case "every policy keeps one unscheduled arc per task" `Quick
            test_policies_keep_task_arcs_under_churn;
          Alcotest.test_case "finished jobs leave no aggregator" `Quick
            test_finished_jobs_leave_no_aggregator;
        ] );
      ( "quincy-policy",
        [
          Alcotest.test_case "machine restore reinstalls preferences" `Quick
            test_quincy_machine_restored_reinstalls_preferences;
          Alcotest.test_case "refresh quantizes wait-cost churn" `Quick
            test_quincy_refresh_wait_cost_bucketing;
        ] );
      ( "delta-extraction",
        Alcotest.test_case "solve win/wait sub-phase split" `Quick
          test_solve_win_wait_split
        :: qcheck [ prop_delta_extraction_matches_full ] );
      ( "snapshot",
        [
          Alcotest.test_case "base image round-trips full state" `Quick
            test_snapshot_round_trip;
          Alcotest.test_case "journal replay reconverges" `Quick
            test_snapshot_journal_replay;
          Alcotest.test_case "finished jobs leave the image" `Quick
            test_snapshot_drops_finished_jobs;
          Alcotest.test_case "restore re-prices the kept unscheduled arc" `Quick
            test_snapshot_restore_reprices_unscheduled_arc;
          Alcotest.test_case "network-aware restore keeps a waiting task's bucket" `Quick
            test_snapshot_network_aware_keeps_bucket;
        ] );
      ( "repair-path",
        [
          Alcotest.test_case "1% churn at 1k machines repairs, certified" `Quick
            test_one_percent_churn_takes_repair_path;
        ] );
    ]
