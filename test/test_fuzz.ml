(* Tests for the differential churn-fuzzing subsystem itself: the harness
   passes on healthy code, catches an injected solver bug, the shrinker
   minimizes, and repro artifacts round-trip and replay deterministically. *)

module Churn = Dcsim.Churn
module Harness = Fuzz.Harness
module Shrink = Fuzz.Shrink
module Artifact = Fuzz.Artifact

let check = Alcotest.check
let checki msg = check Alcotest.int msg
let checkb msg = check Alcotest.bool msg

(* {1 Churn traces} *)

let test_churn_roundtrip () =
  for seed = 0 to 9 do
    let trace = Churn.generate ~seed ~machines:6 ~length:80 in
    checki "length" 80 (List.length trace);
    let trace' = Churn.of_lines (Churn.to_lines trace) in
    checkb "serialization round-trips" true (trace = trace')
  done;
  List.iter
    (fun l ->
      checkb (l ^ " is not an event") true
        (try ignore (Churn.of_line l); false with Failure _ -> true))
    [ "begin"; "commit" ]

let test_churn_deterministic () =
  let a = Churn.generate ~seed:42 ~machines:6 ~length:50 in
  let b = Churn.generate ~seed:42 ~machines:6 ~length:50 in
  let c = Churn.generate ~seed:43 ~machines:6 ~length:50 in
  checkb "same seed, same trace" true (a = b);
  checkb "different seed, different trace" false (a = c)

(* {1 Harness} *)

let repairs () =
  let m = Telemetry.Metrics.global () in
  match Telemetry.Metrics.find m "mcmf_race_wins_repair_total" with
  | Some id -> Telemetry.Metrics.value m id
  | None -> 0

let test_harness_clean_seeds () =
  (* Healthy code under every race mode: no check may fire. In [Race]
     every round whose previous solution certified tries the O(changes)
     repair first, and every other mode runs its solver(s) on every round,
     so the checks gate the repair kernel as well as the full solvers. *)
  let repairs0 = repairs () in
  for seed = 0 to 4 do
    let trace = Churn.generate ~seed ~machines:6 ~length:40 in
    match Harness.run Harness.default_config trace with
    | Ok () -> ()
    | Error f ->
        Alcotest.failf "seed %d: %a" seed Harness.pp_failure f
  done;
  checkb "rounds took the repair path" true (repairs () > repairs0)

let quincy_cs_only =
  {
    Harness.default_config with
    Harness.modes = [ Mcmf.Race.Cost_scaling_scratch_only ];
  }

let find_injected_failure () =
  (* The ε-ladder truncation makes cost scaling stop ε-optimal while
     claiming Optimal; the harness must catch it on some small seed.
     Quincy's mode never repairs, so every round runs the injected
     solver. *)
  let cfg = { quincy_cs_only with Harness.inject_eps = 4096 } in
  let rec go seed =
    if seed > 9 then Alcotest.fail "injected eps-floor bug never caught"
    else
      let trace = Churn.generate ~seed ~machines:6 ~length:40 in
      match Harness.run cfg trace with
      | Error f -> (cfg, trace, f)
      | Ok () -> go (seed + 1)
  in
  go 0

let test_injected_bug_caught () =
  let _, _, f = find_injected_failure () in
  checkb "optimality-side check fired" true
    (List.mem f.Harness.f_check [ "optimality"; "oracle-cost" ])

let test_injected_bug_shrinks_and_replays () =
  let cfg, trace, f = find_injected_failure () in
  let fails events =
    match Harness.run cfg events with
    | Error f' -> f'.Harness.f_check = f.Harness.f_check
    | Ok () -> false
  in
  let shrunk = Shrink.minimize ~fails ~simplify:Shrink.simplify_event trace in
  checkb "shrunk to at most 10 events" true (List.length shrunk <= 10);
  checkb "shrunk trace still fails" true (fails shrunk);
  (* Deterministic replay: the single-solver mode must reproduce the same
     failure, twice, from the serialized artifact. *)
  let f' =
    match Harness.run cfg shrunk with
    | Error f' -> f'
    | Ok () -> Alcotest.fail "shrunk trace did not fail on re-run"
  in
  let artifact = Artifact.of_failure cfg f' shrunk in
  let artifact' = Artifact.of_string (Artifact.to_string artifact) in
  checkb "artifact round-trips" true
    (artifact'.Artifact.trace = shrunk
    && artifact'.Artifact.check = f'.Harness.f_check
    && artifact'.Artifact.inject_eps = 4096);
  let replay () = Harness.run (Artifact.config artifact') artifact'.Artifact.trace in
  match (replay (), replay ()) with
  | Error a, Error b ->
      check Alcotest.string "same check" a.Harness.f_check b.Harness.f_check;
      checki "same round" a.Harness.f_round b.Harness.f_round;
      checki "same event" a.Harness.f_event b.Harness.f_event
  | _ -> Alcotest.fail "replay did not reproduce the failure"

let test_forced_incremental_clean () =
  (* The repair path needs no forcing: on the default config every round
     whose previous solution certified tries the O(changes) repair first,
     whatever the size of its change set. Seeds 5..9 extend the clean
     seeds above, and each one on its own must take that path. *)
  for seed = 5 to 9 do
    let repairs0 = repairs () in
    let trace = Churn.generate ~seed ~machines:6 ~length:40 in
    (match Harness.run Harness.default_config trace with
    | Ok () -> ()
    | Error f -> Alcotest.failf "seed %d: %a" seed Harness.pp_failure f);
    checkb (Printf.sprintf "seed %d took the repair path" seed) true
      (repairs () > repairs0)
  done

let test_forced_incremental_canary_still_fails () =
  (* The canary must fire under the warm-started solver too: incremental
     cost scaling never repairs, so every round runs it, warm, with the
     ε floor injected. *)
  let cfg =
    {
      Harness.default_config with
      Harness.modes = [ Mcmf.Race.Incremental_cost_scaling_only ];
      Harness.inject_eps = 4096;
    }
  in
  let rec go seed =
    if seed > 9 then Alcotest.fail "injected bug not caught under incremental cost scaling"
    else
      let trace = Churn.generate ~seed ~machines:6 ~length:40 in
      match Harness.run cfg trace with
      | Error f ->
          checkb "optimality-side check fired" true
            (List.mem f.Harness.f_check [ "optimality"; "oracle-cost" ])
      | Ok () -> go (seed + 1)
  in
  go 0

let test_injection_scoped () =
  (* The injection knob must be restored after a run, even a failing one. *)
  let cfg = { quincy_cs_only with Harness.inject_eps = 4096 } in
  let trace = Churn.generate ~seed:0 ~machines:6 ~length:40 in
  ignore (Harness.run cfg trace);
  checki "debug_eps_floor restored" 1 !Mcmf.Cost_scaling.debug_eps_floor

(* {1 Crash recovery} *)

let test_crash_recovery_clean_seeds () =
  (* Kill/restore at seed-chosen points (round boundaries and mid-round)
     must leave every check silent; at least one kill is forced per run. *)
  for seed = 0 to 4 do
    let trace = Churn.generate ~seed ~machines:6 ~length:40 in
    match Harness.run_crash_recovery Harness.default_config ~seed trace with
    | Ok r ->
        checkb "at least one kill" true (r.Harness.cr_kills >= 1);
        checkb "post-restore rounds committed" true (r.Harness.cr_rounds >= 1)
    | Error f -> Alcotest.failf "crash-recovery seed %d: %a" seed Harness.pp_failure f
  done

let test_crash_recovery_catches_injected_bug () =
  (* The restored scheduler runs the same oracle battery: the ε-floor
     canary must still be caught when every adopted solve is corrupted. *)
  let cfg = { quincy_cs_only with Harness.inject_eps = 4096 } in
  let rec go seed =
    if seed > 9 then Alcotest.fail "injected bug not caught under crash recovery"
    else
      let trace = Churn.generate ~seed ~machines:6 ~length:40 in
      match Harness.run_crash_recovery cfg ~seed trace with
      | Error f ->
          checkb "optimality-side check fired" true
            (List.mem f.Harness.f_check [ "optimality"; "oracle-cost" ])
      | Ok _ -> go (seed + 1)
  in
  go 0

(* {1 Shrinker} *)

let test_shrink_minimizes () =
  (* Failure = contains both 3 and 7: the minimum is exactly [3; 7]. *)
  let fails l = List.mem 3 l && List.mem 7 l in
  let input = List.init 64 (fun i -> i) in
  let out = Shrink.minimize ~fails input in
  checkb "still fails" true (fails out);
  check Alcotest.(list int) "minimal" [ 3; 7 ] out

let test_shrink_one_minimal () =
  (* On an interval predicate the result must be 1-minimal: removing any
     single element breaks it. *)
  let fails l = List.length l >= 5 && List.for_all (fun x -> x mod 2 = 0) l in
  let input = List.init 40 (fun i -> i * 2) in
  let out = Shrink.minimize ~fails input in
  checkb "still fails" true (fails out);
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) out in
      checkb "1-minimal" false (fails without))
    out

let test_shrink_simplify () =
  let fails l = List.exists (fun x -> x >= 10) l in
  let simplify x = if x > 10 then [ 10; x / 2 ] else [] in
  let out = Shrink.minimize ~fails ~simplify [ 1; 2; 500; 4 ] in
  check Alcotest.(list int) "shrunk and simplified" [ 10 ] out

let test_shrink_event_simplifier () =
  checkb "round polls drop" true
    (Shrink.simplify_event (Churn.Round { polls = 9 })
    = [ Churn.Round { polls = 0 } ]);
  checkb "submit shrinks to one task" true
    (match
       Shrink.simplify_event
         (Churn.Submit { jid = 1; tasks = 5; duration = 3.0; locality = 2 })
     with
    | [ Churn.Submit { tasks = 1; _ } ] -> true
    | _ -> false);
  checkb "singleton submit is already minimal" true
    (Shrink.simplify_event
       (Churn.Submit { jid = 1; tasks = 1; duration = 3.0; locality = 2 })
    = [])

(* {1 Artifacts} *)

let test_artifact_rejects_garbage () =
  let bad s = try ignore (Artifact.of_string s); false with Failure _ -> true in
  checkb "empty" true (bad "");
  checkb "bad header" true (bad "not-an-artifact\n");
  checkb "truncated trace" true
    (bad "firmament-fuzz-artifact v1\nmode quincy-cs\nmachines 6\nslots 2\ninject-eps 1\ncheck x\ndetail y\ntrace 3\nround 0\n")

let () =
  Alcotest.run "fuzz"
    [
      ( "churn",
        [
          Alcotest.test_case "trace serialization round-trips" `Quick
            test_churn_roundtrip;
          Alcotest.test_case "generation is seed-deterministic" `Quick
            test_churn_deterministic;
        ] );
      ( "harness",
        [
          Alcotest.test_case "clean seeds pass all modes" `Slow
            test_harness_clean_seeds;
          Alcotest.test_case "injected eps-floor bug is caught" `Quick
            test_injected_bug_caught;
          Alcotest.test_case "injected bug shrinks to <=10 events and replays"
            `Slow test_injected_bug_shrinks_and_replays;
          Alcotest.test_case "injection is scoped to the run" `Quick
            test_injection_scoped;
          Alcotest.test_case "forced incremental path stays clean" `Slow
            test_forced_incremental_clean;
          Alcotest.test_case "canary still caught under forced incremental" `Quick
            test_forced_incremental_canary_still_fails;
          Alcotest.test_case "kill/restore seeds stay clean" `Slow
            test_crash_recovery_clean_seeds;
          Alcotest.test_case "canary still caught across kill/restore" `Quick
            test_crash_recovery_catches_injected_bug;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "ddmin finds the 2-event core" `Quick
            test_shrink_minimizes;
          Alcotest.test_case "result is 1-minimal" `Quick test_shrink_one_minimal;
          Alcotest.test_case "per-event simplification" `Quick
            test_shrink_simplify;
          Alcotest.test_case "churn event simplifier" `Quick
            test_shrink_event_simplifier;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "rejects garbage" `Quick
            test_artifact_rejects_garbage;
        ] );
    ]
