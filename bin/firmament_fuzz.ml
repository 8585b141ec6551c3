(* firmament_fuzz: differential churn fuzzing of the Firmament scheduler.

   Fuzz mode — generate seeded churn traces, run each through the real
   scheduler in every requested race mode, check every committed round
   against the SSP oracle and the flow validators; on failure, shrink the
   trace to a minimal repro and write a replayable artifact:

     dune exec bin/firmament_fuzz.exe -- --seeds 0..99

   Replay mode — re-run a previously written artifact and report whether
   the recorded failure still reproduces (exit 0) or not (exit 2 — the
   bug is fixed or was environment-dependent):

     dune exec bin/firmament_fuzz.exe -- --replay fuzz-artifacts/seed-7.repro *)

open Cmdliner

let parse_seeds spec =
  let fail () =
    Format.kasprintf failwith
      "bad --seeds %S (expected N, A..B, or a comma-separated list)" spec
  in
  match String.index_opt spec '.' with
  | Some _ -> (
      match String.split_on_char '.' spec with
      | [ a; ""; b ] | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b when a <= b -> List.init (b - a + 1) (fun i -> a + i)
          | _ -> fail ())
      | _ -> fail ())
  | None ->
      String.split_on_char ',' spec
      |> List.map (fun s ->
             match int_of_string_opt (String.trim s) with
             | Some n -> n
             | None -> fail ())

let seeds_conv =
  let parse s =
    match parse_seeds s with
    | seeds -> Ok seeds
    | exception Failure m -> Error (`Msg m)
  in
  let print ppf seeds =
    Format.fprintf ppf "%s" (String.concat "," (List.map string_of_int seeds))
  in
  Arg.conv (parse, print)

let mode_conv =
  Arg.enum (("all", None) :: List.map (fun (n, m) -> (n, Some m)) Mcmf.Race.modes)

(* Shrink against the failing mode only, holding the check id fixed so the
   artifact stays faithful to the original failure. *)
let shrink_failure cfg (f : Fuzz.Harness.failure) trace =
  let cfg = { cfg with Fuzz.Harness.modes = [ f.Fuzz.Harness.f_mode ] } in
  let fails events =
    match Fuzz.Harness.run_mode cfg f.Fuzz.Harness.f_mode events with
    | Error f' -> f'.Fuzz.Harness.f_check = f.Fuzz.Harness.f_check
    | Ok () -> false
  in
  Fuzz.Shrink.minimize ~fails ~simplify:Fuzz.Shrink.simplify_event trace

(* Crash-recovery shrinking re-runs the kill-restore interpreter: the kill
   schedule is a function of (seed, trace), so shrunk traces crash at
   different points — any shrunk trace kept still fails the same check. *)
let shrink_crash_failure cfg ~seed (f : Fuzz.Harness.failure) trace =
  let cfg = { cfg with Fuzz.Harness.modes = [ f.Fuzz.Harness.f_mode ] } in
  let fails events =
    match Fuzz.Harness.run_crash_recovery cfg ~seed events with
    | Error f' -> f'.Fuzz.Harness.f_check = f.Fuzz.Harness.f_check
    | Ok _ -> false
  in
  Fuzz.Shrink.minimize ~fails ~simplify:Fuzz.Shrink.simplify_event trace

let report_failure seed (f : Fuzz.Harness.failure) ~events ~shrunk ~path =
  Printf.printf "seed %d: FAIL %s\n" seed
    (Format.asprintf "%a" Fuzz.Harness.pp_failure f);
  Printf.printf "seed %d: shrunk %d -> %d events, artifact %s\n%!" seed events
    (List.length shrunk) path

let save_artifact ?crash_seed cfg f' shrunk ~artifact_dir ~seed =
  let artifact = Fuzz.Artifact.of_failure ?crash_seed cfg f' shrunk in
  (try Unix.mkdir artifact_dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat artifact_dir (Printf.sprintf "seed-%d.repro" seed) in
  Fuzz.Artifact.save path artifact;
  path

let fuzz_crash seeds events machines slots inject_eps mode artifact_dir =
  let cfg =
    {
      Fuzz.Harness.machines;
      slots;
      inject_eps;
      modes =
        (match mode with
        | None -> [ Mcmf.Race.Race ]
        | Some m -> [ m ]);
    }
  in
  let failures = ref 0 in
  let kills = ref 0 and rounds = ref 0 in
  let restore_ns = ref 0 and cold_ns = ref 0 in
  List.iter
    (fun seed ->
      let trace = Dcsim.Churn.generate ~seed ~machines ~length:events in
      match Fuzz.Harness.run_crash_recovery cfg ~seed trace with
      | Ok r ->
          kills := !kills + r.Fuzz.Harness.cr_kills;
          rounds := !rounds + r.Fuzz.Harness.cr_rounds;
          restore_ns := !restore_ns + r.Fuzz.Harness.cr_restore_ns;
          cold_ns := !cold_ns + r.Fuzz.Harness.cr_cold_ns
      | Error f ->
          incr failures;
          let shrunk = shrink_crash_failure cfg ~seed f trace in
          let f' =
            match Fuzz.Harness.run_crash_recovery cfg ~seed shrunk with
            | Error f' -> f'
            | Ok _ -> f
          in
          let path =
            save_artifact ~crash_seed:seed cfg f' shrunk ~artifact_dir ~seed
          in
          report_failure seed f ~events:(List.length trace) ~shrunk ~path)
    seeds;
  if !failures = 0 then begin
    Printf.printf
      "crash-recovery fuzz: %d seeds clean (%d events each, %d machines x %d \
       slots)\n"
      (List.length seeds) events machines slots;
    Printf.printf
      "  %d kill/restore cycles over %d committed rounds; restore-to-first-\
       committed-round %.2f ms total vs %.2f ms cold re-solves (%.1fx)\n"
      !kills !rounds
      (float_of_int !restore_ns /. 1e6)
      (float_of_int !cold_ns /. 1e6)
      (float_of_int !cold_ns /. float_of_int (max 1 !restore_ns));
    0
  end
  else begin
    Printf.printf "crash-recovery fuzz: %d/%d seeds FAILED\n" !failures
      (List.length seeds);
    1
  end

let fuzz seeds events machines slots inject_eps mode artifact_dir =
  let cfg =
    {
      Fuzz.Harness.machines;
      slots;
      inject_eps;
      modes =
        (match mode with None -> List.map snd Mcmf.Race.modes | Some m -> [ m ]);
    }
  in
  let failures = ref 0 in
  List.iter
    (fun seed ->
      let trace = Dcsim.Churn.generate ~seed ~machines ~length:events in
      match Fuzz.Harness.run cfg trace with
      | Ok () -> ()
      | Error f ->
          incr failures;
          let shrunk = shrink_failure cfg f trace in
          (* Re-run the shrunk trace so the artifact's graph dump matches
             the trace it ships (the original dump belongs to the full
             trace). Fall back to the original failure if the shrunk trace
             is flaky under a racing mode. *)
          let f' =
            match
              Fuzz.Harness.run_mode
                { cfg with modes = [ f.Fuzz.Harness.f_mode ] }
                f.Fuzz.Harness.f_mode shrunk
            with
            | Error f' -> f'
            | Ok () -> f
          in
          let path = save_artifact cfg f' shrunk ~artifact_dir ~seed in
          report_failure seed f ~events:(List.length trace) ~shrunk ~path)
    seeds;
  if !failures = 0 then begin
    Printf.printf "fuzz: %d seeds clean (%d events each, %d machines x %d slots)\n"
      (List.length seeds) events machines slots;
    0
  end
  else begin
    Printf.printf "fuzz: %d/%d seeds FAILED\n" !failures (List.length seeds);
    1
  end

let replay path =
  let artifact = Fuzz.Artifact.load path in
  let cfg = Fuzz.Artifact.config artifact in
  Printf.printf "replaying %s: %d events, mode %s%s, expecting %s\n%!" path
    (List.length artifact.Fuzz.Artifact.trace)
    (Mcmf.Race.mode_name artifact.Fuzz.Artifact.mode)
    (match artifact.Fuzz.Artifact.crash_seed with
    | Some s -> Printf.sprintf " (crash-recovery, seed %d)" s
    | None -> "")
    artifact.Fuzz.Artifact.check;
  let outcome =
    match artifact.Fuzz.Artifact.crash_seed with
    | Some seed ->
        Result.map ignore
          (Fuzz.Harness.run_crash_recovery cfg ~seed
             artifact.Fuzz.Artifact.trace)
    | None -> Fuzz.Harness.run cfg artifact.Fuzz.Artifact.trace
  in
  match outcome with
  | Error f when f.Fuzz.Harness.f_check = artifact.Fuzz.Artifact.check ->
      Printf.printf "reproduced: %s\n"
        (Format.asprintf "%a" Fuzz.Harness.pp_failure f);
      0
  | Error f ->
      Printf.printf "different failure (recorded %s): %s\n"
        artifact.Fuzz.Artifact.check
        (Format.asprintf "%a" Fuzz.Harness.pp_failure f);
      2
  | Ok () ->
      Printf.printf "did not reproduce: trace runs clean\n";
      2

let run replay_file crash_recovery seeds events machines slots inject_eps mode
    artifact_dir =
  match replay_file with
  | Some path -> replay path
  | None when crash_recovery ->
      fuzz_crash seeds events machines slots inject_eps mode artifact_dir
  | None -> fuzz seeds events machines slots inject_eps mode artifact_dir

let cmd =
  let replay_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Replay a repro artifact instead of fuzzing. Exits 0 if the \
                recorded failure reproduces, 2 if not.")
  in
  let crash_recovery =
    Arg.(
      value & flag
      & info [ "crash-recovery" ]
          ~doc:"Kill-restore fuzzing: journal every event into a \
                snapshot, kill the scheduler at seed-determined points \
                (round boundaries and cluster events), restore from the \
                snapshot, and assert no placement is lost or duplicated \
                and that the oracle certifies every post-restore round. \
                Runs one mode per seed ($(b,race) unless $(b,--mode)).")
  in
  let seeds =
    Arg.(
      value
      & opt seeds_conv (parse_seeds "0..19")
      & info [ "seeds" ] ~docv:"SPEC"
          ~doc:"Seeds to fuzz: $(b,N), $(b,A..B) (inclusive) or \
                $(b,a,b,c).")
  in
  let events =
    Arg.(
      value & opt int 60
      & info [ "events" ] ~docv:"N" ~doc:"Churn-trace length per seed.")
  in
  let machines =
    Arg.(
      value & opt int 6
      & info [ "machines" ] ~docv:"N" ~doc:"Cluster size (2 machines per rack).")
  in
  let slots =
    Arg.(
      value & opt int 2
      & info [ "slots" ] ~docv:"N" ~doc:"Task slots per machine.")
  in
  let inject_eps =
    Arg.(
      value & opt int 1
      & info [ "inject-eps" ] ~docv:"EPS"
          ~doc:"Fault injection: floor the cost-scaling \xCE\xB5 ladder at \
                $(docv) so the solver stops early while still claiming \
                optimality. The harness must catch this ($(b,1) = off; used \
                to validate the harness itself).")
  in
  let mode =
    Arg.(
      value & opt mode_conv None
      & info [ "mode" ] ~docv:"MODE"
          ~doc:"Restrict to one race mode ($(b,race), $(b,race-only), \
                $(b,relaxation), $(b,incremental-cs), $(b,quincy-cs)) or \
                $(b,all), the default. Only $(b,race) repairs in place; \
                every other mode runs its solver(s) on every round.")
  in
  let artifact_dir =
    Arg.(
      value & opt string "fuzz-artifacts"
      & info [ "artifact-dir" ] ~docv:"DIR"
          ~doc:"Directory for shrunk repro artifacts.")
  in
  let doc = "differential churn fuzzing of the Firmament scheduler" in
  Cmd.v
    (Cmd.info "firmament_fuzz" ~doc)
    Term.(
      const run $ replay_file $ crash_recovery $ seeds $ events $ machines
      $ slots $ inject_eps $ mode $ artifact_dir)

let () = exit (Cmd.eval' cmd)
