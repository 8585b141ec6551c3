(* firmament_sim: replay a synthetic Google-like cluster trace against the
   Firmament scheduler and report scheduling metrics.

     dune exec bin/firmament_sim.exe -- --machines 500 --util 0.9 \
       --policy quincy --mode race --horizon 60 *)

open Cmdliner

let policy_conv =
  Arg.enum (List.map (fun (name, _) -> (name, name)) Firmament.Policies.all)

let mode_conv = Arg.enum Mcmf.Race.modes

(* Exporter plumbing for --metrics-out / --metrics-json / --metrics-summary:
   dump the global telemetry registry after the replay. *)
let with_out path f =
  match path with
  | "-" ->
      f Format.std_formatter;
      Format.pp_print_flush Format.std_formatter ()
  | _ ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          let ppf = Format.formatter_of_out_channel oc in
          f ppf;
          Format.pp_print_flush ppf ())

let export_metrics metrics_out metrics_json metrics_summary =
  let reg = Telemetry.Metrics.global () in
  Option.iter (fun p -> with_out p (fun ppf -> Telemetry.Export.prometheus ppf reg)) metrics_out;
  Option.iter (fun p -> with_out p (fun ppf -> Telemetry.Export.json_lines ppf reg)) metrics_json;
  if metrics_summary then begin
    Printf.printf "\ntelemetry:\n%!";
    Format.printf "%a@."
      (Telemetry.Export.pp_summary ~pp_duration:Dcsim.Stats.pp_duration)
      reg
  end

let run machines util horizon speedup seed policy mode max_rounds deadline
    snapshot_out restore metrics_out metrics_json metrics_summary =
  let trace =
    Cluster.Trace.generate
      {
        (Cluster.Trace.default_params ~machines ()) with
        target_utilization = util;
        horizon_s = horizon;
        speedup;
        seed;
      }
  in
  let config =
    {
      Dcsim.Replay.default_config with
      scheduler = { Firmament.Scheduler.default_config with mode; deadline };
      policy = List.assoc policy Firmament.Policies.all;
      max_rounds = Some max_rounds;
    }
  in
  Printf.printf
    "replaying: %d machines, %.0f%% target utilization, %.0fs horizon, %gx speedup%s\n%!"
    machines (util *. 100.) horizon speedup
    (match restore with
    | Some p -> Printf.sprintf ", restored from %s" p
    | None -> "");
  let m =
    Dcsim.Replay.run_with ~config ?restore_snapshot:restore
      ?snapshot_out ~trace
      ~on_round:(fun ~sim:_ _ -> ())
      ()
  in
  let open Dcsim.Replay in
  Printf.printf "rounds                 %d\n" m.rounds;
  Printf.printf "degraded rounds        %d (partial %d, infeasible-retry %d, failed %d)\n"
    m.degraded_rounds m.partial_rounds m.infeasible_retries m.failed_rounds;
  Printf.printf "tasks placed           %d\n" m.tasks_placed;
  Printf.printf "preemptions            %d\n" m.preemptions;
  Printf.printf "migrations             %d\n" m.migrations;
  Printf.printf "simulated end          %.2f s\n" m.sim_end;
  if m.structure_violations > 0 then
    Printf.printf "WARNING: %d flow-network invariant violations at end of replay\n"
      m.structure_violations;
  let series name xs =
    match xs with
    | [] -> Printf.printf "%-22s (none)\n" name
    | _ ->
        Printf.printf "%-22s p50 %-10s p90 %-10s p99 %-10s max %-10s\n" name
          (Setup_shared.pp_secs (Dcsim.Stats.percentile xs 50.))
          (Setup_shared.pp_secs (Dcsim.Stats.percentile xs 90.))
          (Setup_shared.pp_secs (Dcsim.Stats.percentile xs 99.))
          (Setup_shared.pp_secs (Dcsim.Stats.maximum xs))
  in
  series "algorithm runtime" m.algorithm_runtimes;
  series "placement latency" m.placement_latencies;
  series "task response time" m.response_times;
  export_metrics metrics_out metrics_json metrics_summary

let cmd =
  let machines =
    Arg.(value & opt int 250 & info [ "machines" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let util =
    Arg.(
      value & opt float 0.8
      & info [ "util" ] ~docv:"FRACTION" ~doc:"Target steady-state slot utilization.")
  in
  let horizon =
    Arg.(value & opt float 60. & info [ "horizon" ] ~docv:"SECONDS" ~doc:"Arrival-stream length.")
  in
  let speedup =
    Arg.(
      value & opt float 1.
      & info [ "speedup" ] ~docv:"X" ~doc:"Trace acceleration factor (paper Fig. 18).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.") in
  let policy =
    Arg.(
      value & opt policy_conv "quincy"
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:("Scheduling policy: " ^ doc_alts_enum Firmament.Policies.all ^ "."))
  in
  let mode =
    Arg.(
      value
      & opt mode_conv Mcmf.Race.Race
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "What a round runs: $(b,race), the default (an in-place repair \
             of the last optimal flow; on a give-up, relaxation hedged by \
             cost scaling when it runs late), $(b,race-only) (that hedged \
             race on every round: the paper's Firmament), or one solver on \
             every round: $(b,relaxation), $(b,incremental-cs) or \
             $(b,quincy-cs) (cost scaling from scratch: Quincy).")
  in
  let max_rounds =
    Arg.(value & opt int 500 & info [ "max-rounds" ] ~docv:"N" ~doc:"Scheduling-round budget.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-round wall-clock deadline. A round that exceeds it degrades to \
             best-effort partial placement instead of running long.")
  in
  let snapshot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot-out" ] ~docv:"FILE"
          ~doc:
            "Write a $(b,Firmament.Snapshot) base image of the final scheduler \
             state to $(docv) when the replay ends (restorable with \
             $(b,--restore)).")
  in
  let restore =
    Arg.(
      value
      & opt (some file) None
      & info [ "restore" ] ~docv:"FILE"
          ~doc:
            "Resume from a snapshot instead of an empty cluster: the snapshot's \
             topology and clock are authoritative, the scheduler restarts \
             warm-started, and trace arrivals already carried by the snapshot \
             are skipped — replaying the same $(b,--seed) with a longer \
             $(b,--horizon) continues the snapshotted run.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write end-of-run telemetry (round phases, solver race margins, \
             \xCE\xB5-phase work, graph-change batches) in Prometheus text exposition \
             format to $(docv) ($(b,-) for stdout).")
  in
  let metrics_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-json" ] ~docv:"FILE"
          ~doc:"Write end-of-run telemetry as JSON lines to $(docv) ($(b,-) for stdout).")
  in
  let metrics_summary =
    Arg.(
      value & flag
      & info [ "metrics-summary" ]
          ~doc:"Print a human-readable telemetry summary after the replay report.")
  in
  let doc = "replay a synthetic cluster trace against the Firmament scheduler" in
  Cmd.v
    (Cmd.info "firmament_sim" ~doc)
    Term.(
      const run $ machines $ util $ horizon $ speedup $ seed $ policy $ mode $ max_rounds
      $ deadline $ snapshot_out $ restore
      $ metrics_out $ metrics_json $ metrics_summary)

let () = exit (Cmd.eval cmd)
