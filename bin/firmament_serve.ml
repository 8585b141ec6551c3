(* firmament_serve: persistent Firmament scheduler daemon.

     dune exec bin/firmament_serve.exe -- --listen 127.0.0.1:7117 \
       --machines 1000 --metrics-listen 127.0.0.1:9117

   Speaks the length-prefixed binary protocol of Server.Protocol over TCP
   or Unix sockets; SIGINT/SIGTERM drain gracefully (admitted events no
   round applied are dropped and counted, Shutdown frames sent, exit 0). *)

open Cmdliner

let policy_conv =
  Arg.enum (List.map (fun (name, _) -> (name, name)) Firmament.Policies.all)

let mode_conv = Arg.enum Mcmf.Race.modes

let listen_conv =
  let parse s =
    match Server.Service.listen_of_string s with
    | Ok l -> Ok l
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Server.Service.pp_listen)

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

let run listen metrics_listen machines machines_per_rack slots policy mode deadline
    batch_max queue_cap grace_s snapshot restore metrics_out metrics_summary =
  let scheduler = { Firmament.Scheduler.default_config with mode; deadline } in
  let config =
    {
      Server.Service.default_config with
      listen;
      metrics_listen;
      machines;
      machines_per_rack;
      slots_per_machine = slots;
      scheduler;
      policy = List.assoc policy Firmament.Policies.all;
      batch_max;
      queue_capacity = queue_cap;
      shutdown_grace_s = grace_s;
      snapshot_path = snapshot;
      restore;
    }
  in
  let t = Server.Service.create config in
  if restore then
    Format.printf
      "firmament_serve: restored %d running / %d waiting tasks from %s@."
      (Cluster.State.live_task_count (Server.Service.cluster t)
      - Cluster.State.waiting_count (Server.Service.cluster t))
      (Cluster.State.waiting_count (Server.Service.cluster t))
      (Option.value ~default:"" snapshot);
  let graceful _ = Server.Service.request_shutdown t in
  Sys.set_signal Sys.sigint (Sys.Signal_handle graceful);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle graceful);
  Format.printf "firmament_serve: listening on %a (%d machines, %d slots each)%t@."
    Server.Service.pp_listen listen machines slots (fun ppf ->
      Option.iter
        (fun ml -> Format.fprintf ppf ", metrics on %a" Server.Service.pp_listen ml)
        metrics_listen);
  Server.Service.run t;
  let reg = Telemetry.Metrics.global () in
  Option.iter
    (fun p -> with_out p (fun ppf -> Telemetry.Export.prometheus ppf reg))
    metrics_out;
  if metrics_summary then
    Format.printf "%a@."
      (Telemetry.Export.pp_summary ~pp_duration:Dcsim.Stats.pp_duration)
      reg;
  Format.printf "firmament_serve: drained %d rounds, bye@."
    (Server.Service.rounds_committed t)

let cmd =
  let listen =
    Arg.(
      value
      & opt listen_conv (Server.Service.Tcp ("127.0.0.1", 7117))
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:"Endpoint to serve on: $(b,HOST:PORT) or $(b,unix:PATH).")
  in
  let metrics_listen =
    Arg.(
      value
      & opt (some listen_conv) None
      & info [ "metrics-listen" ] ~docv:"ADDR"
          ~doc:
            "Optional Prometheus scrape endpoint: any HTTP GET receives the \
             telemetry registry in text exposition format.")
  in
  let machines =
    Arg.(value & opt int 250 & info [ "machines" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let machines_per_rack =
    Arg.(value & opt int 8 & info [ "machines-per-rack" ] ~docv:"N" ~doc:"Rack width.")
  in
  let slots =
    Arg.(value & opt int 16 & info [ "slots" ] ~docv:"N" ~doc:"Slots per machine.")
  in
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
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-round wall-clock deadline; overruns degrade to partial placement.")
  in
  let batch_max =
    Arg.(
      value & opt int 1024
      & info [ "batch-max" ] ~docv:"N" ~doc:"Most admitted events applied per scheduling round.")
  in
  let queue_cap =
    Arg.(
      value & opt int 4096
      & info [ "queue-cap" ] ~docv:"N"
          ~doc:"Admission-queue bound; overflow is NACKed with a retry-after hint.")
  in
  let grace_s =
    Arg.(
      value & opt float 1.0
      & info [ "shutdown-grace" ] ~docv:"SECONDS"
          ~doc:"Outbound flush budget during graceful shutdown.")
  in
  let snapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE"
          ~doc:
            "Persist scheduler state to $(docv): a base image at startup, a \
             journal record per applied event and committed round, and a \
             fresh base image on graceful shutdown. Crash-safe: records are \
             flushed as written and a torn tail is ignored on restore.")
  in
  let restore =
    Arg.(
      value & flag
      & info [ "restore" ]
          ~doc:
            "Resume from the $(b,--snapshot) file if it exists instead of \
             starting an empty cluster. The snapshot's topology and clock \
             are authoritative; the scheduler restarts warm-started, so in \
             $(b,race) mode the first round takes the incremental-repair \
             path.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "After shutdown, write telemetry in Prometheus text exposition format to \
             $(docv) ($(b,-) for stdout).")
  in
  let metrics_summary =
    Arg.(
      value & flag
      & info [ "metrics-summary" ]
          ~doc:"Print a human-readable telemetry summary after shutdown.")
  in
  let doc = "persistent Firmament scheduler service over TCP/Unix sockets" in
  Cmd.v
    (Cmd.info "firmament_serve" ~doc)
    Term.(
      const run $ listen $ metrics_listen $ machines $ machines_per_rack $ slots $ policy
      $ mode $ deadline $ batch_max $ queue_cap $ grace_s
      $ snapshot $ restore $ metrics_out $ metrics_summary)

let () = exit (Cmd.eval cmd)
