(* One benchmark worker: set up, measure one workload for a share of the
   run, check the result, and write the raw samples as JSON.

     pbench.exe --workload steady-churn --seed 1 --seconds 5 --trace 0 \
       --out w0.json [--trace-out w0.trace.json] [--worker 0] [--dir DIR]
       [--serve PATH] [--ladder] [--sample-depth]

   run.py starts several workers per run and pools their samples. *)

let t_start = Telemetry.Clock.now_ns ()

let () =
  (* A connection the daemon closed must fail a write, not kill the worker. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 0 and seconds = ref 5. and trace = ref 0 in
  let out = ref "" and trace_out = ref "" and worker = ref 0 and dir = ref "." in
  let serve = ref "" and ladder = ref false and sample_depth = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S measured window of this worker");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--out", Arg.Set_string out, "FILE result JSON");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace events");
      ("--worker", Arg.Set_int worker, "K worker index (trace pid, file names)");
      ("--dir", Arg.Set_string dir, "DIR scratch directory for sockets and snapshots");
      ("--serve", Arg.Set_string serve, "PATH firmament_serve executable");
      ("--ladder", Arg.Set ladder, " firehose: climb the rate ladder after the window");
      ("--sample-depth", Arg.Set sample_depth, " firehose: scrape the queue depth during the window");
    ]
    (fun a -> raise (Arg.Bad a))
    "pbench.exe --workload NAME --seed N --seconds S --trace 0|1 --out FILE";
  if !out = "" then (prerr_endline "pbench: --out is required"; exit 2);
  let trace = !trace = 1 in
  let file name = Filename.concat !dir (Printf.sprintf "w%d.%s" !worker name) in
  let result =
    match !workload with
    | "steady-churn" ->
        Inproc.run ~seed:!seed ~seconds:!seconds ~trace ~t_start ~snap_path:(file "snap")
    | "firehose" ->
        Firehose.run ~serve:!serve ~ladder:!ladder ~sample_depth:!sample_depth ~seed:!seed
          ~seconds:!seconds ~trace ~t_start ~file
    | w ->
        Printf.eprintf "pbench: unknown workload %S\n" w;
        exit 2
  in
  Out.to_file !out result;
  if trace && !trace_out <> "" then
    Out.to_file !trace_out (Out.Arr (Out.trace_events ~pid:!worker ~origin_ns:t_start))
