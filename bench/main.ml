(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index and EXPERIMENTS.md
   for recorded outputs). *)

let usage () =
  print_endline "usage: bench/main.exe [EXPERIMENT ...] [--scale S] [--json FILE] [--list]";
  print_endline "  EXPERIMENT: one of the ids below, 'all', or 'micro'";
  print_endline "  --scale S : machine-count multiplier (1.0 = paper size; default 0.2)";
  print_endline "  --json FILE : also write machine-readable results (JSON array)";
  print_endline "";
  List.iter
    (fun (name, descr, _) -> Printf.printf "  %-8s %s\n" name descr)
    Experiments.all;
  Printf.printf "  %-8s %s\n" "micro" "Bechamel microbenchmarks of the hot kernels"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref 0.2 in
  let selected = ref [] in
  let json_file = ref None in
  let rec parse = function
    | [] -> ()
    | "--list" :: _ ->
        usage ();
        exit 0
    | "--scale" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> scale := s
        | Some _ | None ->
            prerr_endline "bench: --scale expects a positive number";
            exit 2);
        parse rest
    | "--json" :: f :: rest ->
        json_file := Some f;
        parse rest
    | ("--help" | "-h") :: _ ->
        usage ();
        exit 0
    | x :: rest ->
        selected := x :: !selected;
        parse rest
  in
  parse args;
  let selected = match List.rev !selected with [] -> [ "all" ] | xs -> xs in
  let t0 = Unix.gettimeofday () in
  let run_one name =
    match name with
    | "all" ->
        List.iter
          (fun (n, _, f) ->
            Printf.eprintf "[bench] %s (scale %.2f)...\n%!" n !scale;
            let t = Unix.gettimeofday () in
            (try f ~scale:!scale ()
             with e ->
               (* One failed experiment must not kill the suite. *)
               Printf.printf "!! %s failed: %s\n%!" n (Printexc.to_string e));
            Printf.eprintf "[bench] %s done in %.1fs\n%!" n (Unix.gettimeofday () -. t))
          Experiments.all;
        Micro.run ()
    | "micro" -> Micro.run ()
    | _ -> (
        match List.find_opt (fun (n, _, _) -> n = name) Experiments.all with
        | Some (_, _, f) ->
            Printf.eprintf "[bench] %s (scale %.2f)...\n%!" name !scale;
            let t = Unix.gettimeofday () in
            f ~scale:!scale ();
            Printf.eprintf "[bench] %s done in %.1fs\n%!" name (Unix.gettimeofday () -. t)
        | None ->
            Printf.eprintf "bench: unknown experiment %S (try --list)\n" name;
            exit 2)
  in
  List.iter run_one selected;
  Option.iter Json_out.write !json_file;
  Printf.printf "\ntotal bench wall time: %.1fs (scale %.2f)\n"
    (Unix.gettimeofday () -. t0)
    !scale
