(* mcmf_solve: command-line min-cost max-flow solver over DIMACS files.

   Reads a DIMACS `min` instance, solves it with the chosen algorithm
   (default: Firmament's race of relaxation vs incremental cost scaling),
   and writes the DIMACS solution lines to stdout.

     dune exec bin/mcmf_solve.exe -- instance.min -a relaxation *)

open Cmdliner

type algorithm = Race | Relaxation | Cost_scaling | Ssp | Cycle_canceling

let algorithm_conv =
  Arg.enum
    [
      ("race", Race);
      ("relaxation", Relaxation);
      ("cost-scaling", Cost_scaling);
      ("ssp", Ssp);
      ("cycle-canceling", Cycle_canceling);
    ]

let solve path algorithm alpha deadline quiet =
  let g, _nodes =
    match path with
    | Some p -> Flowgraph.Dimacs.load p
    | None ->
        let rec read acc =
          match input_line stdin with
          | line -> read (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        Flowgraph.Dimacs.parse (read [])
  in
  let stop =
    match deadline with
    | Some d -> Mcmf.Solver_intf.deadline_stop d
    | None -> Mcmf.Solver_intf.never_stop
  in
  let stats, solved =
    match algorithm with
    | Relaxation -> (Mcmf.Relaxation.solve ~stop g, g)
    | Cost_scaling -> (Mcmf.Cost_scaling.solve ~stop (Mcmf.Cost_scaling.create ~alpha ()) g, g)
    | Ssp -> (Mcmf.Ssp.solve ~stop g, g)
    | Cycle_canceling -> (Mcmf.Cycle_canceling.solve ~stop g, g)
    | Race ->
        let race = Mcmf.Race.create ~alpha ~mode:Mcmf.Race.Race () in
        let r = Mcmf.Race.solve ~stop race g in
        (r.Mcmf.Race.stats, r.Mcmf.Race.graph)
  in
  (match stats.Mcmf.Solver_intf.outcome with
  | Mcmf.Solver_intf.Optimal ->
      if not quiet then
        Printf.eprintf "c optimal in %.6f s (%d iterations, %d pushes)\n"
          stats.Mcmf.Solver_intf.runtime stats.Mcmf.Solver_intf.iterations
          stats.Mcmf.Solver_intf.pushes;
      print_string (Flowgraph.Dimacs.emit_solution solved);
      `Ok ()
  | Mcmf.Solver_intf.Infeasible ->
      prerr_endline "c infeasible";
      `Error (false, "instance is infeasible")
  | Mcmf.Solver_intf.Stopped ->
      prerr_endline "c stopped at deadline (solution incomplete)";
      `Error (false, "deadline reached"))

let cmd =
  let path =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"DIMACS min-cost flow instance (stdin if omitted).")
  in
  let algorithm =
    Arg.(
      value & opt algorithm_conv Race
      & info [ "a"; "algorithm" ] ~docv:"ALG"
          ~doc:"Algorithm: $(b,race), $(b,relaxation), $(b,cost-scaling), $(b,ssp) or \
                $(b,cycle-canceling).")
  in
  let alpha =
    Arg.(value & opt int 9 & info [ "alpha" ] ~docv:"N" ~doc:"Cost scaling's ε division factor.")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Give up after this much wall-clock time.")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the stats comment.") in
  let doc = "solve DIMACS min-cost max-flow instances with Firmament's solvers" in
  Cmd.v
    (Cmd.info "mcmf_solve" ~doc)
    Term.(ret (const solve $ path $ algorithm $ alpha $ deadline $ quiet))

let () = exit (Cmd.eval cmd)
