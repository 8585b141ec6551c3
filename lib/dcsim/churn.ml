type event =
  | Submit of { jid : int; tasks : int; duration : float; locality : int }
  | Finish of int
  | Preempt of int
  | Fail_machine of int
  | Restore_machine of int
  | Perturb_costs of { seed : int; arcs : int }
  | Round of { polls : int }

let pp ppf = function
  | Submit { jid; tasks; duration; locality } ->
      Format.fprintf ppf "submit job %d (%d tasks, %gs, locality %d)" jid tasks
        duration locality
  | Finish k -> Format.fprintf ppf "finish #%d" k
  | Preempt k -> Format.fprintf ppf "preempt #%d" k
  | Fail_machine m -> Format.fprintf ppf "fail machine %d" m
  | Restore_machine m -> Format.fprintf ppf "restore machine %d" m
  | Perturb_costs { seed; arcs } ->
      Format.fprintf ppf "perturb %d arcs (seed %d)" arcs seed
  | Round { polls } ->
      if polls <= 0 then Format.fprintf ppf "round"
      else Format.fprintf ppf "round (stop after %d polls)" polls

let generate ~seed ~machines ~length =
  let rng = Random.State.make [| 0x6675; 0x7a7a; seed |] in
  let machines = max 1 machines in
  let next_jid = ref 0 in
  let submit () =
    let jid = !next_jid in
    incr next_jid;
    Submit
      {
        jid;
        tasks = 1 + Random.State.int rng 4;
        duration = 50. +. float_of_int (Random.State.int rng 200);
        locality = Random.State.int rng 10_000;
      }
  in
  (* Mostly full rounds; occasionally a deterministic poll-budget stop
     standing in for a deadline-cut partial round. *)
  let round () =
    Round
      { polls = (if Random.State.int rng 6 = 0 then 1 + Random.State.int rng 30 else 0) }
  in
  let events = ref [] in
  for _ = 1 to max 0 (length - 1) do
    let r = Random.State.int rng 100 in
    let ev =
      if r < 24 then submit ()
      else if r < 48 then round ()
      else if r < 60 then Finish (Random.State.int rng 1_000)
      else if r < 66 then Preempt (Random.State.int rng 1_000)
      else if r < 73 then Fail_machine (Random.State.int rng machines)
      else if r < 81 then Restore_machine (Random.State.int rng machines)
      else if r < 89 then
        Perturb_costs
          { seed = Random.State.int rng 10_000; arcs = 1 + Random.State.int rng 8 }
      else round ()
    in
    events := ev :: !events
  done;
  List.rev (Round { polls = 0 } :: !events)

(* Text form: one event per line, space-separated fields. Durations use
   lossless hex-float notation so [of_line (to_line e) = e] exactly. *)

let to_line = function
  | Submit { jid; tasks; duration; locality } ->
      Printf.sprintf "submit %d %d %h %d" jid tasks duration locality
  | Finish k -> Printf.sprintf "finish %d" k
  | Preempt k -> Printf.sprintf "preempt %d" k
  | Fail_machine m -> Printf.sprintf "fail %d" m
  | Restore_machine m -> Printf.sprintf "restore %d" m
  | Perturb_costs { seed; arcs } -> Printf.sprintf "perturb %d %d" seed arcs
  | Round { polls } -> Printf.sprintf "round %d" polls

let fail fmt = Format.kasprintf failwith fmt

let of_line line =
  let int s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> fail "Churn.of_line: expected integer, got %S in %S" s line
  in
  let flt s =
    match float_of_string_opt s with
    | Some f -> f
    | None -> fail "Churn.of_line: expected float, got %S in %S" s line
  in
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [ "submit"; jid; tasks; duration; locality ] ->
      Submit
        { jid = int jid; tasks = int tasks; duration = flt duration; locality = int locality }
  | [ "finish"; k ] -> Finish (int k)
  | [ "preempt"; k ] -> Preempt (int k)
  | [ "fail"; m ] -> Fail_machine (int m)
  | [ "restore"; m ] -> Restore_machine (int m)
  | [ "perturb"; seed; arcs ] -> Perturb_costs { seed = int seed; arcs = int arcs }
  | [ "round"; polls ] -> Round { polls = int polls }
  | _ -> fail "Churn.of_line: unrecognized event %S" line

let to_lines events = List.map to_line events

let of_lines lines =
  List.filter_map
    (fun l -> if String.trim l = "" then None else Some (of_line l))
    lines
