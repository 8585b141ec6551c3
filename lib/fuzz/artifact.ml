type t = {
  mode : Mcmf.Race.mode;
  machines : int;
  slots : int;
  inject_eps : int;
  crash_seed : int option;
  check : string;
  detail : string;
  trace : Dcsim.Churn.event list;
  graph : string;
}

let flatten s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let of_failure ?crash_seed (cfg : Harness.config) (f : Harness.failure) trace =
  {
    mode = f.Harness.f_mode;
    machines = cfg.Harness.machines;
    slots = cfg.Harness.slots;
    inject_eps = cfg.Harness.inject_eps;
    crash_seed;
    check = f.Harness.f_check;
    detail = flatten f.Harness.f_detail;
    trace;
    graph = f.Harness.f_graph;
  }

let config t =
  {
    Harness.machines = t.machines;
    slots = t.slots;
    inject_eps = t.inject_eps;
    (* The fuzzer runs only the default scheduler config, so a replay
       runs under exactly the config the failure was found under. *)
    modes = [ t.mode ];
  }

let to_string t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "firmament-fuzz-artifact v1\n";
  Buffer.add_string b (Printf.sprintf "mode %s\n" (Mcmf.Race.mode_name t.mode));
  Buffer.add_string b (Printf.sprintf "machines %d\n" t.machines);
  Buffer.add_string b (Printf.sprintf "slots %d\n" t.slots);
  Buffer.add_string b (Printf.sprintf "inject-eps %d\n" t.inject_eps);
  (match t.crash_seed with
  | Some s -> Buffer.add_string b (Printf.sprintf "crash-seed %d\n" s)
  | None -> ());
  Buffer.add_string b (Printf.sprintf "check %s\n" t.check);
  Buffer.add_string b (Printf.sprintf "detail %s\n" (flatten t.detail));
  Buffer.add_string b (Printf.sprintf "trace %d\n" (List.length t.trace));
  List.iter
    (fun ev -> Buffer.add_string b (Dcsim.Churn.to_line ev ^ "\n"))
    t.trace;
  Buffer.add_string b "graph\n";
  Buffer.add_string b t.graph;
  if t.graph <> "" && t.graph.[String.length t.graph - 1] <> '\n' then
    Buffer.add_char b '\n';
  Buffer.contents b

let fail fmt = Format.kasprintf failwith fmt

let of_string s =
  let lines = String.split_on_char '\n' s in
  let expect_kv key = function
    | line :: rest when String.length line > String.length key
                        && String.sub line 0 (String.length key) = key
                        && line.[String.length key] = ' ' ->
        ( String.sub line
            (String.length key + 1)
            (String.length line - String.length key - 1),
          rest )
    | line :: _ -> fail "Artifact.of_string: expected %S line, got %S" key line
    | [] -> fail "Artifact.of_string: truncated before %S line" key
  in
  let lines =
    match lines with
    | "firmament-fuzz-artifact v1" :: rest -> rest
    | l :: _ -> fail "Artifact.of_string: bad header %S" l
    | [] -> fail "Artifact.of_string: empty input"
  in
  let mode, lines = expect_kv "mode" lines in
  let machines, lines = expect_kv "machines" lines in
  let slots, lines = expect_kv "slots" lines in
  let inject_eps, lines = expect_kv "inject-eps" lines in
  (* optional: present only on crash-recovery artifacts *)
  let crash_seed, lines =
    match lines with
    | line :: rest
      when String.length line > 11 && String.sub line 0 11 = "crash-seed " ->
        ( Some
            (int_of_string
               (String.sub line 11 (String.length line - 11))),
          rest )
    | _ -> (None, lines)
  in
  let check, lines = expect_kv "check" lines in
  let detail, lines = expect_kv "detail" lines in
  let n, lines = expect_kv "trace" lines in
  let n = int_of_string n in
  let rec take_trace k lines acc =
    if k = 0 then (List.rev acc, lines)
    else
      match lines with
      | [] -> fail "Artifact.of_string: trace truncated (%d events missing)" k
      | line :: rest -> take_trace (k - 1) rest (Dcsim.Churn.of_line line :: acc)
  in
  let trace, lines = take_trace n lines [] in
  let graph_lines =
    match lines with
    | "graph" :: rest -> rest
    | l :: _ -> fail "Artifact.of_string: expected \"graph\" separator, got %S" l
    | [] -> fail "Artifact.of_string: truncated before graph section"
  in
  {
    mode =
      (match List.assoc_opt mode Mcmf.Race.modes with
      | Some m -> m
      | None -> fail "Artifact.of_string: unknown mode %S" mode);
    machines = int_of_string machines;
    slots = int_of_string slots;
    inject_eps = int_of_string inject_eps;
    crash_seed;
    check;
    detail;
    trace;
    graph = String.concat "\n" graph_lines;
  }

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))
