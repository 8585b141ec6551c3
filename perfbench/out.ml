(* Worker output: the raw samples a worker measured, written as one JSON
   object for run.py to pool across workers, plus the span recorder that
   backs the traced run's Chrome trace-event file. *)

let now_ns () = Telemetry.Clock.now_ns ()
let ms_of_ns ns = float_of_int ns *. 1e-6

(* {1 JSON values} *)

type json =
  | Num of float
  | Int of int
  | Bool of bool
  | Str of string
  | Arr of json list
  | Floats of float list
  | Obj of (string * json) list

let rec write b = function
  | Num f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Str s ->
      Buffer.add_char b '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"'
  | Arr l -> list b write l
  | Floats l -> list b (fun b f -> write b (Num f)) l
  | Obj kv ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write b (Str k);
          Buffer.add_char b ':';
          write b v)
        kv;
      Buffer.add_char b '}'

and list : 'a. Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit =
 fun b f l ->
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f b x)
    l;
  Buffer.add_char b ']'

let to_file path v =
  let b = Buffer.create 65536 in
  write b v;
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc

(* {1 Spans}

   Complete ("X") trace events: name, start, duration, a track and
   arguments. A span's parent is the enclosing span on the same track;
   spans of one task carry its id in [args.task]. The recorder is capped
   so a long traced run cannot grow without bound. *)

type span = {
  name : string;
  track : int;
  t0 : int;
  t1 : int;
  args : (string * json) list;
}

let spans : span list ref = ref []
let span_count = ref 0
let span_cap = 200_000
let tracing = ref false

let span ?(args = []) ~track name t0 t1 =
  if !tracing && !span_count < span_cap then begin
    incr span_count;
    spans := { name; track; t0; t1; args } :: !spans
  end

let trace_events ~pid ~origin_ns =
  List.rev_map
    (fun s ->
      Obj
        ([
           ("name", Str s.name);
           ("ph", Str "X");
           ("pid", Int pid);
           ("tid", Int s.track);
           ("ts", Num (float_of_int (s.t0 - origin_ns) *. 1e-3));
           ("dur", Num (float_of_int (s.t1 - s.t0) *. 1e-3));
         ]
        @ match s.args with [] -> [] | a -> [ ("args", Obj a) ]))
    !spans

(* {1 Process facts} *)

(* A memory field of [/proc/<pid>/status] in MB: [VmHWM] is the peak
   resident set, [VmRSS] the current one. *)
let status_mb ~field pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      let prefix = field ^ ":" in
      let n = String.length prefix in
      let rec go () =
        match input_line ic with
        | line when String.length line > n && String.sub line 0 n = prefix ->
            Scanf.sscanf (String.sub line n (String.length line - n)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

let peak_rss_mb = status_mb ~field:"VmHWM"
let rss_mb = status_mb ~field:"VmRSS"

(* {1 Registry deltas}

   Per-layer numbers read from the telemetry registry: a snapshot of every
   metric before the measured window, subtracted from one after it. The
   same arithmetic applies to the daemon's registry, scraped over HTTP. *)

type snap = (string, int) Hashtbl.t

(* Counter and gauge values under their own name; histograms as
   [name_count] and [name_sum]. *)
let snapshot_registry () : snap =
  let reg = Telemetry.Metrics.global () in
  let h = Hashtbl.create 128 in
  List.iter
    (fun (v : Telemetry.Metrics.view) ->
      match v.kind with
      | Telemetry.Metrics.Histogram ->
          Hashtbl.replace h (v.name ^ "_count") v.data.(v.buckets);
          Hashtbl.replace h (v.name ^ "_sum") v.data.(v.buckets + 1)
      | _ -> Hashtbl.replace h v.name v.data.(0))
    (Telemetry.Metrics.views reg);
  h

let get (s : snap) k = Option.value ~default:0 (Hashtbl.find_opt s k)
let delta (a : snap) (b : snap) k = get b k - get a k

(* Mean of a histogram over the window, in ms (histograms record ns). *)
let hist_mean_ms a b name =
  let n = delta a b (name ^ "_count") in
  if n = 0 then 0. else ms_of_ns (delta a b (name ^ "_sum")) /. float_of_int n

(* The per-layer numbers both kinds of worker read from a registry, as
   means per scheduling round over the window [a, b]. *)
let registry_layers a b =
  let d = delta a b in
  let rounds = max 1 (d "sched_rounds_total") in
  let per_round k = float_of_int (d k) /. float_of_int rounds in
  let ms_per_round k = ms_of_ns (d k) /. float_of_int rounds in
  let phase p = ms_per_round ("sched_phase_" ^ p ^ "_ns_sum") in
  let giveup_reasons = [ "oversized"; "no_path"; "not_certified"; "stopped" ] in
  let giveups =
    List.fold_left (fun acc r -> acc + d ("mcmf_incremental_giveup_" ^ r ^ "_total")) 0 giveup_reasons
  in
  let repairs = d "mcmf_incremental_repairs_total" in
  let attempts = repairs + giveups in
  let phases = [ "refresh"; "solve"; "adopt"; "extract"; "prepare"; "apply" ] in
  [
    ("sched.rounds", Int (d "sched_rounds_total"));
    ("sched.round_ms", Num (ms_per_round "sched_round_ns_sum"));
    (* The phases are contiguous checkpoints: their sums must equal the
       round wall-time sum exactly, so this gap must read 0. *)
    ( "sched.phase_gap_ms",
      Num
        (ms_of_ns
           (d "sched_round_ns_sum"
           - List.fold_left (fun acc p -> acc + d ("sched_phase_" ^ p ^ "_ns_sum")) 0 phases)) );
    ("sched.refresh_ms", Num (phase "refresh"));
    ("sched.solve_ms", Num (phase "solve"));
    ("sched.adopt_ms", Num (phase "adopt"));
    ("sched.extract_ms", Num (phase "extract"));
    ("sched.prepare_ms", Num (phase "prepare"));
    ("sched.apply_ms", Num (phase "apply"));
    ("race.solve_win_ms", Num (phase "solve_win"));
    ("race.solve_wait_ms", Num (phase "solve_wait"));
    ("race.wins_relaxation", Num (per_round "mcmf_race_wins_relaxation_total"));
    ("race.wins_cost_scaling", Num (per_round "mcmf_race_wins_cost_scaling_total"));
    ("race.wins_repair", Num (per_round "mcmf_race_wins_repair_total"));
    ("race.winner_only", Num (per_round "mcmf_race_winner_only_total"));
    ("repair.attempts", Num (float_of_int attempts /. float_of_int rounds));
    ( "repair.success_frac",
      Num (if attempts = 0 then 0. else float_of_int repairs /. float_of_int attempts) );
    ("repair.giveups", Num (float_of_int giveups /. float_of_int rounds));
  ]
  @ List.map
      (fun r -> ("repair.giveups_" ^ r, Int (d ("mcmf_incremental_giveup_" ^ r ^ "_total"))))
      giveup_reasons
  @ [
      ("repair.mean_ms", Num (hist_mean_ms a b "mcmf_incremental_repair_ns"));
      ("relax.pushes", Num (per_round "mcmf_relaxation_pushes_total"));
      ("cs.pushes", Num (per_round "mcmf_cost_scaling_pushes_total"));
      ("cs.relabels", Num (per_round "mcmf_cost_scaling_relabels_total"));
      ("refine.certified", Num (per_round "mcmf_price_refine_certified_total"));
      ( "graph.changes_per_round",
        Num
          (List.fold_left
             (fun acc k -> acc +. per_round ("sched_graph_" ^ k ^ "_changes_total"))
             0.
             [ "structural"; "capacity"; "supply"; "cost" ]) );
    ]
