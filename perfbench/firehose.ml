(* The firehose workload: the shipped firmament_serve daemon as a child
   process with 1,000 machines (16 slots each), driven over its wire
   protocol by this open-loop client.

   Set-up spawns the daemon and preloads it to 50% with long-running
   8-task jobs. The window then offers 8-task jobs of 1 s tasks at a fixed
   nominal rate (placement latency), then climbs a rate ladder
   (max_rate_eps). Every task is timed from its *due* send time, so a
   stalled generator shows up as latency; its lateness is reported too.
   The client uses one process and two connections, the first of which
   subscribes to placement pushes. *)

module P = Server.Protocol

let machines = 1000
let slots = 16
let tasks_per_job = 8
let preload_jobs = machines * slots / 2 / tasks_per_job
let preload_chunk = 100
let task_duration_s = 1.0
(* Task events/s (submits plus finishes). The nominal rate sits well below
   the daemon's capacity, where latency is linger plus round time rather
   than queueing that amplifies every speed difference. *)
let nominal_eps = 1000.
let ladder_start_eps = 2000.
let latency_limit_ms = 100. (* 5x the daemon's default 20 ms linger *)
let ladder_step_s = 1.0
let ladder_factor = 1.25
let ladder_max_steps = 12
let ladder_budget_s = 20. (* the ladder stops climbing after this long *)
let ladder_grace_ns = 200_000_000
(* A ladder step stops offering once a job has waited this long: past the
   daemon's capacity, the cluster fills with tasks whose finishes wait on
   their late placements, and an oversubscribed daemon can take tens of
   seconds to work off even a few seconds of excess load. *)
let ladder_abort_ms = 5. *. latency_limit_ms
let depth_sample_s = 1.0
let max_retries = 8
let daemon_batch_max = 1024 (* firmament_serve's default events per round *)

(* {1 Connections} *)

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : Bytes.t;
  mutable inlen : int;
  out : Buffer.t;
  mutable out_off : int;
  mutable alive : bool;
}

let connect_unix path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let make_conn fd =
  Unix.set_nonblock fd;
  { fd; inbuf = Bytes.create 65536; inlen = 0; out = Buffer.create 65536; out_off = 0; alive = true }

let flush c =
  let pending = Buffer.length c.out - c.out_off in
  if pending > 0 && c.alive then begin
    let s = Buffer.sub c.out c.out_off pending in
    match Unix.write_substring c.fd s 0 pending with
    | n -> c.out_off <- c.out_off + n
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error _ -> c.alive <- false
  end;
  if c.out_off = Buffer.length c.out then begin
    Buffer.clear c.out;
    c.out_off <- 0
  end

(* Read what is available and hand every complete frame to [f]. *)
let read_frames c ~on_error f =
  let continue = ref true in
  while !continue && c.alive do
    if c.inlen = Bytes.length c.inbuf then begin
      let bigger = Bytes.create (2 * c.inlen) in
      Bytes.blit c.inbuf 0 bigger 0 c.inlen;
      c.inbuf <- bigger
    end;
    let room = Bytes.length c.inbuf - c.inlen in
    match Unix.read c.fd c.inbuf c.inlen room with
    | 0 -> c.alive <- false
    | n ->
        c.inlen <- c.inlen + n;
        continue := n = room;
        let off = ref 0 and decoding = ref true in
        while !decoding do
          match P.decode c.inbuf ~off:!off ~len:(c.inlen - !off) with
          | `Frame (fr, used) ->
              off := !off + used;
              f fr
          | `Need_more -> decoding := false
          | `Error e ->
              on_error (Format.asprintf "%a" P.pp_error e);
              c.alive <- false;
              decoding := false
        done;
        Bytes.blit c.inbuf !off c.inbuf 0 (c.inlen - !off);
        c.inlen <- c.inlen - !off
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> continue := false
    | exception Unix.Unix_error _ -> c.alive <- false
  done

(* {1 The daemon} *)

type daemon = { pid : int; sock : string; metrics : string }

let spawn ~serve ~file =
  let sock = file "sock" and metrics = file "metrics.sock" and log = file "serve.log" in
  let log_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process serve
      [|
        serve; "--listen"; "unix:" ^ sock; "--metrics-listen"; "unix:" ^ metrics; "--machines";
        string_of_int machines; "--slots"; string_of_int slots;
      |]
      null log_fd log_fd
  in
  Unix.close null;
  Unix.close log_fd;
  { pid; sock; metrics }

(* Connect, retrying while the daemon starts up. *)
let rec connect_retry d ~tries path =
  match connect_unix path with
  | Some fd -> fd
  | None ->
      if tries = 0 then failwith ("firmament_serve did not listen on " ^ path);
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ -> failwith "firmament_serve exited during start-up");
      Unix.sleepf 0.005;
      connect_retry d ~tries:(tries - 1) path

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec wait k =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when k > 0 ->
        Unix.sleepf 0.01;
        wait (k - 1)
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid);
        false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  wait 500

(* One Prometheus scrape of the daemon's registry, as a snapshot table
   with the same keys {!Out.snapshot_registry} produces. *)
let scrape d =
  let fd = connect_retry d ~tries:1000 d.metrics in
  let req = "GET /metrics HTTP/1.0\r\n\r\n" in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let b = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 65536 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
  in
  go ();
  Unix.close fd;
  let h : Out.snap = Hashtbl.create 256 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ k; v ] when k <> "" && k.[0] <> '#' && not (String.contains k '{') -> (
          match int_of_string_opt v with
          | Some v -> Hashtbl.replace h k v
          | None -> ())
      | _ -> ())
    (String.split_on_char '\n' (Buffer.contents b));
  h

(* {1 The client} *)

type task = {
  mutable due : int;  (** ns the job was due to be sent *)
  mutable sent : int;
  mutable acked : int;
  mutable pushed : int;
  mutable running : bool;
}

type pending = { bytes : string; weight : int; job : int option; mutable attempts : int }

type client = {
  conns : conn array;
  mutable next_conn : int;
  mutable next_seq : int;
  inflight : (int, pending) Hashtbl.t;
  retry_q : (int * int) Queue.t;  (* due ns, seq *)
  jobs : (int, task array) Hashtbl.t;  (* jid -> its tasks *)
  finish_q : (int * int) Queue.t;  (* due ns, tid *)
  mutable nacks : int;
  mutable exhausted : int;
  mutable protocol_errors : int;
  mutable duplicates : int;
  mutable sent_events : int;
  mutable shutdown : bool;
  mutable errors : string list;
  rng : Random.State.t;  (** the jobs' locality seeds *)
}

let error c msg = if List.length c.errors < 20 then c.errors <- msg :: c.errors

let send c frame ~seq ~weight ~job =
  let bytes = P.encode frame in
  Hashtbl.replace c.inflight seq { bytes; weight; job; attempts = 0 };
  let k = c.next_conn in
  c.next_conn <- (k + 1) mod Array.length c.conns;
  Buffer.add_string c.conns.(k).out bytes;
  c.sent_events <- c.sent_events + weight

let fresh_seq c =
  let s = c.next_seq in
  c.next_seq <- s + 1;
  s

let submit c ~jid ~duration ~due =
  let locality = Random.State.int c.rng 1_000_000 in
  let seq = fresh_seq c in
  let now = Out.now_ns () in
  let tasks =
    Array.init tasks_per_job (fun _ ->
        { due; sent = now; acked = -1; pushed = -1; running = false })
  in
  Hashtbl.replace c.jobs jid tasks;
  send c
    (P.Submit_job { seq; jid; task_count = tasks_per_job; duration; locality })
    ~seq ~weight:tasks_per_job ~job:(Some jid)

let on_frame c (fr : P.frame) =
  let now = Out.now_ns () in
  match fr with
  | P.Ack { seq } -> (
      match Hashtbl.find_opt c.inflight seq with
      | Some p ->
          Hashtbl.remove c.inflight seq;
          Option.iter
            (fun jid ->
              Array.iter (fun t -> if t.acked < 0 then t.acked <- now) (Hashtbl.find c.jobs jid))
            p.job
      | None -> ())
  | P.Nack { seq; retry_after_ms } -> (
      c.nacks <- c.nacks + 1;
      match Hashtbl.find_opt c.inflight seq with
      | Some p when p.attempts < max_retries && not c.shutdown ->
          p.attempts <- p.attempts + 1;
          Queue.add (now + (max 1 retry_after_ms * 1_000_000), seq) c.retry_q
      | Some _ ->
          Hashtbl.remove c.inflight seq;
          c.exhausted <- c.exhausted + 1
      | None -> ())
  | P.Placement_delta { placements; _ } ->
      List.iter
        (fun (p : P.placement) ->
          match Hashtbl.find_opt c.jobs (p.p_tid / 1000) with
          | None -> error c (Printf.sprintf "push for unknown task %d" p.p_tid)
          | Some tasks -> (
              let t = tasks.(p.p_tid mod 1000) in
              match p.p_kind with
              | P.Start ->
                  if t.running then begin
                    c.duplicates <- c.duplicates + 1;
                    error c (Printf.sprintf "task %d placed twice" p.p_tid)
                  end;
                  t.running <- true;
                  (* the push can overtake its Ack on the other connection *)
                  if t.acked < 0 then t.acked <- now;
                  if t.pushed < 0 then begin
                    t.pushed <- now;
                    Out.span ~track:3 "task.send_to_ack" t.sent t.acked ~args:[ ("task", Out.Int p.p_tid) ];
                    Out.span ~track:4 "task.ack_to_push" t.acked now ~args:[ ("task", Out.Int p.p_tid) ]
                  end;
                  Queue.add (now + int_of_float (task_duration_s *. 1e9), p.p_tid) c.finish_q
              | P.Migrate -> ()
              | P.Preempt -> t.running <- false))
        placements
  | P.Shutdown _ -> c.shutdown <- true
  | P.Protocol_error { message } ->
      c.protocol_errors <- c.protocol_errors + 1;
      error c ("server protocol error: " ^ message)
  | _ ->
      c.protocol_errors <- c.protocol_errors + 1;
      error c "unexpected frame from server"

(* Preload jobs run for the whole run; only later jobs finish. *)
let preloaded jid = jid <= preload_jobs

(* Finishes due by now. *)
let send_finishes c ~now =
  while (not (Queue.is_empty c.finish_q)) && fst (Queue.peek c.finish_q) <= now do
    let _, tid = Queue.pop c.finish_q in
    let t = (Hashtbl.find c.jobs (tid / 1000)).(tid mod 1000) in
    if t.running && not (preloaded (tid / 1000)) then begin
      t.running <- false;
      let seq = fresh_seq c in
      send c (P.Finish_task { seq; tid }) ~seq ~weight:1 ~job:None
    end
  done

let send_retries c ~now =
  while (not (Queue.is_empty c.retry_q)) && fst (Queue.peek c.retry_q) <= now do
    let _, seq = Queue.pop c.retry_q in
    match Hashtbl.find_opt c.inflight seq with
    | Some p ->
        let k = c.next_conn in
        c.next_conn <- (k + 1) mod Array.length c.conns;
        Buffer.add_string c.conns.(k).out p.bytes
    | None -> ()
  done

(* One pass of the client loop: send what is due, flush, wait for input
   at most until [until] ns, and handle every frame that arrived. *)
let pump ?(finishes = true) c ~until =
  let now = Out.now_ns () in
  if finishes then send_finishes c ~now;
  send_retries c ~now;
  Array.iter flush c.conns;
  let wait = Float.max 0. (float_of_int (until - Out.now_ns ()) *. 1e-9) in
  let fds = Array.to_list (Array.map (fun k -> k.fd) c.conns) in
  let want_write =
    List.filter_map
      (fun k -> if Buffer.length k.out > k.out_off then Some k.fd else None)
      (Array.to_list c.conns)
  in
  match Unix.select fds want_write [] (Float.min wait 0.05) with
  | readable, _, _ ->
      Array.iter
        (fun k ->
          if List.mem k.fd readable then
            read_frames k ~on_error:(fun m -> c.protocol_errors <- c.protocol_errors + 1; error c m) (on_frame c))
        c.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let pump_until c ~until =
  while Out.now_ns () < until do
    pump c ~until
  done

let unplaced c ~jids =
  List.fold_left
    (fun acc jid ->
      match Hashtbl.find_opt c.jobs jid with
      | Some tasks -> acc + Array.fold_left (fun a t -> if t.pushed < 0 then a + 1 else a) 0 tasks
      | None -> acc)
    0 jids

(* {1 Load phases} *)

(* Offer [eps] task events/s for [seconds] starting at [t0]: one 8-task
   job every [16 / eps] s (each task is a submit and, 1 s later, a
   finish). With [abort_ms], stop offering once a job of this phase has
   waited that long for its placements. Returns the next free job id, the
   jobs it submitted, and whether it offered all of them. *)
let offer ?abort_ms c ~first_jid ~eps ~t0 ~seconds =
  let interval = 1e9 *. float_of_int (2 * tasks_per_job) /. eps in
  let n = int_of_float (seconds *. 1e9 /. interval) in
  let until = t0 + int_of_float (seconds *. 1e9) in
  let jids = ref [] in
  let k = ref 0 in
  let oldest = ref first_jid in  (* first submitted job not yet placed *)
  let stalled () =
    match abort_ms with
    | None -> false
    | Some ms ->
        while !oldest < first_jid + !k && unplaced c ~jids:[ !oldest ] = 0 do
          incr oldest
        done;
        !oldest < first_jid + !k
        && Out.ms_of_ns (Out.now_ns () - (Hashtbl.find c.jobs !oldest).(0).due) > ms
  in
  while !k < n && not (stalled ()) do
    let due = t0 + int_of_float (float_of_int !k *. interval) in
    let now = Out.now_ns () in
    if due <= now then begin
      let jid = first_jid + !k in
      submit c ~jid ~duration:task_duration_s ~due;
      jids := jid :: !jids;
      incr k
    end
    else pump c ~until:due
  done;
  pump_until c ~until;
  (first_jid + !k, List.rev !jids, !k = n)

let latencies c jids f =
  List.concat_map
    (fun jid ->
      Array.to_list (Hashtbl.find c.jobs jid)
      |> List.filter_map (fun t -> if t.pushed >= 0 then f t else None))
    jids

let quantile q l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(min (n - 1) (int_of_float (q *. float_of_int n)))

let run ~serve ~seed ~seconds ~trace ~sample_depth ~ladder ~t_start ~file =
  let d = spawn ~serve ~file in
  Fun.protect
    ~finally:(fun () -> ignore (stop d))
    (fun () ->
      let conns =
        Array.init 2 (fun _ -> make_conn (connect_retry d ~tries:2000 d.sock))
      in
      let c =
        {
          conns;
          next_conn = 0;
          next_seq = 1;
          inflight = Hashtbl.create 4096;
          retry_q = Queue.create ();
          jobs = Hashtbl.create 65536;
          finish_q = Queue.create ();
          nacks = 0;
          exhausted = 0;
          protocol_errors = 0;
          duplicates = 0;
          sent_events = 0;
          shutdown = false;
          errors = [];
          rng = Random.State.make [| seed; 91 |];
        }
      in
      Buffer.add_string conns.(0).out (P.encode (P.Subscribe { seq = 0 }));
      (* Preload to 50% with long-running jobs, in chunks so no single
         round has to place the whole cluster. *)
      let all_preload = List.init preload_jobs (fun i -> i + 1) in
      let rec preload from =
        if from <= preload_jobs then begin
          let upto = min preload_jobs (from + preload_chunk - 1) in
          let now = Out.now_ns () in
          for jid = from to upto do
            submit c ~jid ~duration:1e6 ~due:now
          done;
          let jids = List.init (upto - from + 1) (fun i -> from + i) in
          let deadline = now + 30_000_000_000 in
          while unplaced c ~jids > 0 && Out.now_ns () < deadline do
            pump c ~until:(Out.now_ns () + 50_000_000)
          done;
          preload (upto + 1)
        end
      in
      preload 1;
      if unplaced c ~jids:all_preload > 0 then error c "preload did not place every task";
      let first = preload_jobs + 1 in
      (* Unmeasured warm-up at the nominal rate. *)
      let next, _, _ =
        offer c ~first_jid:first ~eps:nominal_eps ~t0:(Out.now_ns ()) ~seconds:1.0
      in
      let t_timed = Out.now_ns () in
      let setup_s = float_of_int (t_timed - t_start) *. 1e-9 in
      let reg0 = scrape d in
      let rss0 = Out.rss_mb (string_of_int d.pid) in
      (* Nominal phase: placement latency. With [sample_depth] it is offered
         in slices and the admission queue depth is scraped between them;
         otherwise the daemon is left alone until the window ends. *)
      Out.tracing := trace;
      let slices = if sample_depth then max 1 (int_of_float (seconds /. depth_sample_s)) else 1 in
      let slice_s = seconds /. float_of_int slices in
      let rec nominal k next jids depth =
        if k = slices then (next, List.concat (List.rev jids), depth)
        else begin
          let next, js, _ =
            offer c ~first_jid:next ~eps:nominal_eps
              ~t0:(t_timed + int_of_float (float_of_int k *. slice_s *. 1e9))
              ~seconds:slice_s
          in
          nominal (k + 1) next (js :: jids) (max depth (Out.get (scrape d) "srv_queue_depth"))
        end
      in
      let next, nominal_jids, depth_max = nominal 0 next [] 0 in
      Out.tracing := false;
      let reg1 = scrape d in
      (* Rate ladder (when asked for): each step must offer all its load
         without a job waiting past [ladder_abort_ms], keep p90 within the
         limit, counting a task still unplaced after the grace as over
         it, draw no NACK and end with no more queued than it started
         with or one round's batch, whichever is larger. *)
      let ladder_end = Out.now_ns () + int_of_float (ladder_budget_s *. 1e9) in
      let rec climb next eps best steps =
        if List.length steps = ladder_max_steps || Out.now_ns () > ladder_end then
          (next, best, steps)
        else begin
          let nacks0 = c.nacks in
          let q0 = Out.get (scrape d) "srv_queue_depth" in
          let next', jids, offered_all =
            offer ~abort_ms:ladder_abort_ms c ~first_jid:next ~eps ~t0:(Out.now_ns ())
              ~seconds:ladder_step_s
          in
          let q1 = Out.get (scrape d) "srv_queue_depth" in
          pump_until c ~until:(Out.now_ns () + ladder_grace_ns);
          let p90 =
            quantile 0.9
              (List.concat_map
                 (fun jid ->
                   Array.to_list (Hashtbl.find c.jobs jid)
                   |> List.map (fun t ->
                          if t.pushed < 0 then infinity else Out.ms_of_ns (t.pushed - t.due)))
                 jids)
          in
          let ok =
            offered_all && p90 <= latency_limit_ms && c.nacks = nacks0
            && q1 <= max q0 daemon_batch_max
          in
          let steps = (eps, p90, ok) :: steps in
          if ok then climb next' (eps *. ladder_factor) eps steps else (next', best, steps)
        end
      in
      let next, max_rate, steps =
        if ladder then climb next ladder_start_eps 0. []
        else (next, nan, [])
      in
      let reg2 = scrape d in
      let rss1 = Out.rss_mb (string_of_int d.pid) in
      (* Drain: every acked job must be placed and every event acked;
         no more finishes are sent. The deadline leaves room for the
         daemon to work off a ladder step past its capacity. *)
      let all = List.init (next - 1) (fun i -> i + 1) in
      let deadline = Out.now_ns () + 60_000_000_000 in
      while
        (unplaced c ~jids:all > 0 || Hashtbl.length c.inflight > 0) && Out.now_ns () < deadline
      do
        pump ~finishes:false c ~until:(Out.now_ns () + 50_000_000)
      done;
      let lost = unplaced c ~jids:all in
      if lost > 0 then error c (Printf.sprintf "%d acked tasks never placed" lost);
      if Hashtbl.length c.inflight > 0 then
        error c (Printf.sprintf "%d events never acked" (Hashtbl.length c.inflight));
      if c.protocol_errors > 0 then error c "protocol errors";
      let peak = Out.peak_rss_mb (string_of_int d.pid) in
      let lat f = latencies c nominal_jids f in
      let placement = lat (fun t -> Some (Out.ms_of_ns (t.pushed - t.due))) in
      let med l = quantile 0.5 l in
      let dd = Out.delta reg0 reg1 in
      let mean_of name =
        let n = dd (name ^ "_count") in
        if n = 0 then 0. else float_of_int (dd (name ^ "_sum")) /. float_of_int n
      in
      Out.Obj
        [
          ("setup_s", Out.Num setup_s);
          ("window_s", Out.Num (float_of_int (Out.now_ns () - t_timed) *. 1e-9));
          ("placement_ms", Out.Floats placement);
          ("max_rate_eps", Out.Num max_rate);
          ( "ladder",
            Out.Arr
              (List.rev_map
                 (fun (eps, p90, ok) -> Out.Arr [ Out.Num eps; Out.Num p90; Out.Bool ok ])
                 steps) );
          ("peak_rss_mb", Out.Num peak);
          ("attempted", Out.Int c.sent_events);
          ("failed", Out.Int (c.exhausted + c.protocol_errors + c.duplicates + lost));
          ("errors", Out.Arr (List.rev_map (fun e -> Out.Str e) c.errors));
          ( "layers",
            Out.Obj
              (Out.registry_layers reg0 reg1
              @ [
                  ("srv.admission_wait_ms", Out.Num (Out.hist_mean_ms reg0 reg1 "srv_admission_wait_ns"));
                  ("srv.round_ms", Out.Num (Out.hist_mean_ms reg0 reg1 "srv_round_ns"));
                  ("srv.submit_to_push_ms", Out.Num (Out.hist_mean_ms reg0 reg1 "srv_submit_to_push_ns"));
                  ( "srv.nack_frac",
                    Out.Num
                      (float_of_int (Out.delta reg0 reg2 "srv_events_nacked_total")
                      /. float_of_int
                           (max 1
                              (Out.delta reg0 reg2 "srv_events_admitted_total"
                              + Out.delta reg0 reg2 "srv_events_nacked_total"))) );
                  ("srv.queue_depth_max", if sample_depth then Out.Int depth_max else Out.Num nan);
                  ("srv.rss_growth_mb", Out.Num (rss1 -. rss0));
                  ("ingest.events_per_round", Out.Num (mean_of "srv_batch_size"));
                  ( "client.send_to_ack_ms",
                    Out.Num (med (lat (fun t -> Some (Out.ms_of_ns (t.acked - t.sent))))) );
                  ( "client.ack_to_push_ms",
                    Out.Num (med (lat (fun t -> Some (Out.ms_of_ns (t.pushed - t.acked))))) );
                  ( "client.late_ms_p90",
                    Out.Num (quantile 0.9 (lat (fun t -> Some (Out.ms_of_ns (t.sent - t.due))))) );
                ]) );
        ])
