module S = Firmament.Scheduler
module W = Cluster.Workload
module P = Protocol

(* {1 Telemetry} *)

let m = Telemetry.Metrics.global ()

let m_connections_total =
  Telemetry.Metrics.counter m ~help:"client connections accepted"
    "srv_connections_total"

let m_connections_active =
  Telemetry.Metrics.gauge m ~help:"client connections currently open"
    "srv_connections_active"

let m_frames_in =
  Telemetry.Metrics.counter m ~help:"frames decoded from clients"
    "srv_frames_in_total"

let m_frames_out =
  Telemetry.Metrics.counter m ~help:"frames enqueued to clients"
    "srv_frames_out_total"

let m_protocol_errors =
  Telemetry.Metrics.counter m
    ~help:"malformed frames (connection rejected, server kept serving)"
    "srv_protocol_errors_total"

let m_events_admitted =
  Telemetry.Metrics.counter m ~help:"events accepted into the admission queue"
    "srv_events_admitted_total"

let m_events_nacked =
  Telemetry.Metrics.counter m
    ~help:"events refused with a NACK (admission queue full or shutting down)"
    "srv_events_nacked_total"

let m_events_applied =
  Telemetry.Metrics.counter m ~help:"admitted events applied to the scheduler"
    "srv_events_applied_total"

let m_events_dropped =
  Telemetry.Metrics.counter m
    ~help:"admitted events dropped as inapplicable (unknown task, dead \
           machine, duplicate job id, out-of-range machine id)"
    "srv_events_dropped_total"

let m_events_dropped_shutdown =
  Telemetry.Metrics.counter m
    ~help:"admitted events discarded by the shutdown drain"
    "srv_events_dropped_shutdown_total"

let m_queue_depth =
  Telemetry.Metrics.gauge m ~help:"admission queue depth" "srv_queue_depth"

let m_admission_wait_ns =
  Telemetry.Metrics.histogram m
    ~help:"admission-to-application wait per event (ns)" "srv_admission_wait_ns"

let m_batches =
  Telemetry.Metrics.counter m ~help:"admission batches applied" "srv_batches_total"

let m_batch_size =
  Telemetry.Metrics.histogram m ~help:"events per admission batch"
    "srv_batch_size"

let m_rounds =
  Telemetry.Metrics.counter m ~help:"scheduling rounds committed by the service"
    "srv_rounds_total"

let m_round_ns =
  Telemetry.Metrics.histogram m ~help:"begin-to-commit round wall time (ns)"
    "srv_round_ns"

let m_placements_pushed =
  Telemetry.Metrics.counter m ~help:"placements pushed to subscribers"
    "srv_placements_pushed_total"

let m_subscribers =
  Telemetry.Metrics.gauge m ~help:"current placement subscribers"
    "srv_subscribers"

let m_submit_to_push_ns =
  Telemetry.Metrics.histogram m
    ~help:"admission-to-placement-push latency per started task (ns)"
    "srv_submit_to_push_ns"

let m_slow_consumer_drops =
  Telemetry.Metrics.counter m
    ~help:"connections dropped for exceeding the outbound buffer cap"
    "srv_slow_consumer_drops_total"

let m_shutdowns =
  Telemetry.Metrics.counter m ~help:"graceful shutdown drains completed"
    "srv_shutdowns_total"

(* {1 Config} *)

type listen = Tcp of string * int | Unix_path of string

let listen_of_string s =
  match String.index_opt s ':' with
  | Some 4 when String.length s > 5 && String.sub s 0 5 = "unix:" ->
      Ok (Unix_path (String.sub s 5 (String.length s - 5)))
  | Some _ -> (
      match String.rindex_opt s ':' with
      | Some i -> (
          let host = String.sub s 0 i in
          let port = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt port with
          | Some p when p > 0 && p < 65536 ->
              Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
          | _ -> Error (Printf.sprintf "invalid port %S" port))
      | None -> assert false)
  | None -> Error (Printf.sprintf "expected HOST:PORT or unix:PATH, got %S" s)

let pp_listen ppf = function
  | Tcp (h, p) -> Format.fprintf ppf "%s:%d" h p
  | Unix_path p -> Format.fprintf ppf "unix:%s" p

type config = {
  listen : listen;
  metrics_listen : listen option;
  machines : int;
  machines_per_rack : int;
  slots_per_machine : int;
  scheduler : S.config;
  policy : Firmament.Policy.factory;
  batch_max : int;
  queue_capacity : int;
  max_out_buffer : int;
  shutdown_grace_s : float;
  snapshot_path : string option;
  restore : bool;
}

let default_config =
  {
    listen = Tcp ("127.0.0.1", 7117);
    metrics_listen = None;
    machines = 250;
    machines_per_rack = 8;
    slots_per_machine = 16;
    scheduler = S.default_config;
    policy = (fun ~drain net st -> Firmament.Policy_quincy.make ~drain net st);
    batch_max = 1024;
    queue_capacity = 4096;
    max_out_buffer = 8 * 1024 * 1024;
    shutdown_grace_s = 1.0;
    snapshot_path = None;
    restore = false;
  }

(* {1 Connections} *)

type conn = {
  cid : int;
  fd : Unix.file_descr;
  mutable inbuf : Bytes.t;
  mutable inlen : int;
  out : Buffer.t;
  mutable out_off : int;
  mutable closing : bool;  (* flush remaining output, then close *)
  mutable alive : bool;
}

type ev =
  | Ev_submit of { jid : int; tasks : int; duration : float; locality : int }
  | Ev_finish of int
  | Ev_preempt of int
  | Ev_fail of int
  | Ev_restore of int

type admitted = { ev : ev; t_admit_ns : int }

type t = {
  cfg : config;
  listener : Unix.file_descr;
  metrics_listener : Unix.file_descr option;
  sched : S.t;
  clu : Cluster.State.t;
  queue : admitted Admission.t;
  hub : Hub.t;
  conns : (int, conn) Hashtbl.t;
  http_conns : (int, conn) Hashtbl.t;
  mutable next_cid : int;
  t0_ns : int;
  mutable last_round_ns : int;
  mutable last_round_wall_ns : int;
  submit_ns : (int, int) Hashtbl.t;  (* tid -> admission ns, until first start *)
  writer : Firmament.Snapshot.Writer.t option;
  now_offset : float;  (* restored snapshot clock; the service clock resumes here *)
  mutable shutdown_requested : bool;
  mutable finished : bool;
  mutable rounds : int;
}

let now_ns () = Telemetry.Clock.now_ns ()
let now_s t = t.now_offset +. (float_of_int (now_ns () - t.t0_ns) *. 1e-9)

let journal t ev =
  match t.writer with
  | Some w -> Firmament.Snapshot.Writer.event w ev
  | None -> ()

let bind_listener = function
  | Tcp (host, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 128;
      Unix.set_nonblock fd;
      fd
  | Unix_path path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 128;
      Unix.set_nonblock fd;
      fd

let create cfg =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* With [restore], the snapshot's recorded topology and clock are
     authoritative: the scheduler resumes warm-started exactly where the
     previous incarnation left off; [cfg.machines] is corrected to match
     so event bounds-checks agree with the restored cluster. *)
  let sched, now_offset =
    match cfg.snapshot_path with
    | Some path when cfg.restore && Sys.file_exists path ->
        let { Firmament.Snapshot.scheduler; now } =
          Firmament.Snapshot.restore_file ~config:cfg.scheduler
            ~policy:cfg.policy path
        in
        (scheduler, now)
    | _ ->
        let topo =
          Cluster.Topology.make ~machines:cfg.machines
            ~machines_per_rack:cfg.machines_per_rack
            ~slots_per_machine:cfg.slots_per_machine ()
        in
        let clu = Cluster.State.create topo in
        (S.create ~config:cfg.scheduler clu ~policy:cfg.policy, 0.)
  in
  let clu = S.cluster sched in
  let cfg =
    {
      cfg with
      machines =
        Cluster.Topology.machine_count (Cluster.State.topology clu);
    }
  in
  (* A fresh base image on every start: for a restored server this is the
     rebase folding the old journal in; for a fresh one it is the initial
     (empty-cluster) snapshot. *)
  let writer =
    Option.map
      (fun path ->
        Firmament.Snapshot.Writer.to_file ~path sched ~now:now_offset)
      cfg.snapshot_path
  in
  let listener = bind_listener cfg.listen in
  let metrics_listener = Option.map bind_listener cfg.metrics_listen in
  let t0 = now_ns () in
  {
    cfg;
    listener;
    metrics_listener;
    sched;
    clu;
    queue = Admission.create ~capacity:cfg.queue_capacity;
    hub = Hub.create ();
    conns = Hashtbl.create 64;
    http_conns = Hashtbl.create 4;
    next_cid = 0;
    t0_ns = t0;
    last_round_ns = t0;
    last_round_wall_ns = 0;
    submit_ns = Hashtbl.create 4096;
    writer;
    now_offset;
    shutdown_requested = false;
    finished = false;
    rounds = 0;
  }

let scheduler t = t.sched
let cluster t = t.clu
let rounds_committed t = t.rounds
let connections t = Hashtbl.length t.conns
let queued t = Admission.length t.queue
let request_shutdown t = t.shutdown_requested <- true
let finished t = t.finished

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_conn t conn =
  if conn.alive then begin
    conn.alive <- false;
    Hub.unsubscribe t.hub ~id:conn.cid;
    Telemetry.Metrics.set m m_subscribers (Hub.count t.hub);
    Hashtbl.remove t.conns conn.cid;
    Hashtbl.remove t.http_conns conn.cid;
    close_fd conn.fd;
    Telemetry.Metrics.set m m_connections_active (Hashtbl.length t.conns)
  end

let out_pending conn = Buffer.length conn.out - conn.out_off

(* Enqueue bytes; a consumer that lets its buffer exceed the cap is
   dropped — a wedged subscriber must not hold round results hostage. *)
let enqueue t conn s =
  if conn.alive then begin
    if out_pending conn + String.length s > t.cfg.max_out_buffer then begin
      Telemetry.Metrics.incr m m_slow_consumer_drops;
      close_conn t conn
    end
    else Buffer.add_string conn.out s
  end

let send_frame t conn f =
  Telemetry.Metrics.incr m m_frames_out;
  enqueue t conn (P.encode f)

let flush_conn t conn =
  let rec go () =
    let pending = out_pending conn in
    if pending > 0 then begin
      let chunk = min pending 65536 in
      let s = Buffer.sub conn.out conn.out_off chunk in
      match Unix.write_substring conn.fd s 0 chunk with
      | n ->
          conn.out_off <- conn.out_off + n;
          if n = chunk then go ()
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          close_conn t conn
    end
  in
  go ();
  if conn.alive && out_pending conn = 0 then begin
    Buffer.clear conn.out;
    conn.out_off <- 0;
    if conn.closing then close_conn t conn
  end

(* {1 Event application} *)

(* Mirrors the fuzz harness's churn interpretation: synthetic locality
   blocks derived from the submit's locality seed, tid = jid*1000+i. A
   submit is a duplicate while the cluster holds a live job with its id;
   once every task of that job has finished, the id is free again. *)
let apply_submit t ~jid ~tasks ~duration ~locality ~t_admit_ns =
  if Option.is_some (Cluster.State.job_opt t.clu jid) then
    Telemetry.Metrics.incr m m_events_dropped
  else begin
    let now = now_s t in
    let machines = t.cfg.machines in
    let task_arr =
      Array.init tasks (fun i ->
          let block b = (locality + (i * 7) + (b * 13)) mod machines in
          let tid = (jid * 1000) + i in
          Hashtbl.replace t.submit_ns tid t_admit_ns;
          W.make_task ~tid ~job:jid ~submit_time:now ~duration
            ~input_mb:(float_of_int (100 + (100 * (locality mod 8))))
            ~input_machines:[ block 0; block 1; block 2 ]
            ())
    in
    let klass =
      if locality mod 5 = 0 then Cluster.Types.Service else Cluster.Types.Batch
    in
    let job = W.make_job ~jid ~klass ~submit_time:now ~tasks:task_arr in
    S.submit_job t.sched job;
    journal t (Firmament.Snapshot.Job job)
  end

let task_running t tid =
  match Cluster.State.task_opt t.clu tid with
  | Some task -> W.is_running task
  | None -> false

let apply_event t (a : admitted) =
  Telemetry.Metrics.observe m m_admission_wait_ns (now_ns () - a.t_admit_ns);
  Telemetry.Metrics.incr m m_events_applied;
  match a.ev with
  | Ev_submit { jid; tasks; duration; locality } ->
      apply_submit t ~jid ~tasks ~duration ~locality ~t_admit_ns:a.t_admit_ns
  | Ev_finish tid ->
      if task_running t tid then begin
        let now = now_s t in
        S.finish_task t.sched tid ~now;
        Hashtbl.remove t.submit_ns tid;
        journal t (Firmament.Snapshot.Finish (tid, now))
      end
      else Telemetry.Metrics.incr m m_events_dropped
  | Ev_preempt tid ->
      if task_running t tid then begin
        S.preempt_task t.sched tid;
        journal t (Firmament.Snapshot.Preempt tid)
      end
      else Telemetry.Metrics.incr m m_events_dropped
  | Ev_fail mid ->
      if mid >= 0 && mid < t.cfg.machines && Cluster.State.machine_is_live t.clu mid
      then begin
        S.fail_machine t.sched mid;
        journal t (Firmament.Snapshot.Fail_machine mid)
      end
      else Telemetry.Metrics.incr m m_events_dropped
  | Ev_restore mid ->
      if
        mid >= 0 && mid < t.cfg.machines
        && not (Cluster.State.machine_is_live t.clu mid)
      then begin
        S.restore_machine t.sched mid;
        journal t (Firmament.Snapshot.Restore_machine mid)
      end
      else Telemetry.Metrics.incr m m_events_dropped

let drain_apply t ~max_events =
  let applied = ref 0 in
  let continue = ref true in
  while !continue && !applied < max_events do
    match Admission.pop t.queue with
    | None -> continue := false
    | Some a ->
        apply_event t a;
        incr applied
  done;
  Telemetry.Metrics.set m m_queue_depth (Admission.length t.queue);
  !applied

(* {1 Round driving} *)

let push_placements t (r : S.round) =
  let placements =
    List.map
      (fun (tid, mm) -> { P.p_tid = tid; p_kind = P.Start; p_machine = mm; p_from = -1 })
      r.S.started
    @ List.map
        (fun (tid, mfrom, mto) ->
          { P.p_tid = tid; p_kind = P.Migrate; p_machine = mto; p_from = mfrom })
        r.S.migrated
    @ List.map
        (fun tid -> { P.p_tid = tid; p_kind = P.Preempt; p_machine = -1; p_from = -1 })
        r.S.preempted
  in
  let t_now = now_ns () in
  List.iter
    (fun (tid, _) ->
      match Hashtbl.find_opt t.submit_ns tid with
      | Some t_admit ->
          Telemetry.Metrics.observe m m_submit_to_push_ns (t_now - t_admit);
          Hashtbl.remove t.submit_ns tid
      | None -> ())
    r.S.started;
  match placements with
  | [] -> ()
  | _ when Hub.count t.hub = 0 -> ()
  | _ ->
      (* Placement_delta caps its count field at 65535; chunk huge rounds. *)
      let rec chunks acc = function
        | [] -> List.rev acc
        | l ->
            let rec take n acc l =
              match (n, l) with
              | 0, rest | _, ([] as rest) -> (List.rev acc, rest)
              | n, x :: rest -> take (n - 1) (x :: acc) rest
            in
            let chunk, rest = take 60_000 [] l in
            chunks (chunk :: acc) rest
      in
      List.iter
        (fun chunk ->
          let bytes =
            P.encode (P.Placement_delta { round = t.rounds; placements = chunk })
          in
          let n = Hub.broadcast t.hub bytes in
          Telemetry.Metrics.add m m_frames_out n;
          Telemetry.Metrics.add m m_placements_pushed (n * List.length chunk))
        (chunks [] placements)

let run_round t =
  let t0 = now_ns () in
  let now = now_s t in
  let r = S.schedule t.sched ~now in
  (match t.writer with
  | Some w -> Firmament.Snapshot.Writer.round w r ~now
  | None -> ());
  t.rounds <- t.rounds + 1;
  let t_now = now_ns () in
  t.last_round_ns <- t_now;
  t.last_round_wall_ns <- t_now - t0;
  Telemetry.Metrics.incr m m_rounds;
  Telemetry.Metrics.observe m m_round_ns (t_now - t0);
  push_placements t r

(* Spacing of backlog-only rounds: tasks wait, no event is queued, and
   only a retry can place them (an oversubscribed cluster). *)
let backlog_interval_s = 0.02

(* Work-conserving: any queued event starts a round in this step, so a
   batch is whatever reached the socket buffers while the previous round
   ran, capped at [batch_max]. *)
let drive_rounds t =
  let backlog () =
    Cluster.State.waiting_count t.clu > 0
    && float_of_int (now_ns () - t.last_round_ns) *. 1e-9 >= backlog_interval_s
  in
  if (not (Admission.is_empty t.queue)) || backlog () then begin
    let applied = drain_apply t ~max_events:t.cfg.batch_max in
    Telemetry.Metrics.incr m m_batches;
    Telemetry.Metrics.observe m m_batch_size applied;
    run_round t
  end

(* {1 Frame handling} *)

let stats_json t =
  let waiting = Cluster.State.waiting_count t.clu in
  let live = Cluster.State.live_task_count t.clu in
  Printf.sprintf
    "{\"uptime_s\":%.3f,\"rounds\":%d,\"machines\":%d,\"waiting\":%d,\"running\":%d,\"queue_depth\":%d,\"connections\":%d,\"subscribers\":%d,\"utilization\":%.4f}"
    (now_s t) t.rounds t.cfg.machines waiting (live - waiting)
    (Admission.length t.queue)
    (Hashtbl.length t.conns) (Hub.count t.hub)
    (Cluster.State.utilization t.clu)

(* A full queue empties at about one [batch_max] per round, so retry
   after two rounds as long as the last one. *)
let retry_after_ms t = max 1 (2 * t.last_round_wall_ns / 1_000_000)

let reject_conn t conn message =
  Telemetry.Metrics.incr m m_protocol_errors;
  send_frame t conn (P.Protocol_error { message });
  conn.closing <- true

let admit t conn ~seq ev =
  if t.shutdown_requested then begin
    Telemetry.Metrics.incr m m_events_nacked;
    send_frame t conn (P.Nack { seq; retry_after_ms = 0 })
  end
  else if Admission.push t.queue { ev; t_admit_ns = now_ns () } then begin
    Telemetry.Metrics.incr m m_events_admitted;
    Telemetry.Metrics.set m m_queue_depth (Admission.length t.queue);
    send_frame t conn (P.Ack { seq })
  end
  else begin
    Telemetry.Metrics.incr m m_events_nacked;
    send_frame t conn (P.Nack { seq; retry_after_ms = retry_after_ms t })
  end

let handle_frame t conn (f : P.frame) =
  Telemetry.Metrics.incr m m_frames_in;
  match f with
  | P.Submit_job { seq; jid; task_count; duration; locality } ->
      admit t conn ~seq (Ev_submit { jid; tasks = task_count; duration; locality })
  | P.Finish_task { seq; tid } -> admit t conn ~seq (Ev_finish tid)
  | P.Preempt_task { seq; tid } -> admit t conn ~seq (Ev_preempt tid)
  | P.Fail_machine { seq; machine } -> admit t conn ~seq (Ev_fail machine)
  | P.Restore_machine { seq; machine } -> admit t conn ~seq (Ev_restore machine)
  | P.Subscribe { seq } ->
      Hub.subscribe t.hub ~id:conn.cid ~send:(fun bytes -> enqueue t conn bytes);
      Telemetry.Metrics.set m m_subscribers (Hub.count t.hub);
      send_frame t conn (P.Ack { seq })
  | P.Stats_query { seq } ->
      send_frame t conn (P.Stats_reply { seq; json = stats_json t })
  | P.Ack _ | P.Nack _ | P.Placement_delta _ | P.Stats_reply _ | P.Shutdown _
  | P.Protocol_error _ ->
      reject_conn t conn "unexpected server-role frame from client"

let in_cap = P.header_size + P.max_payload

let handle_readable t conn =
  (* Read what the kernel has, then decode as many frames as arrived. *)
  let progress = ref true in
  while !progress && conn.alive && not conn.closing do
    progress := false;
    if conn.inlen = Bytes.length conn.inbuf && conn.inlen < in_cap then begin
      let bigger = Bytes.create (min in_cap (max 4096 (2 * conn.inlen))) in
      Bytes.blit conn.inbuf 0 bigger 0 conn.inlen;
      conn.inbuf <- bigger
    end;
    let room = Bytes.length conn.inbuf - conn.inlen in
    if room > 0 then begin
      match Unix.read conn.fd conn.inbuf conn.inlen room with
      | 0 -> close_conn t conn
      | n ->
          conn.inlen <- conn.inlen + n;
          progress := n = room;
          let off = ref 0 in
          let decoding = ref true in
          while !decoding && conn.alive && not conn.closing do
            match P.decode conn.inbuf ~off:!off ~len:(conn.inlen - !off) with
            | `Frame (f, consumed) ->
                off := !off + consumed;
                handle_frame t conn f
            | `Need_more -> decoding := false
            | `Error e ->
                reject_conn t conn (Format.asprintf "%a" P.pp_error e);
                decoding := false
          done;
          if !off > 0 then begin
            Bytes.blit conn.inbuf !off conn.inbuf 0 (conn.inlen - !off);
            conn.inlen <- conn.inlen - !off
          end
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          close_conn t conn
    end
    else if conn.inlen >= in_cap then
      (* A frame larger than header+max_payload can never decode; the
         decoder has necessarily reported Oversized already. *)
      close_conn t conn
  done

(* {1 Prometheus scrape endpoint} *)

let handle_http_readable t conn =
  match Unix.read conn.fd conn.inbuf conn.inlen (Bytes.length conn.inbuf - conn.inlen) with
  | 0 -> close_conn t conn
  | n ->
      conn.inlen <- conn.inlen + n;
      let req = Bytes.sub_string conn.inbuf 0 conn.inlen in
      (* Serve any complete GET request; we only have one resource. *)
      let complete =
        let len = String.length req in
        len >= 4 && String.sub req (len - 4) 4 = "\r\n\r\n"
      in
      if complete then begin
        let body = Telemetry.Export.prometheus_string (Telemetry.Metrics.global ()) in
        let resp =
          Printf.sprintf
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: %d\r\n\r\n%s"
            (String.length body) body
        in
        enqueue t conn resp;
        conn.closing <- true
      end
      else if conn.inlen = Bytes.length conn.inbuf then close_conn t conn
  | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      close_conn t conn

(* {1 Accept} *)

let accept_loop t listener ~http =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true listener with
    | fd, _addr ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        let cid = t.next_cid in
        t.next_cid <- cid + 1;
        let conn =
          {
            cid;
            fd;
            inbuf = Bytes.create 4096;
            inlen = 0;
            out = Buffer.create 4096;
            out_off = 0;
            closing = false;
            alive = true;
          }
        in
        if http then Hashtbl.replace t.http_conns cid conn
        else begin
          Hashtbl.replace t.conns cid conn;
          Telemetry.Metrics.incr m m_connections_total;
          Telemetry.Metrics.set m m_connections_active (Hashtbl.length t.conns)
        end
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* {1 Shutdown drain} *)

let do_shutdown t =
  (* 1. Remaining admitted-but-unapplied events are dropped, visibly.
     No round is ever in flight between steps: {!drive_rounds} commits
     each round in the step that starts it. *)
  let dropped = Admission.length t.queue in
  if dropped > 0 then begin
    Telemetry.Metrics.add m m_events_dropped_shutdown dropped;
    while not (Admission.is_empty t.queue) do
      ignore (Admission.pop t.queue)
    done
  end;
  Telemetry.Metrics.set m m_queue_depth 0;
  (* 2. Orderly goodbye on every connection, then a bounded flush. *)
  let goodbye = P.encode (P.Shutdown { reason = "server shutting down" }) in
  let live = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter
    (fun c ->
      Telemetry.Metrics.incr m m_frames_out;
      enqueue t c goodbye;
      c.closing <- true)
    live;
  let deadline = now_ns () + int_of_float (t.cfg.shutdown_grace_s *. 1e9) in
  let rec flush_all () =
    let pending =
      Hashtbl.fold (fun _ c acc -> if out_pending c > 0 then c :: acc else acc)
        t.conns []
    in
    if pending <> [] && now_ns () < deadline then begin
      let wfds = List.map (fun c -> c.fd) pending in
      (match Unix.select [] wfds [] 0.05 with
      | _, w, _ ->
          List.iter
            (fun c -> if List.mem c.fd w then flush_conn t c)
            pending
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      flush_all ()
    end
  in
  flush_all ();
  (* 3. Snapshot-on-shutdown: fold the journal into a fresh base image so
     the next incarnation restores without replay, then release the file. *)
  (match t.writer with
  | Some w ->
      Firmament.Snapshot.Writer.rebase w t.sched ~now:(now_s t);
      Firmament.Snapshot.Writer.close w
  | None -> ());
  Hashtbl.iter (fun _ c -> close_fd c.fd) t.conns;
  Hashtbl.iter (fun _ c -> close_fd c.fd) t.http_conns;
  Hashtbl.reset t.conns;
  Hashtbl.reset t.http_conns;
  close_fd t.listener;
  Option.iter close_fd t.metrics_listener;
  Telemetry.Metrics.set m m_connections_active 0;
  Telemetry.Metrics.incr m m_shutdowns;
  t.finished <- true

(* {1 The event loop} *)

let conn_list t = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
let http_list t = Hashtbl.fold (fun _ c acc -> c :: acc) t.http_conns []

(* A write to a socket that is not writable is one EAGAIN, so every
   connection with output is tried, not only those [select] reported. *)
let flush_pending t =
  List.iter
    (fun c -> if c.alive && out_pending c > 0 then flush_conn t c)
    (conn_list t @ http_list t)

let step t ~timeout_s =
  if t.finished then ()
  else if t.shutdown_requested then do_shutdown t
  else begin
    let conns = conn_list t in
    let https = http_list t in
    let rfds =
      t.listener
      :: (match t.metrics_listener with Some fd -> [ fd ] | None -> [])
      @ List.filter_map
          (fun c -> if c.alive && not c.closing then Some c.fd else None)
          (conns @ https)
    in
    let wfds =
      List.filter_map
        (fun c -> if c.alive && out_pending c > 0 then Some c.fd else None)
        (conns @ https)
    in
    (match Unix.select rfds wfds [] timeout_s with
    | r, _, _ ->
        if List.mem t.listener r then accept_loop t t.listener ~http:false;
        (match t.metrics_listener with
        | Some fd when List.mem fd r -> accept_loop t fd ~http:true
        | _ -> ());
        List.iter
          (fun c -> if c.alive && List.mem c.fd r then handle_readable t c)
          conns;
        List.iter
          (fun c -> if c.alive && List.mem c.fd r then handle_http_readable t c)
          https
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    (* The acks just enqueued go out now, so they do not wait for the
       round's solve. *)
    flush_pending t;
    if t.shutdown_requested then do_shutdown t
    else begin
      drive_rounds t;
      flush_pending t
    end
  end

let idle_timeout t =
  if not (Admission.is_empty t.queue) then 0.
  else if Cluster.State.waiting_count t.clu > 0 then backlog_interval_s
  else 0.05

let run t =
  while not t.finished do
    step t ~timeout_s:(idle_timeout t)
  done

let stop t =
  (* Simulated crash: no rebase — the snapshot keeps its base + journal
     tail exactly as flushed. *)
  (match t.writer with
  | Some w -> Firmament.Snapshot.Writer.close w
  | None -> ());
  Hashtbl.iter (fun _ c -> close_fd c.fd) t.conns;
  Hashtbl.iter (fun _ c -> close_fd c.fd) t.http_conns;
  Hashtbl.reset t.conns;
  Hashtbl.reset t.http_conns;
  close_fd t.listener;
  Option.iter close_fd t.metrics_listener;
  t.finished <- true
