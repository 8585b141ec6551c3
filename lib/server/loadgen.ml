module P = Protocol

let m = Telemetry.Metrics.global ()

let m_sent =
  Telemetry.Metrics.counter m ~help:"task events sent" "lg_events_sent_total"

let m_acked =
  Telemetry.Metrics.counter m ~help:"task events admitted by the server"
    "lg_events_acked_total"

let m_nacks =
  Telemetry.Metrics.counter m ~help:"NACK backpressure responses" "lg_nacks_total"

let m_placements =
  Telemetry.Metrics.counter m ~help:"placement notifications received"
    "lg_placements_total"

let m_latency =
  Telemetry.Metrics.histogram m
    ~help:"end-to-end submit-to-placement-push latency (ns)" "lg_e2e_latency_ns"

let m_errors =
  Telemetry.Metrics.counter m ~help:"protocol errors observed by the client"
    "lg_protocol_errors_total"

type mode =
  | Synthetic of { tasks_per_job : int; task_duration_s : float }
  | Trace of Dcsim.Churn.event list

type config = {
  endpoint : Service.listen;
  connections : int;
  rate : float;
  duration_s : float;
  seed : int;
  mode : mode;
  jid_base : int;
  max_retries : int;
  drain_grace_s : float;
}

let default_config =
  {
    endpoint = Service.Tcp ("127.0.0.1", 7117);
    connections = 4;
    rate = 1000.;
    duration_s = 5.;
    seed = 42;
    mode = Synthetic { tasks_per_job = 8; task_duration_s = 1.0 };
    jid_base = 1;
    max_retries = 8;
    drain_grace_s = 1.0;
  }

type report = {
  elapsed_s : float;
  task_events_sent : int;
  task_events_acked : int;
  achieved_rate : float;
  submits : int;
  finishes : int;
  nacks : int;
  retries_exhausted : int;
  placements : int;
  migrations : int;
  preempt_notices : int;
  protocol_errors : int;
  server_shutdown : bool;
  stats_json : string option;
  latencies_s : float list;
}

(* {1 Client connections} *)

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : Bytes.t;
  mutable inlen : int;
  out : Buffer.t;
  mutable out_off : int;
  mutable alive : bool;
}

let connect endpoint =
  let fd, addr =
    match endpoint with
    | Service.Tcp (host, port) ->
        let a =
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        ( Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0,
          Unix.ADDR_INET (a, port) )
    | Service.Unix_path path ->
        (Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
  in
  Unix.connect fd addr;
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  {
    fd;
    inbuf = Bytes.create 65536;
    inlen = 0;
    out = Buffer.create 65536;
    out_off = 0;
    alive = true;
  }

let out_pending c = Buffer.length c.out - c.out_off

let flush_conn c =
  let rec go () =
    let pending = out_pending c in
    if pending > 0 then begin
      let chunk = min pending 65536 in
      let s = Buffer.sub c.out c.out_off chunk in
      match Unix.write_substring c.fd s 0 chunk with
      | n ->
          c.out_off <- c.out_off + n;
          if n = chunk then go ()
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          c.alive <- false
    end
  in
  go ();
  if out_pending c = 0 then begin
    Buffer.clear c.out;
    c.out_off <- 0
  end

(* {1 Running-task view (for Trace-mode index resolution)} *)

type running_view = {
  mutable tids : int array;
  mutable len : int;
  index : (int, int) Hashtbl.t;  (* tid -> position in tids *)
}

let view_create () = { tids = Array.make 1024 0; len = 0; index = Hashtbl.create 1024 }

let view_add v tid =
  if not (Hashtbl.mem v.index tid) then begin
    if v.len = Array.length v.tids then begin
      let bigger = Array.make (2 * v.len) 0 in
      Array.blit v.tids 0 bigger 0 v.len;
      v.tids <- bigger
    end;
    v.tids.(v.len) <- tid;
    Hashtbl.replace v.index tid v.len;
    v.len <- v.len + 1
  end

let view_remove v tid =
  match Hashtbl.find_opt v.index tid with
  | None -> ()
  | Some i ->
      Hashtbl.remove v.index tid;
      let last = v.len - 1 in
      if i < last then begin
        let moved = v.tids.(last) in
        v.tids.(i) <- moved;
        Hashtbl.replace v.index moved i
      end;
      v.len <- last

let view_pick v k = if v.len = 0 then None else Some (v.tids.(k mod v.len))

(* {1 The driver} *)

type st = {
  cfg : config;
  conns : conn array;
  t0_ns : int;
  mutable next_seq : int;
  mutable next_conn : int;
  inflight : (int, int * string * int) Hashtbl.t;
      (* seq -> (weight, wire bytes for retry, attempts) *)
  submit_t : (int, int) Hashtbl.t;  (* tid -> send ns *)
  view : running_view;
  finish_q : (int * int) Queue.t;  (* (due_ns, tid), FIFO: constant duration *)
  mutable retry_q : (int * string * int * int) list;
      (* (due_ns, bytes, seq, weight), newest first; due times follow
         the server's retry hint, which tracks its round time, so
         [flush_retries] selects by due time and resends in NACK order *)
  mutable sent : int;
  mutable acked : int;
  mutable submits : int;
  mutable finishes : int;
  mutable nacks : int;
  mutable retries_exhausted : int;
  mutable placements : int;
  mutable migrations : int;
  mutable preempt_notices : int;
  mutable protocol_errors : int;
  mutable server_shutdown : bool;
  mutable stats_json : string option;
  mutable latencies : float list;
}

let now_ns () = Telemetry.Clock.now_ns ()
let elapsed_ns st = now_ns () - st.t0_ns

let pick_conn st =
  (* Round-robin across live connections; None when all died. *)
  let n = Array.length st.conns in
  let rec go k =
    if k = n then None
    else begin
      let c = st.conns.((st.next_conn + k) mod n) in
      if c.alive then begin
        st.next_conn <- (st.next_conn + k + 1) mod n;
        Some c
      end
      else go (k + 1)
    end
  in
  go 0

let send_event st frame ~weight =
  match pick_conn st with
  | None -> false
  | Some c ->
      let seq = match (frame : P.frame) with
        | P.Submit_job { seq; _ } | P.Finish_task { seq; _ }
        | P.Preempt_task { seq; _ } | P.Fail_machine { seq; _ }
        | P.Restore_machine { seq; _ } ->
            seq
        | _ -> invalid_arg "send_event: not an event frame"
      in
      let bytes = P.encode frame in
      Hashtbl.replace st.inflight seq (weight, bytes, 0);
      Buffer.add_string c.out bytes;
      st.sent <- st.sent + weight;
      Telemetry.Metrics.add m m_sent weight;
      true

let fresh_seq st =
  let s = st.next_seq in
  st.next_seq <- s + 1;
  s

let retry_delay_ns = 50_000_000 (* fallback when the server gives no hint *)

let handle_frame st (f : P.frame) =
  match f with
  | P.Ack { seq } -> (
      match Hashtbl.find_opt st.inflight seq with
      | Some (weight, _, _) ->
          Hashtbl.remove st.inflight seq;
          st.acked <- st.acked + weight;
          Telemetry.Metrics.add m m_acked weight
      | None -> ())
  | P.Nack { seq; retry_after_ms } -> (
      st.nacks <- st.nacks + 1;
      Telemetry.Metrics.incr m m_nacks;
      match Hashtbl.find_opt st.inflight seq with
      | Some (weight, bytes, attempts) ->
          Hashtbl.remove st.inflight seq;
          if attempts >= st.cfg.max_retries || st.server_shutdown then
            st.retries_exhausted <- st.retries_exhausted + 1
          else begin
            let delay =
              if retry_after_ms > 0 then retry_after_ms * 1_000_000
              else retry_delay_ns
            in
            Hashtbl.replace st.inflight seq (weight, bytes, attempts + 1);
            st.retry_q <- (now_ns () + delay, bytes, seq, weight) :: st.retry_q
          end
      | None -> ())
  | P.Placement_delta { placements; _ } ->
      let t_now = now_ns () in
      List.iter
        (fun (p : P.placement) ->
          match p.p_kind with
          | P.Start ->
              st.placements <- st.placements + 1;
              Telemetry.Metrics.incr m m_placements;
              view_add st.view p.p_tid;
              (match Hashtbl.find_opt st.submit_t p.p_tid with
              | Some t_sent ->
                  Hashtbl.remove st.submit_t p.p_tid;
                  let d = t_now - t_sent in
                  Telemetry.Metrics.observe m m_latency d;
                  st.latencies <- (float_of_int d *. 1e-9) :: st.latencies;
                  (match st.cfg.mode with
                  | Synthetic { task_duration_s; _ } ->
                      Queue.add
                        ( t_now + int_of_float (task_duration_s *. 1e9),
                          p.p_tid )
                        st.finish_q
                  | Trace _ -> ())
              | None -> ())
          | P.Migrate ->
              st.migrations <- st.migrations + 1;
              view_add st.view p.p_tid
          | P.Preempt ->
              st.preempt_notices <- st.preempt_notices + 1;
              view_remove st.view p.p_tid)
        placements
  | P.Stats_reply { json; _ } -> st.stats_json <- Some json
  | P.Shutdown _ -> st.server_shutdown <- true
  | P.Protocol_error { message = _ } ->
      st.protocol_errors <- st.protocol_errors + 1;
      Telemetry.Metrics.incr m m_errors
  | P.Submit_job _ | P.Finish_task _ | P.Preempt_task _ | P.Fail_machine _
  | P.Restore_machine _ | P.Subscribe _ | P.Stats_query _ ->
      (* a server never sends client-role frames *)
      st.protocol_errors <- st.protocol_errors + 1;
      Telemetry.Metrics.incr m m_errors

let read_conn st c =
  let progress = ref true in
  while !progress && c.alive do
    progress := false;
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
        progress := n = room;
        let off = ref 0 in
        let decoding = ref true in
        while !decoding && c.alive do
          match P.decode c.inbuf ~off:!off ~len:(c.inlen - !off) with
          | `Frame (f, consumed) ->
              off := !off + consumed;
              handle_frame st f
          | `Need_more -> decoding := false
          | `Error _ ->
              st.protocol_errors <- st.protocol_errors + 1;
              Telemetry.Metrics.incr m m_errors;
              c.alive <- false;
              decoding := false
        done;
        if !off > 0 then begin
          Bytes.blit c.inbuf !off c.inbuf 0 (c.inlen - !off);
          c.inlen <- c.inlen - !off
        end
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        c.alive <- false
  done

let pump st ~timeout_s =
  let rfds = ref [] and wfds = ref [] in
  Array.iter
    (fun c ->
      if c.alive then begin
        rfds := c.fd :: !rfds;
        if out_pending c > 0 then wfds := c.fd :: !wfds
      end)
    st.conns;
  match Unix.select !rfds !wfds [] timeout_s with
  | r, w, _ ->
      Array.iter
        (fun c ->
          if c.alive && List.mem c.fd w then flush_conn c;
          if c.alive && List.mem c.fd r then read_conn st c)
        st.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Local backpressure: pause generation while the socket layer is stuffed. *)
let out_stuffed st =
  Array.exists (fun c -> c.alive && out_pending c > 4 * 1024 * 1024) st.conns

let flush_retries st =
  match st.retry_q with
  | [] -> ()
  | q ->
      let t_now = now_ns () in
      let due, later = List.partition (fun (d, _, _, _) -> d <= t_now) q in
      st.retry_q <- later;
      List.iter
        (fun (_, bytes, seq, weight) ->
          match pick_conn st with
          | Some c when Hashtbl.mem st.inflight seq ->
              Buffer.add_string c.out bytes;
              st.sent <- st.sent + weight;
              Telemetry.Metrics.add m m_sent weight
          | _ -> ())
        (List.rev due)

(* {1 Event sources} *)

(* Synthetic firehose: jobs of [tasks_per_job] at [rate] task events/sec
   split evenly between submits and the finishes they later produce, so
   the sustained wire rate meets [rate] once placements flow. *)
let synthetic_due st ~tasks_per_job k =
  (* job k is due when k*tasks_per_job submit-events have been emitted at
     rate/2 (the other half of the budget belongs to finishes) *)
  float_of_int (k * tasks_per_job) /. (st.cfg.rate /. 2.)

let drive_synthetic st ~tasks_per_job ~next_job =
  let window_ns = int_of_float (st.cfg.duration_s *. 1e9) in
  let budget = ref 2048 in
  let continue = ref true in
  while !continue && !budget > 0 && not (out_stuffed st) do
    let t = elapsed_ns st in
    if t > window_ns then continue := false
    else begin
      let due_s = synthetic_due st ~tasks_per_job !next_job in
      if float_of_int t *. 1e-9 >= due_s then begin
        let jid = st.cfg.jid_base + !next_job in
        let seq = fresh_seq st in
        let frame =
          P.Submit_job
            {
              seq;
              jid;
              task_count = tasks_per_job;
              duration = 3600.;
              (* client-driven finishes; server-side duration is nominal *)
              locality = (st.cfg.seed * 7919) + !next_job;
            }
        in
        let t_send = now_ns () in
        for i = 0 to tasks_per_job - 1 do
          Hashtbl.replace st.submit_t ((jid * 1000) + i) t_send
        done;
        if send_event st frame ~weight:tasks_per_job then begin
          st.submits <- st.submits + tasks_per_job;
          incr next_job;
          decr budget
        end
        else continue := false
      end
      else continue := false
    end
  done;
  (* Finishes for placed tasks whose simulated runtime elapsed. *)
  let t_now = now_ns () in
  let fin = ref 2048 in
  let more = ref true in
  while !more && !fin > 0 && not (out_stuffed st) do
    match Queue.peek_opt st.finish_q with
    | Some (due, tid) when due <= t_now && elapsed_ns st <= window_ns ->
        ignore (Queue.pop st.finish_q);
        let seq = fresh_seq st in
        if send_event st (P.Finish_task { seq; tid }) ~weight:1 then begin
          st.finishes <- st.finishes + 1;
          view_remove st.view tid;
          decr fin
        end
        else more := false
    | _ -> more := false
  done

let drive_trace st ~schedule =
  let budget = ref 2048 in
  let continue = ref true in
  while !continue && !budget > 0 && not (out_stuffed st) do
    match !schedule with
    | [] -> continue := false
    | { Dcsim.Firehose.due; ev } :: rest ->
        if float_of_int (elapsed_ns st) *. 1e-9 < due then continue := false
        else begin
          schedule := rest;
          decr budget;
          let seq = fresh_seq st in
          let send frame ~weight = ignore (send_event st frame ~weight) in
          (match ev with
          | Dcsim.Churn.Submit { jid; tasks; duration; locality } ->
              let jid = st.cfg.jid_base + jid in
              let t_send = now_ns () in
              for i = 0 to tasks - 1 do
                Hashtbl.replace st.submit_t ((jid * 1000) + i) t_send
              done;
              st.submits <- st.submits + tasks;
              send
                (P.Submit_job { seq; jid; task_count = tasks; duration; locality })
                ~weight:tasks
          | Dcsim.Churn.Finish k -> (
              match view_pick st.view k with
              | Some tid ->
                  st.finishes <- st.finishes + 1;
                  view_remove st.view tid;
                  send (P.Finish_task { seq; tid }) ~weight:1
              | None -> ())
          | Dcsim.Churn.Preempt k -> (
              match view_pick st.view k with
              | Some tid ->
                  view_remove st.view tid;
                  send (P.Preempt_task { seq; tid }) ~weight:1
              | None -> ())
          | Dcsim.Churn.Fail_machine mid ->
              send (P.Fail_machine { seq; machine = mid }) ~weight:1
          | Dcsim.Churn.Restore_machine mid ->
              send (P.Restore_machine { seq; machine = mid }) ~weight:1
          | Dcsim.Churn.Perturb_costs _ | Dcsim.Churn.Round _ ->
              (* Firehose.wire_events filtered these *)
              ())
        end
  done

(* {1 Run} *)

let run cfg =
  if cfg.connections < 1 then invalid_arg "Loadgen.run: connections must be >= 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let conns = Array.init cfg.connections (fun _ -> connect cfg.endpoint) in
  let st =
    {
      cfg;
      conns;
      t0_ns = now_ns ();
      next_seq = 1;
      next_conn = 0;
      inflight = Hashtbl.create 4096;
      submit_t = Hashtbl.create 4096;
      view = view_create ();
      finish_q = Queue.create ();
      retry_q = [];
      sent = 0;
      acked = 0;
      submits = 0;
      finishes = 0;
      nacks = 0;
      retries_exhausted = 0;
      placements = 0;
      migrations = 0;
      preempt_notices = 0;
      protocol_errors = 0;
      server_shutdown = false;
      stats_json = None;
      latencies = [];
    }
  in
  (* Subscribe on connection 0 so placement pushes flow before traffic. *)
  Buffer.add_string conns.(0).out (P.encode (P.Subscribe { seq = 0 }));
  flush_conn conns.(0);
  let schedule =
    ref
      (match cfg.mode with
      | Trace events -> Dcsim.Firehose.schedule ~rate:cfg.rate events
      | Synthetic _ -> [])
  in
  let next_job = ref 0 in
  let window_ns = int_of_float (cfg.duration_s *. 1e9) in
  let sending_done st =
    match cfg.mode with
    | Synthetic _ -> elapsed_ns st > window_ns
    | Trace _ -> !schedule = [] && st.retry_q = []
  in
  let any_alive () = Array.exists (fun c -> c.alive) st.conns in
  (* Send window. *)
  while (not (sending_done st)) && any_alive () && not st.server_shutdown do
    (match cfg.mode with
    | Synthetic { tasks_per_job; _ } -> drive_synthetic st ~tasks_per_job ~next_job
    | Trace _ -> drive_trace st ~schedule);
    flush_retries st;
    Array.iter (fun c -> if c.alive && out_pending c > 0 then flush_conn c) st.conns;
    pump st ~timeout_s:0.001
  done;
  let send_elapsed_s = float_of_int (elapsed_ns st) *. 1e-9 in
  (* Drain: let in-flight acks and placement pushes arrive. *)
  let drain_deadline = now_ns () + int_of_float (cfg.drain_grace_s *. 1e9) in
  while now_ns () < drain_deadline && any_alive () && not st.server_shutdown do
    pump st ~timeout_s:0.02
  done;
  (* Final stats snapshot over any still-live connection. *)
  (match Array.find_opt (fun c -> c.alive) st.conns with
  | Some c when not st.server_shutdown ->
      Buffer.add_string c.out (P.encode (P.Stats_query { seq = fresh_seq st }));
      flush_conn c;
      let deadline = now_ns () + 1_000_000_000 in
      while st.stats_json = None && c.alive && now_ns () < deadline do
        pump st ~timeout_s:0.02
      done
  | _ -> ());
  Array.iter (fun c -> if c.alive then try Unix.close c.fd with Unix.Unix_error _ -> ()) st.conns;
  {
    elapsed_s = send_elapsed_s;
    task_events_sent = st.sent;
    task_events_acked = st.acked;
    achieved_rate = float_of_int st.acked /. Float.max 1e-9 send_elapsed_s;
    submits = st.submits;
    finishes = st.finishes;
    nacks = st.nacks;
    retries_exhausted = st.retries_exhausted;
    placements = st.placements;
    migrations = st.migrations;
    preempt_notices = st.preempt_notices;
    protocol_errors = st.protocol_errors;
    server_shutdown = st.server_shutdown;
    stats_json = st.stats_json;
    latencies_s = st.latencies;
  }

let pp_report ppf r =
  let pct p =
    match r.latencies_s with
    | [] -> nan
    | l -> Dcsim.Stats.percentile l p
  in
  Format.fprintf ppf
    "@[<v>sent %d task events in %.2fs (%.0f/s acked), %d submits / %d \
     finishes@,placements %d (migrations %d, preempts %d)@,latency p50 %.1fms \
     p99 %.1fms max %.1fms (%d samples)@,nacks %d (retries exhausted %d), \
     protocol errors %d%s@]"
    r.task_events_sent r.elapsed_s r.achieved_rate r.submits r.finishes
    r.placements r.migrations r.preempt_notices
    (pct 50. *. 1e3) (pct 99. *. 1e3)
    (match r.latencies_s with [] -> nan | l -> Dcsim.Stats.maximum l *. 1e3)
    (List.length r.latencies_s) r.nacks r.retries_exhausted r.protocol_errors
    (if r.server_shutdown then ", server shut down" else "")
