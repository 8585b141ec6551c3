(* Scheduler-service tests: wire-protocol codec properties (round-trip,
   truncation, adversarial inputs), the bounded admission queue, and a
   cooperative in-process end-to-end exchange — a real Unix-domain socket
   client interleaved with [Server.Service.step] calls, no threads. *)

module P = Server.Protocol
module A = Server.Admission
module Svc = Server.Service

let qcheck = List.map QCheck_alcotest.to_alcotest

(* {1 Frame generator} *)

let gen_u32 = QCheck.Gen.(int_range 0 0xFFFFFFFF)
let gen_tid = QCheck.Gen.(int_range 0 1_000_000_000_000)

(* 0xFFFFFFFF is the on-wire encoding of machine id -1, so an exact
   round-trip generator must not draw it as a literal id. *)
let gen_machine_opt = QCheck.Gen.(oneof [ return (-1); int_range 0 0xFFFFFFFE ])

let gen_duration =
  QCheck.Gen.(
    oneof [ return 0.; return 1.5; return 1e-9; float_bound_inclusive 1e6 ])

let gen_short_string =
  QCheck.Gen.(string_size ~gen:printable (int_range 0 80))

let gen_placement =
  QCheck.Gen.(
    map
      (fun (p_tid, kind, p_machine, p_from) ->
        let p_kind =
          match kind with 0 -> P.Start | 1 -> P.Migrate | _ -> P.Preempt
        in
        { P.p_tid; p_kind; p_machine; p_from })
      (quad gen_tid (int_range 0 2) gen_machine_opt gen_machine_opt))

let gen_frame =
  QCheck.Gen.(
    oneof
      [
        map
          (fun (seq, jid, task_count, (locality, duration)) ->
            P.Submit_job { seq; jid; task_count; duration; locality })
          (quad gen_u32 gen_u32 (int_range 1 1000) (pair gen_u32 gen_duration));
        map (fun (seq, tid) -> P.Finish_task { seq; tid }) (pair gen_u32 gen_tid);
        map (fun (seq, tid) -> P.Preempt_task { seq; tid }) (pair gen_u32 gen_tid);
        map (fun (seq, machine) -> P.Fail_machine { seq; machine }) (pair gen_u32 gen_u32);
        map
          (fun (seq, machine) -> P.Restore_machine { seq; machine })
          (pair gen_u32 gen_u32);
        map (fun seq -> P.Subscribe { seq }) gen_u32;
        map (fun seq -> P.Stats_query { seq }) gen_u32;
        map (fun seq -> P.Ack { seq }) gen_u32;
        map
          (fun (seq, retry_after_ms) -> P.Nack { seq; retry_after_ms })
          (pair gen_u32 gen_u32);
        map
          (fun (round, placements) -> P.Placement_delta { round; placements })
          (pair gen_u32 (list_size (int_range 0 12) gen_placement));
        map (fun (seq, json) -> P.Stats_reply { seq; json }) (pair gen_u32 gen_short_string);
        map (fun reason -> P.Shutdown { reason }) gen_short_string;
        map (fun message -> P.Protocol_error { message }) gen_short_string;
      ])

let arb_frame = QCheck.make ~print:(Format.asprintf "%a" P.pp) gen_frame

(* {1 Codec properties} *)

let prop_roundtrip =
  QCheck.Test.make ~name:"decode (encode f) = f, consuming every byte" ~count:500
    arb_frame (fun f ->
      let wire = P.encode f in
      let buf = Bytes.of_string wire in
      match P.decode buf ~off:0 ~len:(Bytes.length buf) with
      | `Frame (g, consumed) -> g = f && consumed = String.length wire
      | `Need_more | `Error _ -> false)

let prop_roundtrip_offset =
  QCheck.Test.make ~name:"decode is position-independent (nonzero offset)" ~count:200
    arb_frame (fun f ->
      let wire = P.encode f in
      let pad = 37 in
      let buf = Bytes.make (pad + String.length wire) '\xAA' in
      Bytes.blit_string wire 0 buf pad (String.length wire);
      match P.decode buf ~off:pad ~len:(String.length wire) with
      | `Frame (g, consumed) -> g = f && consumed = String.length wire
      | `Need_more | `Error _ -> false)

let prop_truncation =
  QCheck.Test.make
    ~name:"every strict prefix of a valid frame is `Need_more, never an exception"
    ~count:200 arb_frame (fun f ->
      let wire = P.encode f in
      let buf = Bytes.of_string wire in
      let ok = ref true in
      for cut = 0 to String.length wire - 1 do
        match P.decode buf ~off:0 ~len:cut with
        | `Need_more -> ()
        | `Frame _ | `Error _ -> ok := false
      done;
      !ok)

let prop_decode_total =
  QCheck.Test.make ~name:"decode never raises on arbitrary bytes" ~count:1000
    QCheck.(string_of_size Gen.(int_range 0 256))
    (fun s ->
      let buf = Bytes.of_string s in
      match P.decode buf ~off:0 ~len:(Bytes.length buf) with
      | `Frame _ | `Need_more | `Error _ -> true)

(* Adversarial inputs: each hand-crafted corruption must yield the right
   [`Error] — and rejecting it must not disturb a well-formed frame
   elsewhere in the stream (per-connection, not per-process damage). *)

let decode_str s =
  P.decode (Bytes.of_string s) ~off:0 ~len:(String.length s)

let check_error name expected s =
  match decode_str s with
  | `Error e when e = expected -> ()
  | `Error e ->
      Alcotest.failf "%s: expected %a, got %a" name P.pp_error expected P.pp_error e
  | `Frame (f, _) -> Alcotest.failf "%s: decoded %a" name P.pp f
  | `Need_more -> Alcotest.failf "%s: `Need_more" name

let set_byte s i c =
  let b = Bytes.of_string s in
  Bytes.set b i c;
  Bytes.to_string b

let test_adversarial () =
  let wire = P.encode (P.Ack { seq = 7 }) in
  check_error "garbage first byte" P.Bad_magic (set_byte wire 0 'X');
  check_error "garbage second byte" P.Bad_magic (set_byte wire 1 'X');
  check_error "all-garbage stream" P.Bad_magic "not a frame at all";
  check_error "version mismatch" (P.Bad_version 9) (set_byte wire 2 '\x09');
  check_error "unknown tag" (P.Unknown_tag 0x7F) (set_byte wire 3 '\x7F');
  check_error "corrupt payload" P.Crc_mismatch
    (set_byte wire (String.length wire - 1) '\xFF');
  check_error "corrupt declared CRC" P.Crc_mismatch (set_byte wire 8 '\x00');
  (* Oversized length prefix: rejected from the header alone, before any
     payload is buffered. *)
  let oversized =
    let b = Buffer.create 16 in
    Buffer.add_string b "\xF1\x4D\x01\x01";
    Buffer.add_int32_be b 0x7FFFFFFFl;
    Buffer.add_int32_be b 0l;
    Buffer.contents b
  in
  check_error "oversized length prefix" (P.Oversized 0x7FFFFFFF) oversized;
  (* Early rejection: bad magic/version is reported even before 4 bytes. *)
  (match decode_str "Z" with
  | `Error P.Bad_magic -> ()
  | _ -> Alcotest.fail "1-byte bad magic not rejected");
  (match decode_str "\xF1\x4D\x05" with
  | `Error (P.Bad_version 5) -> ()
  | _ -> Alcotest.fail "3-byte bad version not rejected")

(* Payload that passes CRC but violates frame invariants. *)
let forge tag payload =
  let b = Buffer.create 32 in
  Buffer.add_string b "\xF1\x4D\x01";
  Buffer.add_uint8 b tag;
  Buffer.add_int32_be b (Int32.of_int (String.length payload));
  Buffer.add_int32_be b
    (Int32.of_int (P.crc32 payload ~off:0 ~len:(String.length payload)));
  Buffer.add_string b payload;
  Buffer.contents b

let test_malformed_payloads () =
  let u32 v =
    let b = Buffer.create 4 in
    Buffer.add_int32_be b (Int32.of_int v);
    Buffer.contents b
  in
  let is_malformed name s =
    match decode_str s with
    | `Error (P.Malformed _) -> ()
    | `Error e -> Alcotest.failf "%s: expected Malformed, got %a" name P.pp_error e
    | `Frame (f, _) -> Alcotest.failf "%s: decoded %a" name P.pp f
    | `Need_more -> Alcotest.failf "%s: `Need_more" name
  in
  (* Ack payload with trailing junk (valid CRC). *)
  is_malformed "trailing bytes" (forge 0x81 (u32 1 ^ "junk"));
  (* Truncated-in-payload: declared length shorter than the fields need. *)
  is_malformed "short ack payload" (forge 0x81 "\x00\x01");
  (* Submit_job with task_count = 0. *)
  let submit_payload task_count =
    let b = Buffer.create 24 in
    Buffer.add_string b (u32 1);
    Buffer.add_string b (u32 2);
    Buffer.add_uint16_be b task_count;
    Buffer.add_string b (u32 0);
    Buffer.add_int64_be b (Int64.bits_of_float 1.0);
    Buffer.contents b
  in
  is_malformed "task_count 0" (forge 0x01 (submit_payload 0));
  is_malformed "task_count 1001" (forge 0x01 (submit_payload 1001));
  (* NaN duration. *)
  let nan_payload =
    let b = Buffer.create 24 in
    Buffer.add_string b (u32 1);
    Buffer.add_string b (u32 2);
    Buffer.add_uint16_be b 4;
    Buffer.add_string b (u32 0);
    Buffer.add_int64_be b (Int64.bits_of_float Float.nan);
    Buffer.contents b
  in
  is_malformed "NaN duration" (forge 0x01 nan_payload);
  (* Placement with an unknown kind byte. *)
  let bad_kind =
    let b = Buffer.create 24 in
    Buffer.add_string b (u32 3);
    Buffer.add_uint16_be b 1;
    Buffer.add_uint8 b 9;
    Buffer.add_int64_be b 1L;
    Buffer.add_string b (u32 0);
    Buffer.add_string b (u32 0);
    Buffer.contents b
  in
  is_malformed "unknown placement kind" (forge 0x83 bad_kind)

let test_crc_vector () =
  (* The IEEE CRC-32 check value: crc32("123456789") = 0xCBF43926. *)
  Alcotest.(check int)
    "crc32 check value" 0xCBF43926
    (P.crc32 "123456789" ~off:0 ~len:9)

(* {1 Admission queue} *)

let test_admission () =
  let q = A.create ~capacity:3 in
  Alcotest.(check bool) "empty" true (A.is_empty q);
  Alcotest.(check bool) "push 1" true (A.push q 1);
  Alcotest.(check bool) "push 2" true (A.push q 2);
  Alcotest.(check bool) "push 3" true (A.push q 3);
  Alcotest.(check bool) "full" true (A.is_full q);
  Alcotest.(check bool) "push refused when full" false (A.push q 4);
  Alcotest.(check int) "rejected counted" 1 (A.rejected q);
  Alcotest.(check (option int)) "peek oldest" (Some 1) (A.peek q);
  Alcotest.(check (option int)) "pop FIFO 1" (Some 1) (A.pop q);
  Alcotest.(check (option int)) "pop FIFO 2" (Some 2) (A.pop q);
  Alcotest.(check bool) "room again" true (A.push q 5);
  Alcotest.(check (option int)) "pop FIFO 3" (Some 3) (A.pop q);
  Alcotest.(check (option int)) "pop wraps" (Some 5) (A.pop q);
  Alcotest.(check (option int)) "drained" None (A.pop q);
  (* Wrap-around exercise: interleave pushes and pops past the ring size. *)
  for i = 0 to 99 do
    Alcotest.(check bool) "wrap push" true (A.push q i);
    Alcotest.(check (option int)) "wrap pop" (Some i) (A.pop q)
  done;
  Alcotest.(check int) "capacity stable" 3 (A.capacity q)

(* {1 In-process end-to-end exchange} *)

(* A blocking-free test client: reads are non-blocking and interleaved
   with server [step]s, so one process plays both sides deterministically. *)
type client = { fd : Unix.file_descr; buf : Bytes.t; mutable len : int; mutable eof : bool }

let client_connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  { fd; buf = Bytes.create (1 lsl 16); len = 0; eof = false }

let client_send c frame =
  let wire = P.encode frame in
  let n = Unix.write_substring c.fd wire 0 (String.length wire) in
  Alcotest.(check int) "short write" (String.length wire) n

let client_send_raw c s =
  ignore (Unix.write_substring c.fd s 0 (String.length s))

let client_read c =
  if not c.eof then
    match Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) with
    | 0 -> c.eof <- true
    | n -> c.len <- c.len + n
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> c.eof <- true

let client_next_frame c =
  match P.decode c.buf ~off:0 ~len:c.len with
  | `Frame (f, consumed) ->
      Bytes.blit c.buf consumed c.buf 0 (c.len - consumed);
      c.len <- c.len - consumed;
      Some f
  | `Need_more -> None
  | `Error e -> Alcotest.failf "client got undecodable bytes: %a" P.pp_error e

(* Step the server until [c] yields a frame satisfying [want] (frames it
   skips are returned too so callers can assert on the full sequence). *)
let await srv c ~what want =
  let rec go n =
    if n = 0 then Alcotest.failf "timed out waiting for %s" what
    else
      match client_next_frame c with
      | Some f -> if want f then f else go (n - 1)
      | None ->
          Svc.step srv ~timeout_s:0.002;
          client_read c;
          go (n - 1)
  in
  go 2000

let test_config path =
  {
    Svc.default_config with
    listen = Svc.Unix_path path;
    machines = 24;
    machines_per_rack = 4;
    slots_per_machine = 4;
  }

let with_server path f =
  let srv = Svc.create (test_config path) in
  Fun.protect ~finally:(fun () -> Svc.stop srv) (fun () -> f srv)

let tmp_sock name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_e2e_submit_place_shutdown () =
  let path = tmp_sock "fmt_test_e2e.sock" in
  with_server path (fun srv ->
      let c = client_connect path in
      client_send c (P.Subscribe { seq = 1 });
      (match await srv c ~what:"subscribe ack" (fun _ -> true) with
      | P.Ack { seq = 1 } -> ()
      | f -> Alcotest.failf "expected Ack[1], got %a" P.pp f);
      client_send c
        (P.Submit_job { seq = 2; jid = 5; task_count = 3; duration = 60.; locality = 1 });
      (match await srv c ~what:"submit ack" (fun _ -> true) with
      | P.Ack { seq = 2 } -> ()
      | f -> Alcotest.failf "expected Ack[2], got %a" P.pp f);
      let delta =
        await srv c ~what:"placement delta" (function
          | P.Placement_delta _ -> true
          | _ -> false)
      in
      (match delta with
      | P.Placement_delta { placements; _ } ->
          let started =
            List.filter (fun p -> p.P.p_kind = P.Start) placements
            |> List.map (fun p -> p.P.p_tid)
            |> List.sort compare
          in
          Alcotest.(check (list int))
            "all three tasks placed under the tid convention" [ 5000; 5001; 5002 ]
            started;
          List.iter
            (fun p ->
              if p.P.p_kind = P.Start then
                Alcotest.(check bool) "placed on a real machine" true
                  (p.P.p_machine >= 0 && p.P.p_machine < 24))
            placements
      | f -> Alcotest.failf "expected Placement_delta, got %a" P.pp f);
      Alcotest.(check int) "cluster runs the tasks" 3
        (Cluster.State.live_task_count (Svc.cluster srv));
      (* Stats round-trip. *)
      client_send c (P.Stats_query { seq = 9 });
      (match
         await srv c ~what:"stats reply" (function
           | P.Stats_reply _ -> true
           | _ -> false)
       with
      | P.Stats_reply { seq; json } ->
          Alcotest.(check int) "stats seq echoed" 9 seq;
          Alcotest.(check bool) "stats carries rounds" true
            (String.length json > 2 && json.[0] = '{')
      | _ -> assert false);
      (* Graceful shutdown: Shutdown frame, then EOF — not ECONNRESET. *)
      Svc.request_shutdown srv;
      (match
         await srv c ~what:"shutdown frame" (function
           | P.Shutdown _ -> true
           | _ -> false)
       with
      | P.Shutdown _ -> ()
      | _ -> assert false);
      let rec drain n =
        if n > 0 && not c.eof then begin
          Svc.step srv ~timeout_s:0.002;
          client_read c;
          drain (n - 1)
        end
      in
      drain 200;
      Alcotest.(check bool) "orderly EOF after shutdown" true c.eof;
      Alcotest.(check bool) "server finished" true (Svc.finished srv);
      Unix.close c.fd)

let test_e2e_malformed_isolation () =
  let path = tmp_sock "fmt_test_iso.sock" in
  with_server path (fun srv ->
      let bad = client_connect path in
      let good = client_connect path in
      (* Let the server accept both before poisoning one. *)
      for _ = 1 to 5 do
        Svc.step srv ~timeout_s:0.002
      done;
      Alcotest.(check int) "both connected" 2 (Svc.connections srv);
      client_send_raw bad "this is not a frame";
      (match
         await srv bad ~what:"protocol error" (function
           | P.Protocol_error _ -> true
           | _ -> false)
       with
      | P.Protocol_error _ -> ()
      | _ -> assert false);
      let rec drain n =
        if n > 0 && not bad.eof then begin
          Svc.step srv ~timeout_s:0.002;
          client_read bad;
          drain (n - 1)
        end
      in
      drain 200;
      Alcotest.(check bool) "poisoned connection closed" true bad.eof;
      (* The well-behaved client is untouched: submits still flow. *)
      client_send good
        (P.Submit_job { seq = 1; jid = 9; task_count = 1; duration = 30.; locality = 0 });
      (match await srv good ~what:"ack on surviving connection" (fun _ -> true) with
      | P.Ack { seq = 1 } -> ()
      | f -> Alcotest.failf "expected Ack[1], got %a" P.pp f);
      Alcotest.(check int) "one connection left" 1 (Svc.connections srv);
      Unix.close bad.fd;
      Unix.close good.fd)

let test_e2e_backpressure () =
  let path = tmp_sock "fmt_test_bp.sock" in
  let config =
    { (test_config path) with queue_capacity = 4; batch_max = 4 }
  in
  let srv = Svc.create config in
  Fun.protect
    ~finally:(fun () -> Svc.stop srv)
    (fun () ->
      let c = client_connect path in
      (* Overrun the 4-slot admission queue: all 8 frames decode in one
         step, before that step's round drains the queue, so pushes 5..8
         must NACK. *)
      for seq = 1 to 8 do
        client_send c (P.Finish_task { seq; tid = 123_456 })
      done;
      let acks = ref 0 and nacks = ref 0 in
      for _ = 1 to 8 do
        match await srv c ~what:"ack or nack" (fun _ -> true) with
        | P.Ack _ -> incr acks
        | P.Nack { retry_after_ms; _ } ->
            Alcotest.(check bool) "retry hint present" true (retry_after_ms > 0);
            incr nacks
        | f -> Alcotest.failf "unexpected %a" P.pp f
      done;
      Alcotest.(check int) "queue capacity admitted" 4 !acks;
      Alcotest.(check int) "overflow NACKed" 4 !nacks;
      Unix.close c.fd)

(* Work-conserving rounds: an idle server with the default config runs
   the round in the step that admits the event, so the ACK and the
   placement arrive together. *)
let test_e2e_place_in_admitting_step () =
  let path = tmp_sock "fmt_test_wc.sock" in
  let srv = Svc.create { Svc.default_config with listen = Svc.Unix_path path } in
  Fun.protect
    ~finally:(fun () -> Svc.stop srv)
    (fun () ->
      let c = client_connect path in
      client_send c (P.Subscribe { seq = 1 });
      (match await srv c ~what:"subscribe ack" (fun _ -> true) with
      | P.Ack { seq = 1 } -> ()
      | f -> Alcotest.failf "expected Ack[1], got %a" P.pp f);
      let rounds0 = Svc.rounds_committed srv in
      client_send c
        (P.Submit_job { seq = 2; jid = 7; task_count = 2; duration = 60.; locality = 3 });
      Svc.step srv ~timeout_s:1.0;
      client_read c;
      Alcotest.(check int) "one round in the admitting step" (rounds0 + 1)
        (Svc.rounds_committed srv);
      (match client_next_frame c with
      | Some (P.Ack { seq = 2 }) -> ()
      | Some f -> Alcotest.failf "expected Ack[2], got %a" P.pp f
      | None -> Alcotest.fail "no ack after the admitting step");
      match client_next_frame c with
      | Some (P.Placement_delta { placements; _ }) ->
          let started =
            List.filter (fun p -> p.P.p_kind = P.Start) placements
            |> List.map (fun p -> p.P.p_tid)
            |> List.sort compare
          in
          Alcotest.(check (list int)) "both tasks placed" [ 7000; 7001 ] started
      | Some f -> Alcotest.failf "expected Placement_delta, got %a" P.pp f
      | None -> Alcotest.fail "no placement after the admitting step")

(* More than [batch_max] queued events drain over consecutive steps, one
   round of at most [batch_max] each, and the loop does not block in
   [select] while any remain. *)
let test_e2e_drain_over_steps () =
  let path = tmp_sock "fmt_test_drain.sock" in
  let batch_max = 4 in
  let srv = Svc.create { (test_config path) with batch_max; queue_capacity = 16 } in
  Fun.protect
    ~finally:(fun () -> Svc.stop srv)
    (fun () ->
      let c = client_connect path in
      Svc.step srv ~timeout_s:0.002;
      Alcotest.(check int) "connection accepted" 1 (Svc.connections srv);
      (* Finishes of unknown tasks: applied and dropped, no task waits. *)
      for seq = 1 to 10 do
        client_send c (P.Finish_task { seq; tid = 123_456 + seq })
      done;
      let rec drain steps queued_before rounds_before =
        if steps = 0 then Alcotest.fail "queue never drained";
        Svc.step srv ~timeout_s:0.002;
        let queued = Svc.queued srv and rounds = Svc.rounds_committed srv in
        let arrived = if queued_before < 0 then 10 else queued_before in
        if arrived > 0 then begin
          Alcotest.(check int) "one round per step" (rounds_before + 1) rounds;
          Alcotest.(check int) "at most batch_max applied"
            (max 0 (arrived - batch_max)) queued
        end;
        Alcotest.(check bool) "select does not block while events remain" true
          (if queued > 0 then Svc.idle_timeout srv = 0. else Svc.idle_timeout srv > 0.);
        if queued > 0 then drain (steps - 1) queued rounds
      in
      drain 10 (-1) (Svc.rounds_committed srv);
      Alcotest.(check int) "three rounds for ten events" 3 (Svc.rounds_committed srv);
      let acks = ref 0 in
      client_read c;
      let rec count () =
        match client_next_frame c with
        | Some (P.Ack _) ->
            incr acks;
            count ()
        | Some f -> Alcotest.failf "unexpected %a" P.pp f
        | None -> ()
      in
      count ();
      Alcotest.(check int) "every event acked" 10 !acks;
      Unix.close c.fd)

(* Shutdown drops, and counts, the admitted events no round applied:
   nothing is in flight between steps, so nothing else is lost or
   committed late. *)
let test_e2e_shutdown_drops_queued () =
  let path = tmp_sock "fmt_test_shut.sock" in
  let srv = Svc.create { (test_config path) with batch_max = 4; queue_capacity = 16 } in
  let reg = Telemetry.Metrics.global () in
  let dropped () =
    match Telemetry.Metrics.find reg "srv_events_dropped_shutdown_total" with
    | Some id -> Telemetry.Metrics.value reg id
    | None -> Alcotest.fail "srv_events_dropped_shutdown_total not registered"
  in
  Fun.protect
    ~finally:(fun () -> Svc.stop srv)
    (fun () ->
      let c = client_connect path in
      Svc.step srv ~timeout_s:0.002;
      Alcotest.(check int) "connection accepted" 1 (Svc.connections srv);
      for seq = 1 to 10 do
        client_send c
          (P.Submit_job { seq; jid = 100 + seq; task_count = 1; duration = 30.; locality = seq })
      done;
      Svc.step srv ~timeout_s:0.002;
      Alcotest.(check int) "one round applied batch_max" 6 (Svc.queued srv);
      let before = dropped () in
      Svc.request_shutdown srv;
      Svc.step srv ~timeout_s:0.002;
      Alcotest.(check int) "the queued events are dropped and counted" 6
        (dropped () - before);
      Alcotest.(check int) "queue empty" 0 (Svc.queued srv);
      Unix.close c.fd)

(* {1 Restart from snapshot}

   A three-server relay on one snapshot file: server 1 fills a tiny
   cluster and drains gracefully (atomic rebase), server 2 restores,
   makes progress observed by a re-attached subscriber, then crashes
   ([stop]: the writer is closed with journal records unrebase), and
   server 3 restores from base + journal tail — pre-crash tasks keep
   their machines, finished tasks stay finished, nothing is duplicated. *)

let await_ack srv c ~what =
  match
    await srv c ~what (function P.Ack _ -> true | P.Nack _ -> true | _ -> false)
  with
  | P.Ack _ -> ()
  | f -> Alcotest.failf "%s: expected Ack, got %a" what P.pp f

let test_e2e_restart_from_snapshot () =
  let snap = Filename.temp_file "fmt_test_snapshot" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      (* Two machines of two slots: job 5 (3 tasks) + job 6 (3 tasks) can
         never all run, so a waiting backlog survives the shutdown. *)
      let tiny path ~restore =
        {
          (test_config path) with
          machines = 2;
          machines_per_rack = 2;
          slots_per_machine = 2;
          snapshot_path = Some snap;
          restore;
        }
      in
      let all_tids = [ 5000; 5001; 5002; 6000; 6001; 6002 ] in
      let placed = Hashtbl.create 8 in
      (* Phase 1: fresh server, fill the cluster, graceful shutdown. *)
      let sock1 = tmp_sock "fmt_test_snap1.sock" in
      let srv1 = Svc.create (tiny sock1 ~restore:false) in
      Fun.protect
        ~finally:(fun () -> Svc.stop srv1)
        (fun () ->
          let c = client_connect sock1 in
          client_send c (P.Subscribe { seq = 1 });
          await_ack srv1 c ~what:"subscribe ack";
          client_send c
            (P.Submit_job { seq = 2; jid = 5; task_count = 3; duration = 600.; locality = 0 });
          client_send c
            (P.Submit_job { seq = 3; jid = 6; task_count = 3; duration = 600.; locality = 0 });
          let rec collect n =
            if Hashtbl.length placed < 4 then begin
              if n = 0 then Alcotest.fail "the 4 slots never filled";
              (match
                 await srv1 c ~what:"placement delta" (function
                   | P.Placement_delta _ -> true
                   | _ -> false)
               with
              | P.Placement_delta { placements; _ } ->
                  List.iter
                    (fun p ->
                      if p.P.p_kind = P.Start then
                        Hashtbl.replace placed p.P.p_tid p.P.p_machine)
                    placements
              | _ -> assert false);
              collect (n - 1)
            end
          in
          collect 20;
          Alcotest.(check int) "2 waiting pre-shutdown" 2
            (Cluster.State.waiting_count (Svc.cluster srv1));
          Svc.request_shutdown srv1;
          let rec drain n =
            if n > 0 && not c.eof then begin
              Svc.step srv1 ~timeout_s:0.002;
              client_read c;
              drain (n - 1)
            end
          in
          drain 200;
          Alcotest.(check bool) "server 1 drained" true (Svc.finished srv1);
          Unix.close c.fd);
      let waiting_tids = List.filter (fun t -> not (Hashtbl.mem placed t)) all_tids in
      Alcotest.(check int) "two tids left waiting" 2 (List.length waiting_tids);
      let victim = List.find (fun t -> Hashtbl.mem placed t) all_tids in
      (* Phase 2: restore. The config's 24-machine topology must lose to
         the snapshot's 2 machines. A re-attached subscriber sees a
         pre-crash waiting task placed once a slot frees up. *)
      let sock2 = tmp_sock "fmt_test_snap2.sock" in
      let srv2 = Svc.create { (test_config sock2) with snapshot_path = Some snap; restore = true } in
      let promoted = ref (-1) and promoted_machine = ref (-1) in
      Fun.protect
        ~finally:(fun () -> Svc.stop srv2)
        (fun () ->
          let clu = Svc.cluster srv2 in
          Alcotest.(check int) "snapshot topology is authoritative" 2
            (Cluster.Topology.machine_count (Cluster.State.topology clu));
          Alcotest.(check int) "6 live tasks restored" 6 (Cluster.State.live_task_count clu);
          Alcotest.(check int) "2 still waiting" 2 (Cluster.State.waiting_count clu);
          Hashtbl.iter
            (fun tid m ->
              Alcotest.(check (option int))
                "restored task kept its machine" (Some m)
                (Cluster.Workload.machine_of (Cluster.State.task clu tid)))
            placed;
          let c = client_connect sock2 in
          client_send c (P.Subscribe { seq = 1 });
          await_ack srv2 c ~what:"re-subscribe ack";
          client_send c (P.Finish_task { seq = 2; tid = victim });
          (match
             await srv2 c ~what:"post-restore placement of a pre-crash task"
               (function
                 | P.Placement_delta { placements; _ } ->
                     List.exists
                       (fun p -> p.P.p_kind = P.Start && List.mem p.P.p_tid waiting_tids)
                       placements
                 | _ -> false)
           with
          | P.Placement_delta { placements; _ } ->
              let p =
                List.find
                  (fun p -> p.P.p_kind = P.Start && List.mem p.P.p_tid waiting_tids)
                  placements
              in
              promoted := p.P.p_tid;
              promoted_machine := p.P.p_machine;
              Alcotest.(check bool) "promoted onto a snapshot machine" true
                (p.P.p_machine >= 0 && p.P.p_machine < 2)
          | _ -> assert false);
          Alcotest.(check int) "backlog shrank" 1 (Cluster.State.waiting_count clu);
          Unix.close c.fd);
      (* [stop] closed the fds and the journal without a rebase — a crash
         as far as the snapshot file is concerned. *)
      (* Phase 3: restore from base image + journal tail. *)
      let sock3 = tmp_sock "fmt_test_snap3.sock" in
      let srv3 = Svc.create { (test_config sock3) with snapshot_path = Some snap; restore = true } in
      Fun.protect
        ~finally:(fun () -> Svc.stop srv3)
        (fun () ->
          let clu = Svc.cluster srv3 in
          Alcotest.(check int) "finish survived the crash" 5
            (Cluster.State.live_task_count clu);
          Alcotest.(check int) "one task still waiting" 1 (Cluster.State.waiting_count clu);
          (* A restored cluster knows only the tasks live at its base
             image; any other task runs nowhere. *)
          let machine_of tid =
            match Cluster.State.task clu tid with
            | t -> Cluster.Workload.machine_of t
            | exception Invalid_argument _ -> None
          in
          Alcotest.(check (option int))
            "journaled placement survived the crash" (Some !promoted_machine)
            (machine_of !promoted);
          Alcotest.(check (option int)) "finished task is gone" None (machine_of victim)))

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        Alcotest.test_case "adversarial header corruption" `Quick test_adversarial
        :: Alcotest.test_case "malformed payloads" `Quick test_malformed_payloads
        :: Alcotest.test_case "crc32 test vector" `Quick test_crc_vector
        :: qcheck
             [ prop_roundtrip; prop_roundtrip_offset; prop_truncation; prop_decode_total ]
      );
      ("admission", [ Alcotest.test_case "bounded FIFO ring" `Quick test_admission ]);
      ( "service",
        [
          Alcotest.test_case "submit, place, stats, graceful shutdown" `Quick
            test_e2e_submit_place_shutdown;
          Alcotest.test_case "malformed frame poisons one connection only" `Quick
            test_e2e_malformed_isolation;
          Alcotest.test_case "admission overflow NACKs with retry hint" `Quick
            test_e2e_backpressure;
          Alcotest.test_case "idle server places in the admitting step" `Quick
            test_e2e_place_in_admitting_step;
          Alcotest.test_case "queue beyond batch_max drains over steps" `Quick
            test_e2e_drain_over_steps;
          Alcotest.test_case "shutdown drops and counts queued events" `Quick
            test_e2e_shutdown_drops_queued;
          Alcotest.test_case
            "restart from snapshot: rebase, journal tail, subscriber re-attach"
            `Quick test_e2e_restart_from_snapshot;
        ] );
    ]
