(* Closed-loop channel echo (workload channel-echo).

   One client runs its sessions back to back through the public SDK,
   channel and session APIs:

     Sdk.warm_launch -> Sdk.enter -> Secure_channel.establish
     -> messages x (client send -> enclave recv -> Session.write ->
                    Session.read -> enclave send -> client recv)
     -> close both ends -> Session.exit -> Sdk.retire

   Nothing queues in a closed loop with one client, so a session's and
   an echo's modelled latency are the sums of the gate tap's per-call
   latencies. A session whose [Sdk.enter] fails is counted failed and
   its enclave destroyed; the run goes on. *)

module Platform = Hypertee.Platform
module Sdk = Hypertee.Sdk
module Session = Hypertee.Session
module Secure_channel = Hypertee.Secure_channel
module Record = Hypertee_channel.Record

type session = {
  gen : Gen.echo_session;
  mutable service_ns : float;
  mutable modelled_ns : float;  (** every call of the session, launch to retire *)
  mutable outcome : [ `Skipped | `Completed | `Failed of string ];
}

type result = {
  sessions : session array;
  echoes : float array;  (** sorted modelled ns per echoed message *)
  echo_bytes : int;  (** payload bytes echoed (each counted once) *)
  slices : float array;  (** host MB/s over consecutive slices of [slice_messages] echoes *)
  session_slices : float array;  (** host completed sessions/s per [slice] completions *)
  warm_attempts : int;
  warm_hits : int;
  host_ns : float;
  records : int;  (** records sealed by the client, rekeys included *)
  rekeys : int;
  violation : string option;
}

let slice_messages = 64

exception Violation of string

let run ~platform ~probe ?(deadline_ns = infinity) ~slice (plan : Gen.echo_session list) =
  let current = ref None and echo_ns = ref 0.0 in
  probe.Probe.on_call <-
    (fun _ ~latency ~service ->
      echo_ns := !echo_ns +. latency;
      match !current with
      | None -> ()
      | Some s ->
        s.service_ns <- s.service_ns +. service;
        s.modelled_ns <- s.modelled_ns +. latency);
  let span layer name f = Probe.span probe ~layer name f in
  let echoes = ref [] and echo_bytes = ref 0 in
  let slices = ref [] and slice_bytes = ref 0 and slice_host = ref 0.0 and slice_n = ref 0 in
  let records = ref 0 and rekeys = ref 0 and warm_attempts = ref 0 and warm_hits = ref 0 in
  let completed = ref 0 and session_slices = ref [] and slice_t0 = ref (Probe.now_ns ()) in
  let ok what = function Ok v -> v | Error e -> raise (Violation (what ^ ": " ^ e)) in
  let echo client server sess m =
    let t0 = Probe.now_ns () in
    echo_ns := 0.0;
    ok "client send" (span "channel" "channel.send" (fun () -> Secure_channel.send client m));
    let payload =
      match
        ok "enclave recv" (span "channel" "channel.recv" (fun () -> Secure_channel.recv server))
      with
      | [ Record.Message p ] -> p
      | _ -> raise (Violation "enclave did not receive exactly one message")
    in
    let va = Session.heap_va sess and len = Bytes.length payload in
    span "arch" "arch.session_write" (fun () -> Session.write sess ~va payload);
    let back = span "arch" "arch.session_read" (fun () -> Session.read sess ~va ~len) in
    ok "enclave send" (span "channel" "channel.send" (fun () -> Secure_channel.send server back));
    (match
       ok "client recv" (span "channel" "channel.recv" (fun () -> Secure_channel.recv client))
     with
    | [ Record.Message echoed ] when Bytes.equal echoed m -> ()
    | _ -> raise (Violation "echoed bytes differ from the message sent"));
    let dt = Probe.now_ns () -. t0 in
    echoes := !echo_ns :: !echoes;
    echo_bytes := !echo_bytes + Bytes.length m;
    slice_bytes := !slice_bytes + Bytes.length m;
    slice_host := !slice_host +. dt;
    incr slice_n;
    if !slice_n = slice_messages then begin
      slices := (float_of_int !slice_bytes /. 1e6 /. (!slice_host /. 1e9)) :: !slices;
      slice_n := 0;
      slice_bytes := 0;
      slice_host := 0.0
    end
  in
  let one (g : Gen.echo_session) =
    let s = { gen = g; service_ns = 0.0; modelled_ns = 0.0; outcome = `Skipped } in
    if Probe.now_ns () < deadline_ns then begin
    current := Some s;
    probe.Probe.session <- g.Gen.esid;
    let image = g.Gen.echo_image in
    let fail reason = s.outcome <- `Failed reason in
    (match span "core" "core.warm_launch" (fun () -> Sdk.warm_launch platform image.Gen.sdk) with
    | Error e when String.starts_with ~prefix:"measurement mismatch" e ->
      raise (Violation (Printf.sprintf "session %d: %s" g.Gen.esid e))
    | Error e -> fail ("launch: " ^ e)
    | Ok (enclave, kind) -> (
      incr warm_attempts;
      if kind = `Warm then incr warm_hits;
      match span "core" "core.enter" (fun () -> Sdk.enter platform ~enclave) with
      | Error e ->
        fail ("enter: " ^ e);
        ignore (span "core" "core.destroy" (fun () -> Sdk.destroy platform ~enclave))
      | Ok sess -> (
        match
          span "core" "core.establish" (fun () ->
              Secure_channel.establish platform ~listener:enclave
                ~expected_measurement:image.Gen.measurement ())
        with
        | Error e ->
          fail ("establish: " ^ e);
          ignore (span "core" "core.destroy" (fun () -> Sdk.destroy platform ~enclave))
        | Ok (client, server) ->
        List.iter (echo client server sess) g.Gen.messages;
        let stats = Record.stats (Secure_channel.conn client) in
        records := !records + stats.Record.records_sealed;
        rekeys := !rekeys + stats.Record.rekeys_done;
        ok "close" (span "core" "core.close" (fun () -> Secure_channel.close client));
        ok "close" (span "core" "core.close" (fun () -> Secure_channel.close server));
        (match span "arch" "arch.session_exit" (fun () -> Session.exit sess) with
        | Ok () -> ()
        | Error e -> raise (Violation ("EEXIT: " ^ Hypertee_ems.Types.error_message e)));
        ok "retire" (span "core" "core.retire" (fun () -> Sdk.retire platform ~enclave));
        s.outcome <- `Completed;
        incr completed;
        if !completed mod slice = 0 then begin
          let now = Probe.now_ns () in
          session_slices := (float_of_int slice /. ((now -. !slice_t0) /. 1e9)) :: !session_slices;
          slice_t0 := now
        end)));
    current := None
    end;
    s
  in
  let t0 = Probe.now_ns () in
  let sessions, violation =
    let acc = ref [] in
    match List.iter (fun g -> acc := one g :: !acc) plan with
    | () -> (Array.of_list (List.rev !acc), None)
    | exception Violation v -> (Array.of_list (List.rev !acc), Some v)
  in
  let host_ns = Probe.now_ns () -. t0 in
  probe.Probe.on_call <- Probe.ignore_call;
  probe.Probe.session <- -1;
  {
    sessions;
    echoes = Probe.sorted_of_list !echoes;
    echo_bytes = !echo_bytes;
    slices = Array.of_list (List.rev !slices);
    session_slices = Array.of_list (List.rev !session_slices);
    warm_attempts = !warm_attempts;
    warm_hits = !warm_hits;
    host_ns;
    records = !records;
    rekeys = !rekeys;
    violation;
  }
