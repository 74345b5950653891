module Fault = Hypertee_faults.Fault

type 'req packet = { request_id : int; sender_enclave : int option; body : 'req }

(* A posted response awaiting collection. [copies] > 1 models a
   duplicated packet (the same id polls successfully that many
   times); [intact] = false models payload corruption, detected by
   the CRC check at poll time. *)
type 'resp slot = { resp : 'resp; mutable copies : int; intact : bool }

type ('req, 'resp) t = {
  requests : 'req packet Hypertee_util.Ring_queue.t;
  queued : (int, unit) Hashtbl.t; (* ids sitting in the request ring *)
  in_flight : (int, 'req packet) Hashtbl.t; (* handed to EMS, not yet answered *)
  responses : (int, 'resp slot) Hashtbl.t; (* request_id -> response *)
  answered : (int, 'resp) Hashtbl.t; (* retransmit cache: answered ids *)
  answered_order : int Queue.t;
  answered_cap : int;
  mutable next_id : int;
  mutable faults : Fault.t option;
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupt_detected : int;
  lock : Mutex.t;
      (* Every public operation runs under this lock. A platform's
         gate and shards run on one domain, so it is never contended;
         it is kept as safety code, and preserves the exactly-once
         retransmit semantics unchanged (each operation is atomic
         with respect to the others either way). *)
}

let create ?(depth = 64) () =
  {
    requests = Hypertee_util.Ring_queue.create ~capacity:depth;
    queued = Hashtbl.create depth;
    in_flight = Hashtbl.create depth;
    responses = Hashtbl.create depth;
    answered = Hashtbl.create depth;
    answered_order = Queue.create ();
    answered_cap = 4 * depth;
    next_id = 1;
    faults = None;
    dropped = 0;
    duplicated = 0;
    corrupt_detected = 0;
    lock = Mutex.create ();
  }

let set_fault_injector t inj = t.faults <- Some inj

let send_request t ~sender_enclave body =
  Mutex.protect t.lock @@ fun () ->
  let id = t.next_id in
  let packet = { request_id = id; sender_enclave; body } in
  if Hypertee_util.Ring_queue.push t.requests packet then begin
    t.next_id <- t.next_id + 1;
    Hashtbl.replace t.queued id ();
    Ok id
  end
  else Error `Full

let recv_request t =
  Mutex.protect t.lock @@ fun () ->
  match Hypertee_util.Ring_queue.pop t.requests with
  | Some packet ->
    Hashtbl.remove t.queued packet.request_id;
    Hashtbl.replace t.in_flight packet.request_id packet;
    Some packet
  | None -> None

let remember_answer t ~request_id resp =
  if not (Hashtbl.mem t.answered request_id) then begin
    Hashtbl.replace t.answered request_id resp;
    Queue.push request_id t.answered_order;
    if Queue.length t.answered_order > t.answered_cap then
      Hashtbl.remove t.answered (Queue.pop t.answered_order)
  end

(* The fabric between EMS and the response queue: under a fault plan
   a posted packet can be dropped, duplicated or corrupted. The
   retransmit cache already holds the good copy, so a later
   [resend_request] can recover without re-executing anything. *)
let post t ~request_id resp =
  match t.faults with
  | None -> Hashtbl.replace t.responses request_id { resp; copies = 1; intact = true }
  | Some inj ->
    if Fault.fire inj Fault.Mailbox_drop then t.dropped <- t.dropped + 1
    else begin
      let copies =
        if Fault.fire inj Fault.Mailbox_duplicate then begin
          t.duplicated <- t.duplicated + 1;
          2
        end
        else 1
      in
      let intact = not (Fault.fire inj Fault.Mailbox_corrupt) in
      Hashtbl.replace t.responses request_id { resp; copies; intact }
    end

let send_response t ~request_id resp =
  Mutex.protect t.lock @@ fun () ->
  if not (Hashtbl.mem t.in_flight request_id) then Error `Unknown_or_answered
  else begin
    Hashtbl.remove t.in_flight request_id;
    remember_answer t ~request_id resp;
    post t ~request_id resp;
    Ok ()
  end

let poll_response t ~request_id =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.responses request_id with
  | None -> None
  | Some slot ->
    if not slot.intact then begin
      (* CRC mismatch: the packet is discarded at the consumer; the
         retransmit cache can resend a good copy. *)
      Hashtbl.remove t.responses request_id;
      t.corrupt_detected <- t.corrupt_detected + 1;
      None
    end
    else if slot.copies > 1 then begin
      slot.copies <- slot.copies - 1;
      Some slot.resp
    end
    else begin
      Hashtbl.remove t.responses request_id;
      Some slot.resp
    end

let discard_response t ~request_id =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.responses request_id with
  | None -> 0
  | Some slot ->
    Hashtbl.remove t.responses request_id;
    slot.copies

let resend_request t ~request_id =
  Mutex.protect t.lock @@ fun () ->
  if
    Hashtbl.mem t.responses request_id
    || Hashtbl.mem t.queued request_id
    || Hashtbl.mem t.in_flight request_id
  then `Pending
  else begin
    match Hashtbl.find_opt t.answered request_id with
    | Some resp ->
      (* EMS-side retransmission from the answered cache. The resent
         packet crosses the same faulty fabric. *)
      post t ~request_id resp;
      `Retransmitted
    | None -> `Unknown
  end

let pending_requests t =
  Mutex.protect t.lock (fun () -> Hypertee_util.Ring_queue.length t.requests)

let pending_responses t = Mutex.protect t.lock (fun () -> Hashtbl.length t.responses)
let issued t = t.next_id - 1
let dropped t = t.dropped
let duplicated t = t.duplicated
let corrupt_detected t = t.corrupt_detected

let publish_metrics t ~prefix registry =
  let module M = Hypertee_obs.Metrics in
  let set name help v = M.set_counter (M.counter registry ~help (prefix ^ name)) v in
  set "issued" "request ids issued" (issued t);
  set "dropped" "response packets lost on the fabric" t.dropped;
  set "duplicated" "response packets delivered twice" t.duplicated;
  set "corrupt_detected" "responses discarded by the CRC check" t.corrupt_detected;
  M.set_gauge (M.gauge registry ~help:"requests queued" (prefix ^ "pending_requests"))
    (float_of_int (pending_requests t));
  M.set_gauge (M.gauge registry ~help:"responses awaiting poll" (prefix ^ "pending_responses"))
    (float_of_int (pending_responses t))
