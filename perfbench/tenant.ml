(* Open-loop tenant sessions (workloads tenant-mix and tenant-cold).

   Each session is the enclave-as-a-service lifecycle, every step a
   [Platform.invoke_timed] call:

     EWARM (warm-pool hit) | ECREATE + EADD* + EMEAS + EATTEST (miss)
     -> ECHOPEN + ECHACC + ops x (ECHSEND + ECHRECV) + ECHCLOSE
     -> ERETIRE

   Time is a per-shard FCFS single-server queue in virtual time: the
   gate's modelled round trip is a call's service time on its shard,
   session latency is ERETIRE completion minus arrival, and the gate's
   token bucket refills on the same clock. Arrivals fire at their due
   virtual time, so the generator is never late. *)

module Platform = Hypertee.Platform
module Emcall = Hypertee_cs.Emcall
module Types = Hypertee_ems.Types
module Engine = Hypertee_sim.Engine
module Resource = Hypertee_sim.Resource

type outcome = Pending | Skipped | Completed | Shed | Failed of string

(* The four modelled parts of a session's latency; they sum to it. *)
type ledger = {
  mutable gate_ns : float;  (** gate + transport: modelled call latency minus EMS service *)
  mutable service_ns : float;  (** [Cost.service_ns] of every call *)
  mutable wait_ns : float;  (** FCFS queue wait on the shards *)
  mutable retry_ns : float;  (** gaps before admission retries *)
}

type session = {
  gen : Gen.session;
  ledger : ledger;
  mutable finish_ns : float;
  mutable outcome : outcome;
  mutable send_ns : float;  (** latency of the round's ECHSEND, until its ECHRECV *)
}

let latency s = s.finish_ns -. s.gen.Gen.arrival_ns

(* Host throughput over [slice] consecutive completions, tagged with the
   rung of the session that closed the slice. *)
type slice = { rung : int; sessions_per_s : float }

let ledger_sum l = l.gate_ns +. l.service_ns +. l.wait_ns +. l.retry_ns

type t = {
  platform : Platform.t;
  probe : Probe.t;
  engine : Engine.t;
  deadline_ns : float;  (** host time after which arrivals are skipped *)
  slice : int;
  mutable slice_t0 : float;
  mutable completed : int;
  mutable slices : slice list;
  queues : Resource.t array;
  busy_ns : float array;  (** modelled time each shard's queue was held *)
  retry_gap_ns : float;
  mutable last_admission_ns : float;
  mutable rr : int;
  mutable current : session option;  (** session whose call is in the gate *)
  mutable warm_attempts : int;
  mutable warm_hits : int;
  mutable echoes : float list;  (** modelled ECHSEND + ECHRECV per compute round *)
  mutable violation : string option;  (** correctness failure: ends the run nonzero *)
}

(* The gate's bucket refills on the virtual clock; events fire in
   time order, so the advance is never negative. *)
let sync_admission t =
  let now = Engine.now t.engine in
  if now > t.last_admission_ns then begin
    Platform.advance_admission_ns t.platform (now -. t.last_admission_ns);
    t.last_admission_ns <- now
  end

(* The shard that served a call, for the queue model: the one owning
   the enclave the call named or created, the channel's residue class,
   or EWARM's measurement home. A failed ECREATE names no enclave; the
   gate round-robins those, and so does the model. *)
let shard_of t request response =
  let shards = Array.length t.queues in
  match (request, response) with
  | (Types.Create _ | Types.Warm_create _), Types.Ok_created { enclave } ->
    Platform.shard_of_enclave t.platform enclave
  | Types.Warm_create { measurement }, _ -> Types.warm_home ~shards measurement
  | (Types.Chan_send { chan; _ } | Types.Chan_recv { chan } | Types.Chan_close { chan }), _ ->
    (chan - 1) mod shards
  | ( ( Types.Add { enclave; _ }
      | Types.Measure { enclave }
      | Types.Attest { enclave; _ }
      | Types.Chan_open { listener = enclave }
      | Types.Chan_accept { enclave; _ }
      | Types.Retire { enclave } ),
      _ ) ->
    Platform.shard_of_enclave t.platform enclave
  | _ ->
    t.rr <- t.rr + 1;
    (t.rr - 1) mod shards

let max_busy_retries = 64

(* The tap reports every completed call; the session in the gate owns
   its modelled cost. *)
let on_call t request ~latency ~service =
  match t.current with
  | None -> ()
  | Some s ->
    s.ledger.service_ns <- s.ledger.service_ns +. service;
    s.ledger.gate_ns <- s.ledger.gate_ns +. (latency -. service);
    (match request with
    | Types.Chan_send _ -> s.send_ns <- latency
    | Types.Chan_recv _ -> t.echoes <- (s.send_ns +. latency) :: t.echoes
    | _ -> ())

let span_names = List.map (fun op -> (op, "ems." ^ Types.opcode_name op)) Types.all_opcodes

let invoke t s ~caller request =
  t.current <- Some s;
  t.probe.Probe.session <- s.gen.Gen.sid;
  let r =
    Probe.span t.probe ~layer:"ems"
      (List.assoc (Types.opcode_of_request request) span_names)
      (fun () -> Platform.invoke_timed t.platform ~caller request)
  in
  t.current <- None;
  r

let finish t s outcome =
  s.finish_ns <- Engine.now t.engine;
  s.outcome <- outcome;
  if outcome = Completed then begin
    t.completed <- t.completed + 1;
    if t.completed mod t.slice = 0 then begin
      let now = Probe.now_ns () in
      let sessions_per_s = float_of_int t.slice /. ((now -. t.slice_t0) /. 1e9) in
      t.slices <- { rung = s.gen.Gen.rung; sessions_per_s } :: t.slices;
      t.slice_t0 <- now
    end
  end

(* A failed session gives its enclave back so it cannot pin frames.
   The teardown skips the queue model: a failed session has no latency
   to account for. *)
let abandon t s enclave reason =
  finish t s (Failed reason);
  match enclave with
  | Some id -> ignore (invoke t s ~caller:Emcall.Os_kernel (Types.Destroy { enclave = id }))
  | None -> ()

(* Issue one call through the modelled queue: execute it against the
   platform (mutating state, learning its modelled latency), then hold
   the serving shard's queue for that long; [k] continues the session
   at completion. Only the opening call may shed a session; later
   EBUSYs retry after one token's refill time. *)
let rec call t s ?(retries = 0) ~opening ~enclave ~caller request k =
  sync_admission t;
  match invoke t s ~caller request with
  | Error Emcall.Busy when opening && retries = 0 -> finish t s Shed
  | Error Emcall.Busy when retries >= max_busy_retries ->
    abandon t s !enclave "admission retries exhausted"
  | Error Emcall.Busy ->
    s.ledger.retry_ns <- s.ledger.retry_ns +. t.retry_gap_ns;
    Engine.after t.engine ~delay:t.retry_gap_ns (fun _ ->
        call t s ~retries:(retries + 1) ~opening ~enclave ~caller request k)
  | Error (Emcall.Cross_privilege | Emcall.Mailbox_full | Emcall.Timeout) ->
    abandon t s !enclave "gate rejection"
  | Ok (response, latency) ->
    let shard = shard_of t request response in
    t.busy_ns.(shard) <- t.busy_ns.(shard) +. latency;
    Resource.submit t.queues.(shard) ~service_ns:latency ~on_done:(fun ~queued_ns ~total_ns:_ ->
        s.ledger.wait_ns <- s.ledger.wait_ns +. queued_ns;
        k response)

let start t (s : session) =
  let g = s.gen in
  let image = g.Gen.image in
  let enclave = ref None in
  let fail what = function
    | Types.Err e -> abandon t s !enclave (what ^ ": " ^ Types.error_message e)
    | _ -> abandon t s !enclave (what ^ ": unexpected response")
  in
  let call ?(opening = false) ~caller request k = call t s ~opening ~enclave ~caller request k in
  let unit_then what k = function Types.Ok_unit -> k () | r -> fail what r in
  let id () = Option.get !enclave in
  let retire () =
    call ~caller:Emcall.Os_kernel (Types.Retire { enclave = id () })
      (unit_then "ERETIRE" (fun () -> finish t s Completed))
  in
  let rec compute chan left =
    if left = 0 then
      call ~caller:Emcall.User_host (Types.Chan_close { chan }) (unit_then "ECHCLOSE" retire)
    else
      let seg = Bytes.make 64 (Char.chr (0x30 + (left land 0x3f))) in
      call ~caller:Emcall.User_host (Types.Chan_send { chan; seg })
        (unit_then "ECHSEND" (fun () ->
             call ~caller:(Emcall.User_enclave (id ())) (Types.Chan_recv { chan }) (function
               | Types.Ok_seg _ -> compute chan (left - 1)
               | r -> fail "ECHRECV" r)))
  in
  let open_channel () =
    call ~caller:Emcall.User_host (Types.Chan_open { listener = id () }) (function
      | Types.Ok_chan { chan; _ } ->
        call ~caller:(Emcall.User_enclave (id ())) (Types.Chan_accept { enclave = id (); chan })
          (function Types.Ok_chan _ -> compute chan g.Gen.ops | r -> fail "ECHACC" r)
      | r -> fail "ECHOPEN" r)
  in
  (* Cold path: the SDK's launch sequence, re-issued through the timed
     queue, then one attestation of the fresh identity. *)
  let cold () =
    let config = image.Gen.sdk.Hypertee.Sdk.config in
    call ~caller:Emcall.Os_kernel (Types.Create { config }) (function
      | Types.Ok_created { enclave = fresh } ->
        enclave := Some fresh;
        let rec add = function
          | [] ->
            call ~caller:Emcall.Os_kernel (Types.Measure { enclave = fresh }) (function
              | Types.Ok_measure { measurement } ->
                if Bytes.equal measurement image.Gen.measurement then
                  call ~caller:(Emcall.User_enclave fresh)
                    (Types.Attest { enclave = fresh; user_data = Bytes.of_string "perfbench" })
                    (function Types.Ok_attest _ -> open_channel () | r -> fail "EATTEST" r)
                else begin
                  t.violation <-
                    Some
                      (Printf.sprintf "session %d: EMEAS differs from the expected measurement"
                         g.Gen.sid);
                  abandon t s !enclave "EMEAS mismatch"
                end
              | r -> fail "EMEAS" r)
          | (vpn, data, executable) :: rest ->
            call ~caller:Emcall.Os_kernel (Types.Add { enclave = fresh; vpn; data; executable })
              (unit_then "EADD" (fun () -> add rest))
        in
        add (Hypertee.Sdk.add_plan image.Gen.sdk)
      | r -> fail "ECREATE" r)
  in
  t.warm_attempts <- t.warm_attempts + 1;
  call ~opening:true ~caller:Emcall.Os_kernel
    (Types.Warm_create { measurement = image.Gen.measurement })
    (function
    | Types.Ok_created { enclave = warm } ->
      t.warm_hits <- t.warm_hits + 1;
      enclave := Some warm;
      open_channel ()
    | Types.Err (Types.Bad_state _) -> cold ()
    | r -> fail "EWARM" r)

type result = {
  sessions : session array;
  warm_attempts : int;
  warm_hits : int;
  echoes : float array;  (** sorted, ns *)
  slices : slice array;
  host_ns : float;  (** host time of the whole open loop *)
  busy_frac : float;  (** mean shard utilisation over the modelled run *)
  events : int;
  violation : string option;
}

let run ~platform ~probe ~admission_rate ?(deadline_ns = infinity) ~slice
    (arrivals : Gen.session list) =
  let engine = Engine.create () in
  let shards = Platform.shard_count platform in
  let t =
    {
      platform;
      probe;
      engine;
      deadline_ns;
      slice;
      slice_t0 = Probe.now_ns ();
      completed = 0;
      slices = [];
      queues = Array.init shards (fun _ -> Resource.create engine ~servers:1);
      busy_ns = Array.make shards 0.0;
      retry_gap_ns = 1e9 /. admission_rate;
      last_admission_ns = 0.0;
      rr = 0;
      current = None;
      warm_attempts = 0;
      warm_hits = 0;
      echoes = [];
      violation = None;
    }
  in
  probe.Probe.on_call <- on_call t;
  let sessions =
    Array.of_list
      (List.map
         (fun gen ->
           {
             gen;
             ledger = { gate_ns = 0.0; service_ns = 0.0; wait_ns = 0.0; retry_ns = 0.0 };
             finish_ns = nan;
             outcome = Pending;
             send_ns = 0.0;
           })
         arrivals)
  in
  Array.iter
    (fun s ->
      Engine.at engine ~time:s.gen.Gen.arrival_ns (fun _ ->
          if Probe.now_ns () < t.deadline_ns then start t s else s.outcome <- Skipped))
    sessions;
  let t0 = Probe.now_ns () in
  let end_ns = Engine.run engine in
  let host_ns = Probe.now_ns () -. t0 in
  probe.Probe.on_call <- Probe.ignore_call;
  probe.Probe.session <- -1;
  let violation =
    match t.violation with
    | Some _ as v -> v
    | None ->
      Array.find_map
        (fun s ->
          if s.outcome = Pending then
            Some (Printf.sprintf "session %d never finished" s.gen.Gen.sid)
          else None)
        sessions
  in
  {
    sessions;
    warm_attempts = t.warm_attempts;
    warm_hits = t.warm_hits;
    echoes = Probe.sorted_of_list t.echoes;
    slices = Array.of_list (List.rev t.slices);
    host_ns;
    busy_frac =
      (if end_ns <= 0.0 then 0.0
       else Array.fold_left ( +. ) 0.0 t.busy_ns /. (float_of_int shards *. end_ns));
    events = Engine.processed engine;
    violation;
  }
