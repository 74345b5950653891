module Types = Hypertee_ems.Types
module Mailbox = Hypertee_arch.Mailbox
module Config = Hypertee_arch.Config
module Fault = Hypertee_faults.Fault

type caller = Os_kernel | User_host | User_enclave of Types.enclave_id
type rejection = Cross_privilege | Mailbox_full | Timeout | Busy

(* Token-bucket admission control (disabled unless installed): the
   gate sheds load with a typed [Busy] instead of letting the mailbox
   queues collapse under a tenant stampede. Tokens refill on a
   virtual clock the driver advances — deterministic, like every
   other timing source in the model. *)
type admission = {
  rate_per_s : float;  (** sustained admit rate *)
  burst : int;  (** bucket capacity *)
  mutable tokens : float;
}

(* Recovery policy of the gate: how many poll slots to wait for a
   response, how many times to re-ask the mailbox for it (each
   re-ask doubles the backoff), before giving up with [Timeout].
   The bounds make [invoke] provably hang-free: at most
   [poll_budget * (max_retries + 1)] polls per call. *)
type retry_policy = { poll_budget : int; max_retries : int; backoff_base_ns : float }

let default_retry_policy = { poll_budget = 8; max_retries = 4; backoff_base_ns = 2_000.0 }

(* One EMS instance as the gate sees it: its private mailbox and the
   doorbell that makes it drain the queue. *)
type shard = {
  mailbox : (Types.request, Types.response) Mailbox.t;
  ems_service : unit -> unit;
}

(* Observation point for the differential oracle: every completed
   invocation (response or rejection) is reported with its caller;
   [batched] marks [invoke_batch] results. The scheduler randomizes
   execution order inside one doorbell drain, but the gate recovers
   the realized order post-hoc (drain-order probe) and fires batched
   taps in exactly that order, so the oracle can predict batches. *)
type tap =
  caller:caller ->
  batched:bool ->
  Types.request ->
  (Types.response * float, rejection) result ->
  unit

type t = {
  rng : Hypertee_util.Xrng.t;
  transport : Config.transport;
  shards : shard array;
  route : Types.request -> int;
  service_ns : Types.request -> float;
  retry : retry_policy;
  abandoned : (int, unit) Hashtbl.t array; (* per shard: timed-out ids *)
  abandoned_order : int Queue.t array;
  mutable faults : Fault.t option;
  mutable tap : tap option;
  mutable drain_order_probe : (int -> int list) option;
      (* shard index -> request ids in execution order (full log);
         the platform wires this to the shard schedulers *)
  mutable rejected : int;
  mutable tlb_flushes : int;
  mutable timeouts : int;
  mutable retries : int;
  mutable duplicates_discarded : int;
  mutable flush_hooks : (unit -> unit) list;
  mutable admission : admission option;
  mutable shed : int;
}

let create_sharded ?(retry = default_retry_policy) ~rng ~transport ~shards ~route ~service_ns
    () =
  if retry.poll_budget < 1 then invalid_arg "Emcall.create: poll_budget must be >= 1";
  if retry.max_retries < 0 then invalid_arg "Emcall.create: max_retries must be >= 0";
  if Array.length shards = 0 then invalid_arg "Emcall.create: need at least one EMS shard";
  let n = Array.length shards in
  {
    rng;
    transport;
    shards;
    route;
    service_ns;
    retry;
    abandoned = Array.init n (fun _ -> Hashtbl.create 16);
    abandoned_order = Array.init n (fun _ -> Queue.create ());
    faults = None;
    tap = None;
    drain_order_probe = None;
    rejected = 0;
    tlb_flushes = 0;
    timeouts = 0;
    retries = 0;
    duplicates_discarded = 0;
    flush_hooks = [];
    admission = None;
    shed = 0;
  }

let create ?retry ~rng ~transport ~mailbox ~ems_service ~service_ns () =
  create_sharded ?retry ~rng ~transport
    ~shards:[| { mailbox; ems_service } |]
    ~route:(fun _ -> 0) ~service_ns ()

let shard_count t = Array.length t.shards

(* The affinity function is provided by the platform and untrusted
   input never reaches it directly, but clamp defensively: a routing
   bug must not crash the gate. *)
let shard_of t request =
  let n = Array.length t.shards in
  let i = t.route request in
  if i >= 0 && i < n then i else ((i mod n) + n) mod n

(* Admission-control lifecycle. A fresh bucket starts full, so a
   configured gate admits an initial burst before pacing kicks in. *)
let set_admission t ~rate_per_s ~burst =
  if rate_per_s <= 0.0 then invalid_arg "Emcall.set_admission: rate_per_s must be > 0";
  if burst < 1 then invalid_arg "Emcall.set_admission: burst must be >= 1";
  t.admission <- Some { rate_per_s; burst; tokens = Float.of_int burst }

let clear_admission t = t.admission <- None

let advance_admission_ns t ns =
  match t.admission with
  | None -> ()
  | Some a ->
    if ns > 0.0 then
      a.tokens <- Float.min (Float.of_int a.burst) (a.tokens +. (ns *. a.rate_per_s /. 1e9))

let admission_tokens t = match t.admission with None -> None | Some a -> Some a.tokens

(* Consume one token, or shed. No admission installed = always admit
   (zero behavioral change for every pre-existing caller). *)
let admit t =
  match t.admission with
  | None -> true
  | Some a ->
    if a.tokens >= 1.0 then begin
      a.tokens <- a.tokens -. 1.0;
      true
    end
    else begin
      t.shed <- t.shed + 1;
      false
    end

let set_fault_injector t inj = t.faults <- Some inj
let set_drain_order_probe t probe = t.drain_order_probe <- Some probe
let set_tap t tap = t.tap <- Some tap
let clear_tap t = t.tap <- None
let observe t ~caller ~batched request result =
  match t.tap with None -> () | Some tap -> tap ~caller ~batched request result

(* Duplicate accounting, shared by every path that empties a response
   slot. A slot holds [copies] identical packets of which exactly one
   is legitimate; if the legitimate copy was already [consumed] by a
   poll, every remaining copy is a duplicate — otherwise one of the
   remaining copies is the (stale but legitimate) response and only
   the surplus is duplicated traffic. *)
let credit_duplicates t ~consumed ~copies =
  let extras = if consumed then copies else copies - 1 in
  if extras > 0 then t.duplicates_discarded <- t.duplicates_discarded + extras

(* Ids the gate timed out on. A late response to such an id must be
   drained (and its duplicates credited) the next time the gate polls
   that shard, so it can never linger in the response queue. The
   table is bounded: ids that never get answered age out. *)
let abandoned_cap = 1024

let mark_abandoned t ~shard_idx ~request_id =
  let tbl = t.abandoned.(shard_idx) and order = t.abandoned_order.(shard_idx) in
  if not (Hashtbl.mem tbl request_id) then begin
    Hashtbl.replace tbl request_id ();
    Queue.push request_id order;
    if Queue.length order > abandoned_cap then Hashtbl.remove tbl (Queue.pop order)
  end

let drain_abandoned t ~shard_idx shard =
  let tbl = t.abandoned.(shard_idx) in
  if Hashtbl.length tbl > 0 then begin
    let arrived =
      Hashtbl.fold
        (fun id () acc ->
          let copies = Mailbox.discard_response shard.mailbox ~request_id:id in
          if copies > 0 then (id, copies) :: acc else acc)
        tbl []
    in
    List.iter
      (fun (id, copies) ->
        credit_duplicates t ~consumed:false ~copies;
        Hashtbl.remove tbl id)
      arrived
  end

let caller_privilege = function
  | Os_kernel -> Types.Os
  | User_host | User_enclave _ -> Types.User

let sender_of_caller = function
  | Os_kernel | User_host -> None
  | User_enclave id -> Some id

(* Does the response imply the bitmap changed? Those force a TLB
   shoot-down so stale "checked" entries cannot bypass the check. *)
let bitmap_changed request response =
  match (request, response) with
  | _, Types.Err _ -> false
  | (Types.Create _ | Types.Alloc _ | Types.Free _ | Types.Writeback _ | Types.Destroy _
    | Types.Shmget _ | Types.Shmdes _ | Types.Page_fault _), _ ->
    true
  | ( ( Types.Add _ | Types.Enter _ | Types.Resume _ | Types.Exit _ | Types.Shmat _
      | Types.Shmdt _ | Types.Shmshr _ | Types.Measure _ | Types.Attest _
      | Types.Interrupt _
      (* Channel primitives touch only the fabric's control blocks,
         never the page-ownership bitmap. *)
      | Types.Chan_open _ | Types.Chan_accept _ | Types.Chan_send _ | Types.Chan_recv _
      | Types.Chan_close _
      (* EWARM hands out an already-built enclave: no page changes
         ownership. *)
      | Types.Warm_create _ ),
      _ ) ->
    false
  (* ERETIRE frees dynamic heap frames (and everything, when it falls
     back to a full destroy), so stale TLB entries must go. *)
  | Types.Retire _, _ -> true

let register_tlb_flush_hook t hook = t.flush_hooks <- hook :: t.flush_hooks

let flush_tlbs t =
  t.tlb_flushes <- t.tlb_flushes + 1;
  List.iter (fun hook -> hook ()) t.flush_hooks

let transport_ns t =
  let tr = t.transport in
  tr.Config.emcall_entry_ns +. tr.Config.packet_build_ns
  +. (2.0 *. tr.Config.fabric_hop_ns)
  +. tr.Config.interrupt_ns

(* Batched doorbell timing: one doorbell drains [batch] pending
   requests, so the shared transport round (fabric hops + doorbell
   interrupt + watchdog sweep) is paid once and split across the
   batch; only gate entry and packet build stay per-call. *)
let per_call_overhead_ns t ~batch =
  if batch < 1 then invalid_arg "Emcall.per_call_overhead_ns: batch must be >= 1";
  let tr = t.transport in
  tr.Config.emcall_entry_ns +. tr.Config.packet_build_ns
  +. (Config.doorbell_shared_ns tr /. Float.of_int batch)

(* An injected interconnect latency spike: pure time, no packet
   loss. Consumed only when a fault plan is installed. *)
let transport_spike_ns t =
  match t.faults with
  | None -> 0.0
  | Some inj ->
    if Fault.fire inj Fault.Transport_delay then Fault.intensity inj Fault.Transport_delay
    else 0.0

(* Lay one completed round trip out on the tracer's virtual cursor:
   a parent EMCALL span on the gate track of the serving shard, with
   children that partition it exactly —

     gate      = EMCall entry + packet build
     transport = the rest of the modelled overhead (fabric hops +
                 doorbell, amortized when batched)
     service   = the primitive's modelled service time
     wait      = latency - overhead - service (poll quantisation,
                 jitter, injected spikes, retry backoff; >= 0 because
                 quantised latency never undercuts the raw cost)

   so gate + transport + service + wait = latency by construction —
   the reconciliation property test_obs.ml asserts. *)
let trace_call t ~shard_idx ~request ~request_id ~overhead_ns ~service_ns ~latency_ns =
  let module Trace = Hypertee_obs.Trace in
  match Trace.installed () with
  | None -> ()
  | Some tracer ->
    let tr = t.transport in
    let gate_ns = tr.Config.emcall_entry_ns +. tr.Config.packet_build_ns in
    let fabric_ns = overhead_ns -. gate_ns in
    let wait_ns = latency_ns -. overhead_ns -. service_ns in
    let start = Trace.now tracer in
    let track = Trace.track_gate shard_idx in
    let opcode = Types.opcode_name (Types.opcode_of_request request) in
    let enclave = Hypertee_ems.Runtime.enclave_of_request request in
    let parent =
      Trace.emit ~track ?enclave ~opcode ~request_id ~cat:Trace.Emcall
        ~name:("EMCALL:" ^ opcode) ~start_ns:start ~dur_ns:latency_ns ()
    in
    let child cat name off dur =
      ignore
        (Trace.emit ~track ~parent ?enclave ~opcode ~request_id ~cat ~name
           ~start_ns:(start +. off) ~dur_ns:dur ())
    in
    child Trace.Gate "gate" 0.0 gate_ns;
    child Trace.Transport "transport" gate_ns fabric_ns;
    child Trace.Service "service" (gate_ns +. fabric_ns) service_ns;
    child Trace.Wait "wait" (gate_ns +. fabric_ns +. service_ns) wait_ns;
    Trace.advance tracer latency_ns

let complete t shard ~shard_idx ~request ~request_id ~overhead_ns ~extra_ns response =
  (* Any further copies of this response are duplicates: detect and
     discard them here, so a duplicated packet can never be mistaken
     for the answer to a later request. *)
  credit_duplicates t ~consumed:true
    ~copies:(Mailbox.discard_response shard.mailbox ~request_id);
  let service = t.service_ns request in
  let raw = overhead_ns +. service +. extra_ns in
  let slot = t.transport.Config.poll_slot_ns in
  (* Polling rounds the observable latency *up* to the next slot
     boundary; a raw cost already on a boundary completes in that
     slot and must not pay an extra one. *)
  let quantised = Float.ceil (raw /. slot) *. slot in
  let jitter = Hypertee_util.Xrng.float t.rng *. slot in
  let latency = quantised +. jitter in
  if Hypertee_obs.Trace.enabled () then
    trace_call t ~shard_idx ~request ~request_id ~overhead_ns ~service_ns:service
      ~latency_ns:latency;
  if bitmap_changed request response then flush_tlbs t;
  (match (request, response) with
  | (Types.Enter _ | Types.Resume _), Types.Ok_entered _ ->
    (* Atomic CS register update: satp switch + IS_ENCLAVE are
       performed by the platform layer inside the same gate
       call; the TLB flush is issued here. *)
    flush_tlbs t
  | _ -> ());
  Ok (response, latency)

let gate_check t ~caller request =
  let opcode = Types.opcode_of_request request in
  let required = Types.required_privilege opcode in
  (* Page faults are forwarded by EMCall itself from trap context;
     they bypass the privilege check (machine mode). *)
  let is_fault =
    match request with Types.Page_fault _ | Types.Interrupt _ -> true | _ -> false
  in
  if (not is_fault) && caller_privilege caller <> required then begin
    t.rejected <- t.rejected + 1;
    Error Cross_privilege
  end
  else Ok (sender_of_caller caller)

(* EMCall polls — never the untrusted interrupt path. Polling
   quantises observable latency to poll slots and adds jitter, the
   paper's obfuscation against timing side channels.

   Under faults the response may be late (stalled worker), lost
   (dropped packet) or garbled (bad CRC): poll up to [poll_budget]
   slots — each poll re-rings the doorbell, which runs the EMS
   watchdog — then re-ask the mailbox for the response by id with
   exponential backoff. Re-asking hits the answered cache, never
   re-executes the primitive: delivery is exactly-once by
   construction. *)
let await t shard ~shard_idx ~request ~request_id ~overhead_ns ~extra_ns =
  (* Late responses to previously timed-out ids are stale by
     definition: drain them before polling for the live id. *)
  drain_abandoned t ~shard_idx shard;
  let slot_ns = t.transport.Config.poll_slot_ns in
  let rec go ~polls ~retry_count ~extra_ns =
    match Mailbox.poll_response shard.mailbox ~request_id with
    | Some response ->
      complete t shard ~shard_idx ~request ~request_id ~overhead_ns ~extra_ns response
    | None ->
      if polls < t.retry.poll_budget then begin
        shard.ems_service ();
        go ~polls:(polls + 1) ~retry_count ~extra_ns:(extra_ns +. slot_ns)
      end
      else if retry_count < t.retry.max_retries then begin
        t.retries <- t.retries + 1;
        if Hypertee_obs.Trace.enabled () then
          Hypertee_obs.Trace.instant
            ~track:(Hypertee_obs.Trace.track_gate shard_idx)
            ~request_id ~cat:Hypertee_obs.Trace.Wait ~name:"emcall:retry" ();
        ignore (Mailbox.resend_request shard.mailbox ~request_id);
        shard.ems_service ();
        let backoff = t.retry.backoff_base_ns *. Float.of_int (1 lsl retry_count) in
        go ~polls:0 ~retry_count:(retry_count + 1) ~extra_ns:(extra_ns +. backoff)
      end
      else begin
        t.timeouts <- t.timeouts + 1;
        if Hypertee_obs.Trace.enabled () then
          Hypertee_obs.Trace.instant
            ~track:(Hypertee_obs.Trace.track_gate shard_idx)
            ~request_id ~cat:Hypertee_obs.Trace.Wait ~name:"emcall:timeout" ();
        (* Whatever arrives after the deadline is stale: make sure
           a late or duplicated response can never be collected by
           a future request (ids are unique, but the slot should
           not linger). Copies discarded here count toward the same
           duplicate telemetry as the [complete] path, and the id
           stays on the abandoned list so a response arriving even
           later is drained too. *)
        credit_duplicates t ~consumed:false
          ~copies:(Mailbox.discard_response shard.mailbox ~request_id);
        mark_abandoned t ~shard_idx ~request_id;
        Error Timeout
      end
  in
  go ~polls:0 ~retry_count:0 ~extra_ns

let invoke_timed t ~caller request =
  let result =
    match gate_check t ~caller request with
    | Error _ as e -> e
    | Ok _ when not (admit t) -> Error Busy
    | Ok sender -> (
      let shard_idx = shard_of t request in
      let shard = t.shards.(shard_idx) in
      match Mailbox.send_request shard.mailbox ~sender_enclave:sender request with
      | Error `Full ->
        t.rejected <- t.rejected + 1;
        Error Mailbox_full
      | Ok request_id ->
        (* Doorbell: the EMS side drains the queue and posts responses. *)
        shard.ems_service ();
        await t shard ~shard_idx ~request ~request_id ~overhead_ns:(transport_ns t)
          ~extra_ns:(transport_spike_ns t))
  in
  observe t ~caller ~batched:false request result;
  result

let invoke t ~caller request = Result.map fst (invoke_timed t ~caller request)

(* One doorbell per shard drains every request of the batch that
   landed there (through the EMS scheduler), so the shared transport
   round amortizes over the per-shard batch size. Results come back
   in request order, each with its own modelled latency. *)
let invoke_batch t requests =
  let sent =
    List.map
      (fun (caller, request) ->
        match gate_check t ~caller request with
        | Error rejection -> Error rejection
        | Ok _ when not (admit t) -> Error Busy
        | Ok sender -> (
          let idx = shard_of t request in
          let shard = t.shards.(idx) in
          match Mailbox.send_request shard.mailbox ~sender_enclave:sender request with
          | Error `Full ->
            t.rejected <- t.rejected + 1;
            Error Mailbox_full
          | Ok request_id -> Ok (idx, request_id, request)))
      requests
  in
  (* Per-shard batch sizes, for the amortized timing model. *)
  let per_shard = Array.make (Array.length t.shards) 0 in
  List.iter
    (function Ok (idx, _, _) -> per_shard.(idx) <- per_shard.(idx) + 1 | Error _ -> ())
    sent;
  (* Snapshot every shard's scheduler-log cursor so the drain's
     realized execution order can be recovered once the batch is
     collected. *)
  let marks =
    match t.drain_order_probe with
    | None -> [||]
    | Some probe -> Array.init (Array.length t.shards) (fun i -> List.length (probe i))
  in
  (* One doorbell per shard with pending work, in shard order: the
     drain serves the whole batch before any caller starts polling. *)
  Array.iteri (fun idx n -> if n > 0 then t.shards.(idx).ems_service ()) per_shard;
  let outcomes =
    List.map2
      (fun (caller, request) outcome ->
        let result =
          match outcome with
          | Error rejection -> Error rejection
          | Ok (idx, request_id, request) ->
            let shard = t.shards.(idx) in
            let overhead_ns = per_call_overhead_ns t ~batch:per_shard.(idx) in
            await t shard ~shard_idx:idx ~request ~request_id ~overhead_ns
              ~extra_ns:(transport_spike_ns t)
        in
        (caller, request, outcome, result))
      requests sent
  in
  (* Taps fire in the drain order the scheduler actually produced —
     gate rejections first (they never reached a scheduler), then
     each shard's results by log position — so a sequential observer
     (the oracle) sees state mutations in execution order even
     though the drain itself is shuffle-randomized. Results still
     return in request order below. *)
  let drain_pos =
    match t.drain_order_probe with
    | None -> fun _ _ -> max_int
    | Some probe ->
      let suffix_pos =
        Array.mapi
          (fun i mark ->
            let tbl = Hashtbl.create 16 in
            List.iteri
              (fun pos id ->
                if pos >= mark && not (Hashtbl.mem tbl id) then Hashtbl.add tbl id pos)
              (probe i);
            tbl)
          marks
      in
      fun idx request_id ->
        Option.value ~default:max_int (Hashtbl.find_opt suffix_pos.(idx) request_id)
  in
  let keyed =
    List.mapi
      (fun i (caller, request, outcome, result) ->
        let key =
          match outcome with
          | Error _ -> (-1, 0, i)
          | Ok (idx, request_id, _) -> (idx, drain_pos idx request_id, i)
        in
        (key, (caller, request, result)))
      outcomes
  in
  List.iter
    (fun (_, (caller, request, result)) -> observe t ~caller ~batched:true request result)
    (List.sort (fun (a, _) (b, _) -> compare a b) keyed);
  List.map (fun (_, _, _, result) -> result) outcomes

let rejected t = t.rejected
let shed t = t.shed
let tlb_flushes t = t.tlb_flushes
let timeouts t = t.timeouts
let retries t = t.retries
let duplicates_discarded t = t.duplicates_discarded

let publish_metrics t registry =
  let module M = Hypertee_obs.Metrics in
  let set name help v = M.set_counter (M.counter registry ~help ("emcall." ^ name)) v in
  set "rejected" "requests blocked at the gate" t.rejected;
  set "shed" "requests shed by admission control (Busy)" t.shed;
  set "tlb_flushes" "TLB shoot-downs issued" t.tlb_flushes;
  set "timeouts" "invocations that exhausted the retry budget" t.timeouts;
  set "retries" "response re-requests issued" t.retries;
  set "duplicates_discarded" "duplicate response copies discarded" t.duplicates_discarded;
  set "shards" "EMS shards behind the gate" (shard_count t)
