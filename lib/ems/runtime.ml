module Mem_encryption = Hypertee_arch.Mem_encryption

type recorder = sender:Types.enclave_id option -> Types.request -> Types.response -> unit

type t = {
  state : State.t;
  registry : Registry.t;
  mutable recorder : recorder option;
  mutable containment_recorder : (Types.enclave_id -> unit) option;
}

let build_registry () =
  let registry = Registry.create () in
  Svc_lifecycle.register registry;
  Svc_memory.register registry;
  Svc_shm.register registry;
  Svc_attest.register registry;
  Svc_channel.register registry;
  registry

let create ?first_enclave_id ?first_shm_id ?id_stride ?chans ~rng ~mem ~bitmap ~mee ~keys ~cost
    ~os_request ~os_return ~platform_measurement ~platform_certificate () =
  let state =
    State.create ?first_enclave_id ?first_shm_id ?id_stride ?chans ~rng ~mem ~bitmap ~mee ~keys
      ~cost ~os_request ~os_return ~platform_measurement ~platform_certificate ()
  in
  { state; registry = build_registry (); recorder = None; containment_recorder = None }

(* Journaling hooks (crash-consistent recovery): the platform points
   these at the shard's journal; [None] (the default) is a no-op. *)
let set_recorder t r = t.recorder <- Some r
let set_containment_recorder t r = t.containment_recorder <- Some r

(* Delegated lookups: the public surface is unchanged from the
   monolithic runtime. *)
let keys t = State.keys t.state
let pool t = State.pool t.state
let ownership t = State.ownership t.state
let platform_measurement t = State.platform_measurement t.state
let find_enclave t id = State.find_enclave t.state id
let find_shm t id = State.find_shm t.state id
let served t op = State.served t.state op
let live_enclaves t = State.live_enclaves t.state
let audit t = State.audit t.state
let service_ns t request = State.service_ns t.state request
let has_swapped_page t enclave ~vpn = State.has_swapped_page t.state enclave ~vpn
let shm_regions t = State.shm_regions t.state
let leaked_shm_frames t = State.leaked_shm_frames t.state
let shard t = t.state.State.shard
let id_stride t = t.state.State.id_stride
let state t = t.state
let services t = Registry.services t.registry
let service_of t opcode = Registry.service_of t.registry opcode

(* The enclave a request acts on, if any — the victim when serving
   the request trips a memory-integrity fault, and the affinity key
   the platform shards by. *)
let enclave_of_request = function
  | Types.Create _ | Types.Writeback _ -> None
  | Types.Add { enclave; _ }
  | Types.Enter { enclave }
  | Types.Resume { enclave }
  | Types.Exit { enclave }
  | Types.Destroy { enclave }
  | Types.Alloc { enclave; _ }
  | Types.Free { enclave; _ }
  | Types.Shmat { enclave; _ }
  | Types.Shmdt { enclave; _ }
  | Types.Measure { enclave }
  | Types.Attest { enclave; _ }
  | Types.Page_fault { enclave; _ }
  | Types.Interrupt { enclave; _ }
  | Types.Retire { enclave } ->
    Some enclave
  | Types.Shmget { owner; _ } | Types.Shmshr { owner; _ } | Types.Shmdes { owner; _ } ->
    Some owner
  | Types.Chan_open { listener } -> Some listener
  | Types.Chan_accept { enclave; _ } -> Some enclave
  (* Data-plane channel requests carry no enclave affinity: the gate
     routes them by the channel id's home-shard residue instead. *)
  | Types.Chan_send _ | Types.Chan_recv _ | Types.Chan_close _ -> None
  (* EWARM names no enclave up front — any shard's warm pool may hold
     a match, so it round-robins like Create. *)
  | Types.Warm_create _ -> None

(* Containment (Table I availability): a MAC failure while serving a
   primitive is a compromise of that enclave's memory, never of the
   platform. EMS terminates the affected enclave, records the event,
   and keeps serving everyone else. *)
let contain_integrity_fault t request ~frame =
  let state = t.state in
  let victim =
    match enclave_of_request request with
    | Some _ as v -> v
    | None -> (
      (* The request names no enclave (e.g. EWB touching victim
         pages): the compromised memory still has an owner. *)
      match Ownership.lookup state.State.ownership ~frame with
      | Some (Ownership.Private id) -> Some id
      | Some (Ownership.Shared_page _) | None -> None)
  in
  (match victim with
  | Some id when Hashtbl.mem state.State.enclaves id ->
    (try ignore (Svc_lifecycle.destroy state ~enclave:id)
     with _ -> Hashtbl.remove state.State.enclaves id);
    (* The faulted request will not re-fault against scrubbed
       post-recovery memory, so the termination is journaled as its
       own synthetic effect. *)
    Option.iter (fun f -> f id) t.containment_recorder
  | _ -> ());
  if Hypertee_obs.Trace.enabled () then
    Hypertee_obs.Trace.instant
      ~track:(Hypertee_obs.Trace.track_ems state.State.shard)
      ?enclave:victim ~cat:Hypertee_obs.Trace.Ems ~name:"ems:integrity-contained" ();
  Audit.record_fault state.State.audit ~site:"memory-integrity"
    ~detail:
      (Printf.sprintf "MAC mismatch at frame %d%s" frame
         (match victim with
         | Some id -> Printf.sprintf "; enclave %d terminated" id
         | None -> ""))
    ~recovered:false;
  Types.Err (Types.Integrity_failure { frame })

let handle t ~sender request =
  let opcode = Types.opcode_of_request request in
  State.count t.state opcode;
  let response =
    try Registry.dispatch t.registry t.state ~sender request with
    | Mem_encryption.Integrity_violation { frame } -> contain_integrity_fault t request ~frame
  in
  (* EMS-side view of the primitive: one span on this shard's track,
     as long as the modelled service time. The CS-side gate records
     its own decomposition of the same round trip. *)
  if Hypertee_obs.Trace.enabled () then begin
    let module Trace = Hypertee_obs.Trace in
    ignore
      (Trace.emit
         ~track:(Trace.track_ems t.state.State.shard)
         ?enclave:(enclave_of_request request)
         ~opcode:(Types.opcode_name opcode) ~cat:Trace.Ems
         ~name:("EMS:" ^ Types.opcode_name opcode)
         ~start_ns:(Trace.global_now ())
         ~dur_ns:(State.service_ns t.state request) ())
  end;
  let outcome =
    match response with
    | Types.Err e -> Audit.Refused (Types.error_message e)
    | _ -> Audit.Served
  in
  Audit.record (State.audit t.state) ~opcode ~sender ~outcome;
  Option.iter (fun f -> f ~sender request response) t.recorder;
  response

let publish_metrics t ~prefix registry =
  let module M = Hypertee_obs.Metrics in
  List.iter
    (fun op ->
      let n = served t op in
      if n > 0 then
        M.set_counter
          (M.counter registry ~help:"primitives served"
             (prefix ^ "served." ^ Types.opcode_name op))
          n)
    Types.all_opcodes;
  M.set_counter
    (M.counter registry ~help:"live enclaves" (prefix ^ "live_enclaves"))
    (List.length (live_enclaves t))
