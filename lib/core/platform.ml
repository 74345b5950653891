module Config = Hypertee_arch.Config
module Phys_mem = Hypertee_arch.Phys_mem
module Bitmap = Hypertee_arch.Bitmap
module Mem_encryption = Hypertee_arch.Mem_encryption
module Ihub = Hypertee_arch.Ihub
module Iommu = Hypertee_arch.Iommu
module Mailbox = Hypertee_arch.Mailbox
module Ptw = Hypertee_arch.Ptw
module Tlb = Hypertee_arch.Tlb
module Page_table = Hypertee_arch.Page_table
module Pte = Hypertee_arch.Pte
module Types = Hypertee_ems.Types
module Runtime = Hypertee_ems.Runtime
module Keymgmt = Hypertee_ems.Keymgmt
module Cost = Hypertee_ems.Cost
module Os = Hypertee_cs.Os
module Emcall = Hypertee_cs.Emcall
module Traps = Hypertee_cs.Traps

module Fault = Hypertee_faults.Fault

(* One EMS instance: its runtime (private control structures, pool,
   audit log), its mailbox, and its worker scheduler. The memory
   fabric — physical memory, bitmap, encryption engine, root keys —
   is platform-wide and shared by every shard. [runtime] and
   [scheduler] are mutable because crash recovery cold-restarts a
   shard: the EMS-private state dies with the shard and is rebuilt
   fresh, while the mailbox (fabric hardware) survives. *)
type ems_shard = {
  mutable runtime : Runtime.t;
  mailbox : (Types.request, Types.response) Mailbox.t;
  mutable scheduler : Hypertee_ems.Scheduler.t;
}

type t = {
  config : Config.t;
  rng : Hypertee_util.Xrng.t;
  mem : Phys_mem.t;
  bitmap : Bitmap.t;
  mee : Mem_encryption.t;
  ihub : Ihub.t;
  iommu : Iommu.t;
  os : Os.t;
  keys : Keymgmt.t;
  shards : ems_shard array;
  emcall : Emcall.t;
  traps : Traps.t;
  ptws : Ptw.t array;
  engine : Hypertee_crypto.Engine.t;
  cost : Cost.t;
  platform_measurement : bytes;
  platform_certificate : bytes;
      (* EK signature over [platform_measurement]: both are fixed for
         the boot, so the certificate is issued once, here, and every
         quote carries it *)
  faults : Fault.t option;
  chans : Hypertee_ems.Chan.t;
      (* platform-global secure-channel fabric, shared by every shard
         (the cross-shard transport); survives shard death — recovery
         reaps only the dead shard's home channels *)
  (* Elasticity + recovery plane. *)
  journals : Hypertee_ems.Journal.t array;  (* per shard, survives shard death *)
  alive : bool array;  (* doorbells of a dead shard are ignored *)
  route_overrides : (Types.enclave_id, int) Hashtbl.t;
      (* migrated ids: enclave -> hosting shard, overriding residue *)
  services : (unit -> unit) array;  (* per-shard doorbell, for draining *)
  recovery_rng : Hypertee_util.Xrng.t;
      (* seeded independently of the master stream so recovery and
         migration leave every pre-existing draw sequence intact *)
  mutable oracle : Hypertee_check.Oracle.t option;
}

let create ?(seed = 0x4854454531L (* "HTEE1" *)) ?(config = Config.default) ?faults () =
  let shard_count = config.Config.ems_shards in
  if shard_count < 1 then failwith "Platform.create: ems_shards must be >= 1";
  if config.Config.domains <> 1 then failwith "Platform.create: domains must be 1";
  let rng = Hypertee_util.Xrng.create seed in
  let frames = config.Config.memory_mb * Hypertee_util.Units.mib / Hypertee_util.Units.page_size in
  let mem = Phys_mem.create ~frames in
  let bitmap = Bitmap.create mem in
  (* Reserve the EMS private address space (Sec. III-D optimisation 3:
     carved out of physical memory at boot by the initialisation
     logic). *)
  let ems_frames =
    config.Config.ems_memory_mb * Hypertee_util.Units.mib / Hypertee_util.Units.page_size
  in
  (match Phys_mem.find_free mem ~n:ems_frames with
  | Some fs -> List.iter (fun f -> Phys_mem.set_owner mem f Phys_mem.Ems_private) fs
  | None -> failwith "Platform.create: memory too small for EMS carve-out");
  let mee = Mem_encryption.create ~slots:256 () in
  let ihub = Ihub.create mem in
  let iommu = Iommu.create () in
  let os = Os.create mem in
  let keys = Keymgmt.provision (Hypertee_util.Xrng.split rng) in
  (* Secure boot (Sec. VI): the BootROM verifies the encrypted EMS
     Runtime against the EEPROM hash, then the CS firmware; the
     resulting platform measurement covers the verified TCB. *)
  let provisioned =
    Hypertee_ems.Boot.provision
      (Hypertee_util.Xrng.split rng)
      ~runtime_image:(Bytes.of_string "hypertee-ems-runtime-v1")
      ~firmware_image:(Bytes.of_string "hypertee-emcall-firmware-v1")
  in
  let platform_measurement =
    match Hypertee_ems.Boot.boot provisioned with
    | Hypertee_ems.Boot.Booted { platform_measurement; _ } -> platform_measurement
    | Hypertee_ems.Boot.Halted { at; reason } ->
      failwith
        (Printf.sprintf "Platform.create: secure boot halted at %s: %s"
           (Hypertee_ems.Boot.stage_name at) reason)
  in
  let platform_certificate =
    Hypertee_ems.Attest.platform_certificate keys ~platform_measurement
  in
  (* Compile the fault plan into one injector shared by every hook of
     this platform instance. With no plan the hooks stay [None] and
     every fault path is provably dead: no RNG draw, no branch taken,
     byte-identical behaviour. *)
  let injector = Option.map Fault.create faults in
  let install setter target = Option.iter (fun inj -> setter target inj) injector in
  let engine =
    let base =
      if config.Config.crypto_engine then Hypertee_crypto.Engine.default_hardware
      else Hypertee_crypto.Engine.default_software
    in
    (* The defaults are shared constants: only a private copy may
       carry an injector. *)
    match injector with None -> base | Some _ -> Hypertee_crypto.Engine.copy base
  in
  install Hypertee_crypto.Engine.set_fault_injector engine;
  install Mem_encryption.set_fault_injector mee;
  let cost = Cost.create ~ems:(Config.ems_core config.Config.ems_kind) ~engine in
  (* EMS shards: shard [s] assigns enclave/shm ids from the residue
     class s+1 (mod shard_count), so [(id-1) mod shard_count] is the
     affinity function the gate routes by. Built in index order so
     the RNG split sequence is deterministic — and, for one shard,
     identical to the historical single-EMS platform. *)
  (* Recovery plane, created before the shards so the service
     closures can consult it. The journals belong to the platform,
     not to the runtimes they describe — they must survive a shard's
     death. *)
  let journals = Array.init shard_count (fun _ -> Hypertee_ems.Journal.create ()) in
  let alive = Array.make shard_count true in
  let route_overrides = Hashtbl.create 8 in
  (* Secure-channel fabric: one mutex-guarded table every shard
     shares, with per-shard id minting (docs/PROTOCOL.md §2). The
     fault injector hooks its queue-push path (Chan_corrupt /
     Chan_truncate / Chan_reorder). *)
  let chans = Hypertee_ems.Chan.create ~shards:shard_count in
  Hypertee_ems.Chan.set_injector chans injector;
  let wire_journal s runtime =
    Runtime.set_recorder runtime (fun ~sender request response ->
        Hypertee_ems.Journal.record journals.(s) ~sender request response);
    Runtime.set_containment_recorder runtime (fun victim ->
        Hypertee_ems.Journal.record_containment journals.(s) ~victim)
  in
  let make_shard s =
    let runtime =
      Runtime.create ~first_enclave_id:(s + 1) ~first_shm_id:(s + 1) ~id_stride:shard_count
        ~chans
        ~rng:(Hypertee_util.Xrng.split rng)
        ~mem ~bitmap ~mee ~keys ~cost
        ~os_request:(fun ~n -> Os.pool_request os ~n)
        ~os_return:(fun ~frames -> Os.pool_return os ~frames)
        ~platform_measurement ~platform_certificate ()
    in
    wire_journal s runtime;
    let mailbox = Mailbox.create ~depth:256 () in
    install Mailbox.set_fault_injector mailbox;
    (* EMS workers serve the request queue in randomized order at
       primitive granularity (Fig. 3 / Sec. III-C). *)
    let scheduler =
      Hypertee_ems.Scheduler.create
        ~track:(Hypertee_obs.Trace.track_ems s)
        (Hypertee_util.Xrng.split rng)
        ~workers:config.Config.ems_cores
    in
    install Hypertee_ems.Scheduler.set_fault_injector scheduler;
    { runtime; mailbox; scheduler }
  in
  let shards =
    let rec build s acc =
      if s = shard_count then Array.of_list (List.rev acc)
      else build (s + 1) (make_shard s :: acc)
    in
    build 0 []
  in
  (* A doorbell on shard [sh] drains *all* pending requests of that
     shard's mailbox into the scheduler, dispatches, then runs the
     watchdog: one ring serves a whole batch. A dead shard ignores
     its doorbell entirely — requests queue in the (hardware)
     mailbox, the gate's polls go unanswered and surface as clean
     [Timeout]s, and whatever queued during the outage is served
     after recovery. *)
  let ems_service s sh () =
    if not alive.(s) then ()
    else
    let audit = Runtime.audit sh.runtime in
    let rec enqueue () =
      match Mailbox.recv_request sh.mailbox with
      | None -> ()
      | Some packet ->
        Hypertee_ems.Scheduler.submit sh.scheduler ~id:packet.Mailbox.request_id (fun () ->
            let response =
              Runtime.handle sh.runtime ~sender:packet.Mailbox.sender_enclave
                packet.Mailbox.body
            in
            match
              Mailbox.send_response sh.mailbox ~request_id:packet.Mailbox.request_id response
            with
            | Ok () -> ()
            | Error `Unknown_or_answered ->
              (* A confused or re-dispatched worker answering twice
                 must never reach a caller — or crash the platform. *)
              Hypertee_ems.Audit.record_fault audit ~site:"mailbox"
                ~detail:
                  (Printf.sprintf "duplicate response for request %d suppressed"
                     packet.Mailbox.request_id)
                ~recovered:true);
        enqueue ()
    in
    enqueue ();
    ignore (Hypertee_ems.Scheduler.dispatch sh.scheduler);
    (* Watchdog sweep (runs on every doorbell): restart dead/stalled
       workers and re-dispatch their in-flight requests under the
       original ids, so the request/response binding survives. *)
    match Hypertee_ems.Scheduler.watchdog_scan sh.scheduler with
    | { Hypertee_ems.Scheduler.dead_workers = 0; redispatched = [] } -> ()
    | { Hypertee_ems.Scheduler.dead_workers; redispatched } ->
      Hypertee_ems.Audit.record_fault audit ~site:"ems-worker"
        ~detail:
          (Printf.sprintf "watchdog restarted %d worker(s), re-dispatched request(s) %s"
             dead_workers
             (String.concat "," (List.map string_of_int redispatched)))
        ~recovered:true;
      ignore (Hypertee_ems.Scheduler.dispatch sh.scheduler)
  in
  (* Affinity routing, inside the gate: a request acting on enclave
     [id] goes to the shard that owns the id's residue class — unless
     a migration re-routed the id (override table, flipped atomically
     at migration commit); requests naming no enclave (ECREATE, EWB)
     round-robin across shards, which together with each shard's id
     stride spreads new enclaves evenly. *)
  let rr_cursor = ref 0 in
  let route request =
    match request with
    (* Channel data plane: the chan id's residue class is the home
       shard — no lookup, no override (channels never migrate). *)
    | Types.Chan_send { chan; _ } | Types.Chan_recv { chan } | Types.Chan_close { chan }
      when chan > 0 ->
      (chan - 1) mod shard_count
    (* Warm-pool lookup: the measurement names its home shard — the
       only shard ERETIRE parks that image on. *)
    | Types.Warm_create { measurement } -> Types.warm_home ~shards:shard_count measurement
    | _ -> (
      match Runtime.enclave_of_request request with
      | Some id when id > 0 -> (
        match Hashtbl.find_opt route_overrides id with
        | Some s -> s
        | None -> (id - 1) mod shard_count)
      | _ ->
        let s = !rr_cursor in
        rr_cursor := (s + 1) mod shard_count;
        s)
  in
  let services = Array.mapi (fun s sh -> ems_service s sh) shards in
  let gate_shards =
    Array.mapi
      (fun s sh -> { Emcall.mailbox = sh.mailbox; Emcall.ems_service = services.(s) })
      shards
  in
  let emcall =
    Emcall.create_sharded
      ~rng:(Hypertee_util.Xrng.split rng)
      ~transport:config.Config.transport ~shards:gate_shards ~route
      ~service_ns:(fun request -> Runtime.service_ns shards.(0).runtime request)
      ()
  in
  install Emcall.set_fault_injector emcall;
  (* Expose each shard's realized drain order to the gate (and through
     it to the oracle): the closure reads the *current* scheduler, so
     a crash-recovered shard's fresh scheduler is picked up
     transparently. *)
  Emcall.set_drain_order_probe emcall (fun i ->
      List.map fst (Hypertee_ems.Scheduler.execution_log shards.(i).scheduler));
  let traps = Traps.create emcall in
  let ptws =
    Array.init config.Config.cs_cores (fun _ ->
        Ptw.create (Tlb.create ~entries:Config.cs_core.Config.dtlb_entries) ~bitmap)
  in
  let t =
    {
      config;
      rng;
      mem;
      bitmap;
      mee;
      ihub;
      iommu;
      os;
      keys;
      shards;
      emcall;
      traps;
      ptws;
      engine;
      cost;
      platform_measurement;
      platform_certificate;
      faults = injector;
      chans;
      journals;
      alive;
      route_overrides;
      services;
      (* Seeded from [seed] but NOT split from the master stream:
         session setup, verifiers and CVMs draw from [rng] after
         [create] returns, so recovery/migration must never perturb
         that sequence. *)
      recovery_rng = Hypertee_util.Xrng.create (Int64.add seed 0x7EC0L);
      oracle = None;
    }
  in
  (* EMCall flushes every core's TLB on context switches and bitmap
     updates. *)
  Array.iter (fun ptw -> Emcall.register_tlb_flush_hook emcall (fun () -> Tlb.flush (Ptw.tlb ptw))) ptws;
  t

let config t = t.config
let exec_mode (_ : t) = Hypertee_sim.Exec.Deterministic
let shutdown (_ : t) = ()
let os t = t.os
let mem t = t.mem
let rng t = t.rng
let platform_measurement t = t.platform_measurement
let ek_public t = Keymgmt.ek_public t.keys
let ak_public t = Keymgmt.ak_public t.keys
let invoke t ~caller request = Emcall.invoke t.emcall ~caller request
let invoke_timed t ~caller request = Emcall.invoke_timed t.emcall ~caller request
let invoke_batch t requests = Emcall.invoke_batch t.emcall requests
let batch_overhead_ns t ~batch = Emcall.per_call_overhead_ns t.emcall ~batch
let traps t = t.traps
let ptw t ~core = t.ptws.(core)
let shard_count t = Array.length t.shards

let shard_of_enclave t enclave =
  if enclave <= 0 then 0
  else
    match Hashtbl.find_opt t.route_overrides enclave with
    | Some s -> s
    | None -> (enclave - 1) mod Array.length t.shards

(* Enclave lookups must follow the same affinity the gate routes by. *)
let owning_runtime t enclave = t.shards.(shard_of_enclave t enclave).runtime
let find_enclave t enclave = Runtime.find_enclave (owning_runtime t enclave) enclave

type host_fault =
  | Fault of Ptw.fault
  | Hub_denied of Ihub.denial
  | Integrity_violation

let host_access t ~table ~vpn ~access k =
  let ptw = t.ptws.(0) in
  match Ptw.translate ptw ~table ~vpn ~access with
  | Error f -> Error (Fault f)
  | Ok outcome -> (
    let dir = if access = Ptw.Write then Ihub.Store else Ihub.Load in
    match Ihub.check t.ihub ~initiator:Ihub.Cs_software ~direction:dir ~frame:outcome.Ptw.frame with
    | Error d -> Error (Hub_denied d)
    | Ok () -> k outcome)

let host_read t ~table ~vpn ~off ~len =
  host_access t ~table ~vpn ~access:Ptw.Read (fun outcome ->
      (* Decrypt only the requested range; no intermediate page copy. *)
      match
        Mem_encryption.read_range t.mee t.mem ~key_id:outcome.Ptw.key_id
          ~frame:outcome.Ptw.frame ~off ~len
      with
      | plaintext -> Ok plaintext
      | exception Mem_encryption.Integrity_violation _ -> Error Integrity_violation)

let host_write t ~table ~vpn ~off data =
  host_access t ~table ~vpn ~access:Ptw.Write (fun outcome ->
      (* Read-modify-write through the engine, in place in DRAM. *)
      match
        Mem_encryption.update_range t.mee t.mem ~key_id:outcome.Ptw.key_id
          ~frame:outcome.Ptw.frame ~off ~src:data ~src_off:0 ~len:(Bytes.length data)
      with
      | () -> Ok ()
      | exception Mem_encryption.Integrity_violation _ -> Error Integrity_violation)

let dma_read t ~channel ~frame =
  match Ihub.check t.ihub ~initiator:(Ihub.Dma channel) ~direction:Ihub.Load ~frame with
  | Error d -> Error (Hub_denied d)
  | Ok () -> Ok (Phys_mem.read t.mem ~frame)

let dma_write t ~channel ~frame data =
  match Ihub.check t.ihub ~initiator:(Ihub.Dma channel) ~direction:Ihub.Store ~frame with
  | Error d -> Error (Hub_denied d)
  | Ok () ->
    Phys_mem.write t.mem ~frame data;
    Ok ()

let with_measured_enclave t ~enclave k =
  match find_enclave t enclave with
  | None -> Error "no such enclave"
  | Some e -> (
    match e.Hypertee_ems.Enclave.measurement with
    | None -> Error "enclave not measured"
    | Some m -> k m)

let seal t ~enclave data =
  with_measured_enclave t ~enclave (fun m ->
      Ok (Hypertee_ems.Attest.seal t.keys ~enclave_measurement:m data))

let unseal t ~enclave blob =
  with_measured_enclave t ~enclave (fun m ->
      match Hypertee_ems.Attest.unseal t.keys ~enclave_measurement:m blob with
      | Some data -> Ok data
      | None -> Error "unseal failed: tampered blob or wrong enclave")

(* One call gathers the whole platform's telemetry: the gate, every
   shard's mailbox/scheduler/runtime, the encryption engine and the
   fault injector each publish under their dotted prefix. *)
let publish_metrics t registry =
  Emcall.publish_metrics t.emcall registry;
  Mem_encryption.publish_metrics t.mee registry;
  Array.iteri
    (fun s sh ->
      let prefix name = Printf.sprintf "shard%d.%s." s name in
      Mailbox.publish_metrics sh.mailbox ~prefix:(prefix "mailbox") registry;
      Hypertee_ems.Scheduler.publish_metrics sh.scheduler ~prefix:(prefix "sched") registry;
      Runtime.publish_metrics sh.runtime ~prefix:(prefix "ems") registry)
    t.shards;
  Hypertee_ems.Chan.publish_metrics t.chans registry;
  Option.iter (fun inj -> Fault.publish_metrics inj registry) t.faults

(* Correctness checking (lib/check): sweep every redundant view of
   the platform state against the others, and optionally shadow the
   gate with a differential oracle. *)
let set_admission t ~rate_per_s ~burst = Emcall.set_admission t.emcall ~rate_per_s ~burst
let clear_admission t = Emcall.clear_admission t.emcall
let advance_admission_ns t ns = Emcall.advance_admission_ns t.emcall ns
let shed_count t = Emcall.shed t.emcall

let check ?deep t =
  Hypertee_check.Invariant.check ?deep ?faults:t.faults ~chans:t.chans ~mem:t.mem
    ~bitmap:t.bitmap ~mee:t.mee
    ~runtimes:(Array.map (fun sh -> sh.runtime) t.shards)
    ()

let attach_oracle t =
  let oracle = Hypertee_check.Oracle.create ~shards:(Array.length t.shards) () in
  Emcall.set_tap t.emcall (Hypertee_check.Oracle.tap oracle);
  t.oracle <- Some oracle;
  oracle

let detach_oracle t =
  t.oracle <- None;
  Emcall.clear_tap t.emcall

(* ------------------------------------------------------------------ *)
(* Elasticity and recovery: sealed checkpoint/restore, live cross-
   shard migration, crash-consistent shard recovery.                   *)
(* ------------------------------------------------------------------ *)

module Journal = Hypertee_ems.Journal
module Svc_migrate = Hypertee_ems.Svc_migrate
module Audit = Hypertee_ems.Audit

let shard_alive t s =
  if s < 0 || s >= Array.length t.shards then invalid_arg "Platform.shard_alive";
  t.alive.(s)

let journal t s =
  if s < 0 || s >= Array.length t.shards then invalid_arg "Platform.journal";
  t.journals.(s)

(* The oracle learns about enclaves that (re)appear outside the gate
   (restore, migration commit) through [note_migration]; without it a
   later gate request on the id would be flagged as acting on an
   enclave that was never created. *)
let notify_oracle t ~enclave ~shard =
  Option.iter
    (fun oracle -> Hypertee_check.Oracle.note_migration oracle ~enclave ~shard)
    t.oracle

let checkpoint t ~enclave =
  let s = shard_of_enclave t enclave in
  if not t.alive.(s) then Error (Types.Bad_state "hosting shard is down")
  else Svc_migrate.checkpoint (Runtime.state t.shards.(s).runtime) ~enclave

let restore ?(shard = 0) t blob =
  if shard < 0 || shard >= Array.length t.shards then invalid_arg "Platform.restore";
  if not t.alive.(shard) then Error (Types.Bad_state "shard is down")
  else begin
    let rt = t.shards.(shard).runtime in
    match Svc_migrate.restore (Runtime.state rt) blob with
    | Ok id ->
      Journal.record_restore t.journals.(shard) ~snapshot:blob ~id;
      if (id - 1) mod Array.length t.shards <> shard then
        Hashtbl.replace t.route_overrides id shard;
      notify_oracle t ~enclave:id ~shard;
      Audit.record_fault (Runtime.audit rt) ~site:"restore"
        ~detail:(Printf.sprintf "enclave %d restored from sealed snapshot" id)
        ~recovered:true;
      Ok id
    | Error e ->
      Audit.record_fault (Runtime.audit rt) ~site:"restore"
        ~detail:("restore rejected: " ^ Types.error_message e)
        ~recovered:false;
      Error e
  end

(* --- Live cross-shard migration --- *)

type migration_phase = Quiesced | Checkpointed | Transferred | Restored | Attested | Committed

let migration_phase_name = function
  | Quiesced -> "quiesced"
  | Checkpointed -> "checkpointed"
  | Transferred -> "transferred"
  | Restored -> "restored"
  | Attested -> "attested"
  | Committed -> "committed"

type migration_outcome =
  | Migrated
  | Migration_aborted of string
  | Migration_crashed of { after : migration_phase; owner : [ `Source | `Target ] }

let migrate ?crash_after t ~enclave ~target =
  let n = Array.length t.shards in
  if target < 0 || target >= n then invalid_arg "Platform.migrate: no such shard";
  let source = shard_of_enclave t enclave in
  let src_rt = t.shards.(source).runtime in
  let tgt_rt = t.shards.(target).runtime in
  let audit_both ~detail ~recovered =
    List.iter
      (fun rt -> Audit.record_fault (Runtime.audit rt) ~site:"migration" ~detail ~recovered)
      [ src_rt; tgt_rt ]
  in
  let abort reason =
    audit_both
      ~detail:(Printf.sprintf "migration of enclave %d aborted: %s" enclave reason)
      ~recovered:false;
    Migration_aborted reason
  in
  (* Crash injection between phases: either the scripted [crash_after]
     point (crash-at-every-step tests) or the [Migration_crash] fault
     site. Recovery: until the commit point the source copy is
     authoritative (the route override has not flipped), so any
     half-built target copy is torn down; after commit the target owns
     the enclave and the source copy is already gone. Exactly one of
     the two copies survives every crash point. *)
  let crashes_after phase =
    (match crash_after with Some p -> p = phase | None -> false)
    || match t.faults with Some inj -> Fault.fire inj Fault.Migration_crash | None -> false
  in
  let destroy_target_copy () =
    ignore (Hypertee_ems.Svc_lifecycle.destroy (Runtime.state tgt_rt) ~enclave)
  in
  let crashed ?(target_copy = false) phase =
    if target_copy then destroy_target_copy ();
    let owner = if phase = Committed then `Target else `Source in
    audit_both
      ~detail:
        (Printf.sprintf "migration of enclave %d crashed after %s; %s copy survives" enclave
           (migration_phase_name phase)
           (match owner with `Source -> "source" | `Target -> "target"))
      ~recovered:true;
    Migration_crashed { after = phase; owner }
  in
  if not t.alive.(source) then abort "source shard is down"
  else if not t.alive.(target) then abort "target shard is down"
  else if source = target then abort "enclave already hosted by target shard"
  else begin
    (* Phase 1: quiesce — drain the source shard's doorbell so no
       request on this enclave is in flight inside the EMS. Requests
       arriving at the gate after this point route by the override
       table, which still names the source until commit. *)
    t.services.(source) ();
    if crashes_after Quiesced then crashed Quiesced
    else begin
      (* Phase 2: sealed checkpoint on the source. *)
      match Svc_migrate.checkpoint (Runtime.state src_rt) ~enclave with
      | Error e -> abort ("checkpoint failed: " ^ Types.error_message e)
      | Ok blob ->
        if crashes_after Checkpointed then crashed Checkpointed
        else begin
          (* Phase 3: transfer over the fabric. The snapshot seal
             (HMAC + Merkle root) is the transport integrity check;
             a corrupted copy is detected and retransmitted, bounded
             like the gate's retry budget. *)
          let corrupt copy =
            match t.faults with
            | Some inj when Bytes.length copy > 0 && Fault.fire inj Fault.Snapshot_corrupt ->
              let bit = Fault.draw_int inj Fault.Snapshot_corrupt (8 * Bytes.length copy) in
              let byte = bit / 8 in
              Bytes.set copy byte
                (Char.chr (Char.code (Bytes.get copy byte) lxor (1 lsl (bit mod 8))));
              true
            | _ -> false
          in
          let rec transfer attempt =
            if attempt > 3 then None
            else begin
              let copy = Bytes.copy blob in
              ignore (corrupt copy : bool);
              match Svc_migrate.snapshot_measurement t.keys copy with
              | Some measurement -> Some (copy, measurement)
              | None ->
                audit_both
                  ~detail:
                    (Printf.sprintf
                       "snapshot of enclave %d corrupted in transit (attempt %d), retransmitting"
                       enclave attempt)
                  ~recovered:true;
                transfer (attempt + 1)
            end
          in
          match transfer 1 with
          | None -> abort "snapshot corrupted in transit, retransmit budget exhausted"
          | Some (blob, source_measurement) ->
            if crashes_after Transferred then crashed Transferred
            else begin
              (* Phase 4: restore under the original id on the target
                 — fresh KeyID, memory key re-derived there (the
                 re-key step). *)
              match Svc_migrate.restore (Runtime.state tgt_rt) ~force_id:enclave blob with
              | Error e -> abort ("restore on target failed: " ^ Types.error_message e)
              | Ok _ ->
                if crashes_after Restored then crashed ~target_copy:true Restored
                else begin
                  (* Phase 5: re-attest over a SIGMA channel — the
                     target proves it rebuilt the same measured
                     identity before the source gives the enclave
                     up. *)
                  let module Sigma = Hypertee_crypto.Sigma in
                  let attested =
                    match Runtime.find_enclave tgt_rt enclave with
                    | None -> false
                    | Some e -> (
                      match e.Hypertee_ems.Enclave.measurement with
                      | None -> false
                      | Some m ->
                        let initiator = Sigma.start t.recovery_rng Sigma.Initiator in
                        let responder = Sigma.start t.recovery_rng Sigma.Responder in
                        let _, mac_i =
                          Sigma.derive_keys initiator ~peer_public:(Sigma.public_of responder)
                        in
                        let _, mac_r =
                          Sigma.derive_keys responder ~peer_public:(Sigma.public_of initiator)
                        in
                        let quote =
                          Hypertee_ems.Attest.make_quote t.keys
                            ~platform_measurement:t.platform_measurement
                            ~platform_certificate:t.platform_certificate ~enclave_measurement:m
                            ~user_data:(Bytes.of_string "hypertee-migration-v1")
                        in
                        let transcript =
                          Sigma.transcript
                            ~initiator_pub:(Sigma.public_of initiator)
                            ~responder_pub:(Sigma.public_of responder)
                            ~payload:(Hypertee_ems.Attest.quote_to_bytes quote)
                        in
                        let tag = Sigma.authenticate ~mac_key:mac_r transcript in
                        Sigma.check ~mac_key:mac_i ~transcript ~tag
                        && Hypertee_ems.Attest.verify_quote ~ek:(Keymgmt.ek_public t.keys)
                             ~ak:(Keymgmt.ak_public t.keys) quote
                        && Bytes.equal m source_measurement)
                  in
                  if not attested then begin
                    destroy_target_copy ();
                    abort "re-attestation of restored copy failed"
                  end
                  else if crashes_after Attested then crashed ~target_copy:true Attested
                  else begin
                    (* Phase 6: commit — flip the route atomically,
                       journal the restore on the target, destroy the
                       source copy and journal that destroy on the
                       source (the direct call bypasses the runtime's
                       recorder). *)
                    if (enclave - 1) mod n = target then Hashtbl.remove t.route_overrides enclave
                    else Hashtbl.replace t.route_overrides enclave target;
                    notify_oracle t ~enclave ~shard:target;
                    Journal.record_restore t.journals.(target) ~snapshot:blob ~id:enclave;
                    ignore
                      (Hypertee_ems.Svc_lifecycle.destroy (Runtime.state src_rt) ~enclave
                        : Types.response);
                    Journal.record t.journals.(source) ~sender:None (Types.Destroy { enclave })
                      Types.Ok_unit;
                    audit_both
                      ~detail:
                        (Printf.sprintf "enclave %d migrated: shard %d -> shard %d" enclave source
                           target)
                      ~recovered:true;
                    if crashes_after Committed then crashed Committed else Migrated
                  end
                end
            end
        end
    end
  end

(* --- Crash-consistent shard recovery --- *)

let kill_shard t s =
  if s < 0 || s >= Array.length t.shards then invalid_arg "Platform.kill_shard";
  t.alive.(s) <- false

type recovery_report = { replayed : int; mismatches : int }

let recover_shard t s =
  if s < 0 || s >= Array.length t.shards then invalid_arg "Platform.recover_shard";
  if t.alive.(s) then invalid_arg "Platform.recover_shard: shard is alive";
  let n = Array.length t.shards in
  let effective_shard id =
    match Hashtbl.find_opt t.route_overrides id with Some s -> s | None -> (id - 1) mod n
  in
  (* Hardware scrub. The dead shard's control structures are gone;
     the architectural ground truth — frame owners, the bitmap, the
     MEE key table — says what was its. Every frame it held is
     zeroed, dropped from the bitmap and returned to the free list;
     every KeyID no live structure holds is revoked (keys of dead
     enclaves must not outlive them). *)
  let parked = Hashtbl.create 256 in
  Array.iteri
    (fun i sh ->
      if t.alive.(i) then
        List.iter
          (fun f -> Hashtbl.replace parked f ())
          (Hypertee_ems.Mem_pool.parked_frames (Runtime.pool sh.runtime)))
    t.shards;
  let scrubbed = ref 0 in
  let scrub frame =
    Phys_mem.zero t.mem ~frame;
    if Bitmap.get t.bitmap ~frame then Bitmap.clear t.bitmap ~frame;
    Phys_mem.set_owner t.mem frame Phys_mem.Free;
    incr scrubbed
  in
  for frame = 0 to Phys_mem.frames t.mem - 1 do
    match Phys_mem.owner t.mem frame with
    | Phys_mem.Enclave id | Phys_mem.Page_table id ->
      if effective_shard id = s then scrub frame
    | Phys_mem.Shared shm ->
      (* Shared regions never migrate: residue class is authoritative. *)
      if (shm - 1) mod n = s then scrub frame
    | Phys_mem.Pool ->
      (* Pool frames carry no owner id; a parked frame belonging to no
         live shard's pool was the dead shard's. *)
      if not (Hashtbl.mem parked frame) then scrub frame
    | Phys_mem.Free | Phys_mem.Cs_os | Phys_mem.Ems_private | Phys_mem.Bitmap_region -> ()
  done;
  let held_keys = Hashtbl.create 64 in
  Array.iteri
    (fun i sh ->
      if t.alive.(i) then begin
        List.iter
          (fun id ->
            match Runtime.find_enclave sh.runtime id with
            | Some e -> Hashtbl.replace held_keys e.Hypertee_ems.Enclave.key_id ()
            | None -> ())
          (Runtime.live_enclaves sh.runtime);
        List.iter
          (fun (r : Hypertee_ems.Shm.region) -> Hashtbl.replace held_keys r.Hypertee_ems.Shm.key_id ())
          (Runtime.shm_regions sh.runtime)
      end)
    t.shards;
  for key_id = 1 to Mem_encryption.slots t.mee - 1 do
    if Mem_encryption.is_programmed t.mee ~key_id && not (Hashtbl.mem held_keys key_id) then
      Mem_encryption.revoke t.mee ~key_id
  done;
  (* Cold restart: fresh runtime and scheduler over the surviving
     fabric hardware (mailbox, journal, MEE). RNGs come from the
     recovery stream so pre-crash draw sequences elsewhere stay
     byte-identical. *)
  let sh = t.shards.(s) in
  let runtime =
    Runtime.create ~first_enclave_id:(s + 1) ~first_shm_id:(s + 1) ~id_stride:n ~chans:t.chans
      ~rng:(Hypertee_util.Xrng.split t.recovery_rng)
      ~mem:t.mem ~bitmap:t.bitmap ~mee:t.mee ~keys:t.keys ~cost:t.cost
      ~os_request:(fun ~n -> Os.pool_request t.os ~n)
      ~os_return:(fun ~frames -> Os.pool_return t.os ~frames)
      ~platform_measurement:t.platform_measurement ~platform_certificate:t.platform_certificate ()
  in
  Runtime.set_recorder runtime (fun ~sender request response ->
      Journal.record t.journals.(s) ~sender request response);
  Runtime.set_containment_recorder runtime (fun victim ->
      Journal.record_containment t.journals.(s) ~victim);
  let scheduler =
    Hypertee_ems.Scheduler.create
      ~track:(Hypertee_obs.Trace.track_ems s)
      (Hypertee_util.Xrng.split t.recovery_rng)
      ~workers:t.config.Config.ems_cores
  in
  Option.iter (fun inj -> Hypertee_ems.Scheduler.set_fault_injector scheduler inj) t.faults;
  sh.runtime <- runtime;
  sh.scheduler <- scheduler;
  (* Replay the journal against the fresh runtime. Minted ids are
     pinned to the journaled values first — the original interleaving
     with other shards' id draws is not reproducible, the journal
     is. *)
  let journal = t.journals.(s) in
  Journal.set_replaying journal true;
  let state = Runtime.state runtime in
  let replayed = ref 0 in
  let mismatches = ref 0 in
  List.iter
    (fun entry ->
      incr replayed;
      match entry with
      | Journal.Op { sender; request; response } ->
        (match (request, response) with
        | Types.Create _, Types.Ok_created { enclave } ->
          state.Hypertee_ems.State.next_enclave_id <- enclave
        | Types.Shmget _, Types.Ok_shm { shm } -> state.Hypertee_ems.State.next_shm_id <- shm
        | _ -> ());
        let replay_response = Runtime.handle runtime ~sender request in
        if not (Journal.responses_equivalent response replay_response) then incr mismatches
      | Journal.Restored { snapshot; id } -> (
        match Svc_migrate.restore state ~force_id:id snapshot with
        | Ok _ -> ()
        | Error _ -> incr mismatches))
    (Journal.entries journal);
  Journal.set_replaying journal false;
  (* Channels are ephemeral session state and never journaled
     (docs/PROTOCOL.md §2.3): a channel homed on the dead shard
     cannot be rebuilt, so reap it — wiping its binding secret — and
     force the endpoints to re-establish. The tap never sees this, so
     the differential oracle is told directly. *)
  let dropped_chans = Hypertee_ems.Chan.drop_home t.chans ~home:s in
  Option.iter (fun oracle -> Hypertee_check.Oracle.note_recovery oracle ~shard:s) t.oracle;
  t.alive.(s) <- true;
  Audit.record_fault (Runtime.audit runtime) ~site:"shard-recovery"
    ~detail:
      (Printf.sprintf
         "cold restart: %d frame(s) scrubbed, %d journal entries replayed, %d divergent, %d channel(s) reaped"
         !scrubbed !replayed !mismatches dropped_chans)
    ~recovered:true;
  { replayed = !replayed; mismatches = !mismatches }

module Internals = struct
  let runtime t = t.shards.(0).runtime
  let mem t = t.mem
  let runtimes t = Array.map (fun sh -> sh.runtime) t.shards
  let runtime_of_shard t s = t.shards.(s).runtime
  let emcall t = t.emcall
  let bitmap t = t.bitmap
  let mee t = t.mee
  let ihub t = t.ihub
  let iommu t = t.iommu
  let keys t = t.keys
  let cost t = t.cost
  let engine t = t.engine
  let scheduler t = t.shards.(0).scheduler
  let schedulers t = Array.map (fun sh -> sh.scheduler) t.shards
  let faults t = t.faults
  let journals t = t.journals
  let route_overrides t = t.route_overrides
  let chans t = t.chans
end
