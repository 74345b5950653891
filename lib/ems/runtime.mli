(** The EMS Runtime: a thin dispatch shell over the primitive
    service registry.

    The EMS-private state — control structures, the enclave memory
    pool, the page-ownership table, shared-memory control
    structures, root keys — lives in [State.t]; the service routine
    behind each Table II primitive lives in one of the per-domain
    service modules ([Svc_lifecycle], [Svc_memory], [Svc_shm],
    [Svc_attest], [Svc_channel]), registered in a [Registry.t] keyed
    by opcode.
    [handle] is what an EMS worker core runs for one request packet:
    count, look the service up, invoke it with the shared state,
    contain integrity faults, record the outcome in the audit log.

    Every handler follows the paper's discipline: sanity-check the
    arguments (Sec. III-B, mechanism 3), check the caller's identity
    against the control structures, perform the state change, then
    flush management data so CS observes a consistent view. *)

type t

(** [create ()] builds a runtime with all five services registered.

    The optional id parameters support platform sharding: shard [s]
    of [n] runs with [first_enclave_id = s+1], [first_shm_id = s+1]
    and [id_stride = n], so each shard assigns ids from a disjoint
    residue class and [(id-1) mod n] recovers the owning shard. The
    defaults (1, 1, 1) are the single-shard behaviour. [chans] is
    the platform-shared secure-channel fabric; every shard of one
    platform must be handed the same value, as must
    [platform_certificate], the boot-time EK signature over
    [platform_measurement] ({!Attest.platform_certificate}). *)
val create :
  ?first_enclave_id:int ->
  ?first_shm_id:int ->
  ?id_stride:int ->
  ?chans:Chan.t ->
  rng:Hypertee_util.Xrng.t ->
  mem:Hypertee_arch.Phys_mem.t ->
  bitmap:Hypertee_arch.Bitmap.t ->
  mee:Hypertee_arch.Mem_encryption.t ->
  keys:Keymgmt.t ->
  cost:Cost.t ->
  os_request:(n:int -> int list) ->
  os_return:(frames:int list -> unit) ->
  platform_measurement:bytes ->
  platform_certificate:bytes ->
  unit ->
  t

(** [handle t ~sender request] runs one primitive. [sender] is the
    enclaveID EMCall stamped on the packet ([None] = host software);
    handlers that act on an enclave's own resources verify it. *)
val handle : t -> sender:Types.enclave_id option -> Types.request -> Types.response

(** Journaling hook ({!Journal}): called once per [handle] with the
    request and the response it produced, after audit recording. The
    platform points this at the shard's operation journal. *)
type recorder = sender:Types.enclave_id option -> Types.request -> Types.response -> unit

val set_recorder : t -> recorder -> unit

(** Called with the victim id when integrity containment terminates
    an enclave mid-request — the journal records it as a synthetic
    destroy, since the faulted request would not re-fault on
    replay. *)
val set_containment_recorder : t -> (Types.enclave_id -> unit) -> unit

(** Service-time model for the request (timing layer). *)
val service_ns : t -> Types.request -> float

(** Lookups used by the platform layer and tests. *)
val find_enclave : t -> Types.enclave_id -> Enclave.t option

(** Shared-memory region by id, if live. *)
val find_shm : t -> Types.shm_id -> Shm.region option

(** The key-management service (root, sealing and attestation keys). *)
val keys : t -> Keymgmt.t

(** The EMS-managed enclave memory pool. *)
val pool : t -> Mem_pool.t

(** The page-ownership table. *)
val ownership : t -> Ownership.t

(** Measurement of the EMS firmware itself, bound into quotes. *)
val platform_measurement : t -> bytes

(** The EMS-private audit log of served/refused primitives. *)
val audit : t -> Audit.t

(** Ids of enclaves not yet destroyed. *)
val live_enclaves : t -> Types.enclave_id list

(** Per-opcode served counters (telemetry / tests). *)
val served : t -> Types.opcode -> int

(** Swap-in support: does the enclave have an EWB-evicted page at
    [vpn]? (EMCall routes such faults to EMS.) *)
val has_swapped_page : t -> Types.enclave_id -> vpn:int -> bool

(** Every live shared-memory region of this shard. *)
val shm_regions : t -> Shm.region list

(** Frames stuck in orphaned shared regions (dead owner, nobody
    attached) — the shm leak gauge; the invariant checker asserts it
    is zero. *)
val leaked_shm_frames : t -> int

(** This runtime's shard index and id stride (residue-class
    identity: live ids satisfy [(id - 1) mod id_stride = shard]). *)
val shard : t -> int

val id_stride : t -> int

(** The full EMS-private state, exposed for the invariant checker
    ({!Hypertee_check.Invariant}), which audits it read-only against
    the architectural ground truth. Production consumers use the
    accessors above. *)
val state : t -> State.t

(** Registry introspection (telemetry / tests). *)
val services : t -> string list

(** Name of the service registered for the opcode, if any. *)
val service_of : t -> Types.opcode -> string option

(** The enclave a request acts on, if any — the integrity-fault
    victim, and the affinity key the platform shards by. *)
val enclave_of_request : Types.request -> Types.enclave_id option

(** Snapshot per-opcode served counters and the live-enclave count
    into a metrics registry, each name prefixed with [prefix] (e.g.
    ["shard0.ems."]). Only opcodes served at least once appear. *)
val publish_metrics : t -> prefix:string -> Hypertee_obs.Metrics.t -> unit
