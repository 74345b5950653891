(** Shared EMS runtime state, passed explicitly to every primitive
    service module.

    This is the record that used to live inside [Runtime]: control
    structures, the enclave memory pool, the page-ownership table,
    shared-memory control structures, root keys, the audit log. The
    service modules ([Svc_lifecycle], [Svc_memory], [Svc_shm],
    [Svc_attest]) receive it explicitly — there is no global.

    The record is exposed (not abstract) because the service modules
    are the implementation of the EMS and manipulate the state
    directly; external consumers go through [Runtime], whose type
    stays abstract. *)

type t = {
  rng : Hypertee_util.Xrng.t;
  mem : Hypertee_arch.Phys_mem.t;
  bitmap : Hypertee_arch.Bitmap.t;
  mee : Hypertee_arch.Mem_encryption.t;
  keys : Keymgmt.t;
  cost : Cost.t;
  pool : Mem_pool.t;
  ownership : Ownership.t;
  shms : Shm.t;
  enclaves : (Types.enclave_id, Enclave.t) Hashtbl.t;
  audit : Audit.t;
  platform_measurement : bytes;
  served : (Types.opcode, int) Hashtbl.t;
  os_request : n:int -> int list;
  os_return : frames:int list -> unit;
  id_stride : int;
      (** Distance between consecutive ids this shard assigns; with N
          shards, shard [s] uses [first_*_id = s+1] and stride [N] so
          id ranges never collide and [(id-1) mod N] recovers the
          shard — the affinity function the EMCall gate routes by. *)
  shard : int;
      (** This runtime's shard index, recovered from
          [first_enclave_id] and [id_stride]; 0 for a single-shard
          platform. Tags the tracer's EMS-side spans. *)
  adopted : (Types.enclave_id, unit) Hashtbl.t;
      (** Ids restored here by migration although their residue class
          belongs to another shard ({!Svc_migrate}); exempt from the
          residue invariant and routed to this shard by a gate
          override the platform maintains. *)
  chans : Chan.t;
      (** Secure-channel fabric, {e shared across every shard} of a
          platform (the cross-shard transport); each shard mints
          channel ids from its own residue class. *)
  mutable next_enclave_id : int;
  mutable next_shm_id : int;
  mutable warm : Types.enclave_id list;
      (** Warm pool: ids of [Parked] enclaves on this shard, oldest
          first (FIFO). Bounded by {!warm_capacity}; every id here
          must be resident and Parked, and every Parked enclave must
          be listed — the invariant checker asserts both. *)
}

(** Warm-pool capacity per shard; ERETIRE beyond it destroys. *)
val warm_capacity : int

(** Build the shared state; the id parameters are those of
    {!Runtime.create} (platform sharding). [chans] is the platform's
    shared channel fabric — every shard of one platform must receive
    the same value (defaults to a fresh fabric sized by
    [id_stride]). *)
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
  unit ->
  t

(** Lookups shared by [Runtime] and the platform layer. *)

(** The key-management service. *)
val keys : t -> Keymgmt.t

(** The enclave memory pool. *)
val pool : t -> Mem_pool.t

(** The page-ownership table. *)
val ownership : t -> Ownership.t

(** Measurement of the EMS firmware itself. *)
val platform_measurement : t -> bytes

(** Enclave control structure by id, if live. *)
val find_enclave : t -> Types.enclave_id -> Enclave.t option

(** Shared-memory region by id, if live. *)
val find_shm : t -> Types.shm_id -> Shm.region option

(** Times the opcode has been recorded via {!count}. *)
val served : t -> Types.opcode -> int

(** Ids of enclaves not yet destroyed. *)
val live_enclaves : t -> Types.enclave_id list

(** The EMS-private audit log. *)
val audit : t -> Audit.t

(** Service-time model for the request (timing layer). *)
val service_ns : t -> Types.request -> float

(** Record one served instance of the opcode. *)
val count : t -> Types.opcode -> unit

(** Does the enclave have an EWB-evicted page at [vpn]? *)
val has_swapped_page : t -> Types.enclave_id -> vpn:int -> bool

(** Migration adoption bookkeeping (see the [adopted] field). *)

val mark_adopted : t -> Types.enclave_id -> unit
val is_adopted : t -> Types.enclave_id -> bool
val clear_adopted : t -> Types.enclave_id -> unit

(** Adopted ids still hosted here, ascending. *)
val adopted_ids : t -> Types.enclave_id list

(** Helpers shared by the service modules. *)

(** Handler idiom: early-return [Err e] on [Error e]. *)
val ( let* ) : ('a, Types.error) result -> ('a -> Types.response) -> Types.response

(** Enclave by id, or [Error No_such_enclave]. Parked (warm-pool)
    enclaves are invisible here: only EWARM and EDESTROY reach them,
    through {!warm_pop_matching} and a direct table lookup. *)
val get_enclave : t -> Types.enclave_id -> (Enclave.t, Types.error) result

(** Sec. III-B identity check: a packet stamped with an enclave id
    must name the enclave it acts on; [strict] additionally rejects
    unstamped (host-software) senders. *)
val check_identity :
  sender:Types.enclave_id option -> target:Types.enclave_id -> strict:bool ->
  (unit, Types.error) result

(** Take [n] free frames from the pool, or [Error Out_of_memory]. *)
val take_pool_frames : t -> n:int -> (int list, Types.error) result

(** Write an encrypted all-zero page into [frame] under [key_id]
    ({!Hypertee_arch.Mem_encryption.write_zero_page}: skipped when
    the line already holds one and DRAM has not been written since). *)
val store_zero_page : t -> key_id:int -> frame:int -> unit

(** Map [vpn] to [frame] in the enclave's table and record
    ownership. *)
val map_private_page :
  t -> Enclave.t -> vpn:int -> frame:int -> r:bool -> w:bool -> x:bool ->
  (unit, Types.error) result

(** Unmap [vpn], returning the freed frame. *)
val unmap_private_page : t -> Enclave.t -> vpn:int -> (int, Types.error) result

(** The enclave's mapped private leaves [(vpn, pte)] — entries under
    its own KeyID (excludes staging and attached shared pages). *)
val private_leaves : Enclave.t -> (int * Hypertee_arch.Pte.t) list

(** KeyID pressure (Sec. IV-C): parking and revival. *)

(** A free MEE KeyID — parking a victim enclave's key when the
    slots are exhausted ([except] is never chosen as victim);
    [None] if no slot can be freed. *)
val allocate_key_id : t -> except:Types.enclave_id -> int option

(** Re-assign a KeyID to an enclave whose key was parked. *)
val revive_key : t -> Enclave.t -> (unit, Types.error) result

(** Extend the enclave's build measurement with page [vpn]'s
    contents. *)
val measurement_update : Enclave.t -> vpn:int -> bytes -> unit

(** Unmap a detached shared region's pages from the enclave. *)
val detach_shm_frames : t -> Enclave.t -> Types.shm_id -> unit

(** Every live shared-memory region (invariant checker sweep). *)
val shm_regions : t -> Shm.region list

(** Frames held by regions whose owner is destroyed and that no one
    is attached to — unreachable through ESHMDES, i.e. leaked. The
    invariant checker asserts this is zero; {!reap_orphaned_shms}
    keeps it so. *)
val leaked_shm_frames : t -> int

(** Reclaim every orphaned region (dead owner, zero attachments):
    release ownership records, zero and return the frames to the
    pool, revoke the region key. Returns the number of regions
    reaped. EDESTROY and ESHMDT run this after their own teardown. *)
val reap_orphaned_shms : t -> int

(** Warm pool (ERETIRE / EWARM). *)

(** Parked ids, oldest first. *)
val warm_ids : t -> Types.enclave_id list

(** Current warm-pool occupancy. *)
val warm_count : t -> int

(** Can another enclave be parked without exceeding capacity? *)
val warm_has_room : t -> bool

(** Append a freshly parked id (caller set the state to Parked). *)
val warm_push : t -> Types.enclave_id -> unit

(** Drop an id from the warm list (EDESTROY of a parked enclave). *)
val warm_remove : t -> Types.enclave_id -> unit

(** Pop the oldest parked enclave whose measurement is byte-equal to
    [measurement]; the caller revives it. [None] on no match. *)
val warm_pop_matching : t -> measurement:bytes -> Enclave.t option
