(** Multi-key memory-encryption engine with integrity (Sec. IV-C).

    Models an MKTME/SME-class engine sitting between the LLC and
    DRAM. EMS (and only EMS, via iHub) programs KeyID -> AES-128 key
    slots; every memory access carries a KeyID in the high bits of
    the physical address, and the engine encrypts/decrypts per-line
    with the selected key tweaked by the address. Integrity is a
    truncated 28-bit SHA-3 MAC per line; a mismatch raises an
    integrity exception (physical-tampering detection).

    Functionally real: [store]/[load] below actually AES-CTR the
    bytes and check real MACs, so the cold-boot and cross-key attack
    tests read genuine ciphertext. KeyID 0 is the bypass slot
    (plaintext, no MAC) used by non-enclave traffic.

    Integrity fast path: the engine MACs with a keyed sponge snapshot
    (key absorbed once at [create]) and keeps a verified-line cache
    keyed by {!Phys_mem.version} — a [read_page] of a frame whose
    ciphertext already passed verification at the current write
    version skips the sponge entirely. Coherence rules: every DRAM
    mutation (engine writes, scrubs, and mutable {!Phys_mem.borrow}
    aliases, i.e. physical tampering) bumps the frame version and so
    forces re-verification; injected bit flips corrupt the arriving
    copy and always bypass the cache; [revoke]/[program] drop the
    key's lines outright.

    Zero-store fast path: {!write_zero_page} skips the store when the
    engine itself zero-stored the line and the frame's write version
    has not moved since. It rides the same invariant: every event
    that invalidates a cached verification, and any other store to
    the line, forces a real store. A real zero store leaves the
    line's MAC pending: a zero page's ciphertext depends only on the
    line's key and frame, so the first check that needs the tag
    regenerates that ciphertext and MACs it. The engine's own reads
    at the store's write version never need it. *)

exception Integrity_violation of { frame : int }

type t

(** [create ~slots ()] an engine with KeyIDs 1..slots-1 programmable.
    [reference_mac] selects the retained reference Keccak for line
    MACs and disables the verified-line cache — the perf harness's
    baseline engine; tags are byte-identical either way. *)
val create : ?reference_mac:bool -> slots:int -> unit -> t

val slots : t -> int

(** [program t ~key_id key] installs a 16-byte key (EMS-only path).
    Raises [Invalid_argument] on KeyID 0 or out of range. *)
val program : t -> key_id:int -> bytes -> unit

(** [revoke t ~key_id] erases the slot (KeyID reuse, Sec. IV-C). *)
val revoke : t -> key_id:int -> unit

val is_programmed : t -> key_id:int -> bool

(** [store t ~key_id ~frame data] -> ciphertext as it would sit in
    DRAM, recording the integrity MAC. [load] reverses and verifies.
    Page-granular for the simulator's convenience. *)
val store : t -> key_id:int -> frame:int -> bytes -> bytes

val load : t -> key_id:int -> frame:int -> bytes -> bytes

(** Allocation-free variants: [store_into] encrypts [src] into [dst]
    (equal lengths; KeyID 0 is a plain copy) and records the MAC over
    [dst]; [load_into] verifies the MAC over [src] and decrypts into
    [dst]. [src] and [dst] may be the same buffer (in-place DRAM
    transform). *)
val store_into : t -> key_id:int -> frame:int -> src:bytes -> dst:bytes -> unit

val load_into : t -> key_id:int -> frame:int -> src:bytes -> dst:bytes -> unit

(** [load_range_into t ~key_id ~frame ~src ~off ~len dst ~dst_off]
    decrypts only [off, off+len) of the full ciphertext page [src]
    into [dst]. The integrity MAC is still verified over the whole
    line; only the keystream for the requested range is generated. *)
val load_range_into :
  t -> key_id:int -> frame:int -> src:bytes -> off:int -> len:int -> bytes -> dst_off:int -> unit

(** {2 Zero-copy data plane over physical memory}

    Pairings with {!Phys_mem.borrow} that encrypt/decrypt DRAM in
    place. KeyID 0 degenerates to plain reads/writes. *)

(** [read_page t mem ~key_id ~frame] decrypts the frame into a fresh
    page (the only allocation on the path). *)
val read_page : t -> Phys_mem.t -> key_id:int -> frame:int -> bytes

(** [read_range_into t mem ~key_id ~frame ~off ~len dst ~dst_off]
    decrypts a sub-range of the frame straight into [dst] without any
    intermediate page copy. *)
val read_range_into :
  t -> Phys_mem.t -> key_id:int -> frame:int -> off:int -> len:int -> bytes -> dst_off:int -> unit

val read_range : t -> Phys_mem.t -> key_id:int -> frame:int -> off:int -> len:int -> bytes

(** [write_page t mem ~key_id ~frame src] encrypts the page [src]
    directly into the frame's DRAM buffer and records the MAC. *)
val write_page : t -> Phys_mem.t -> key_id:int -> frame:int -> bytes -> unit

(** [write_zero_page t mem ~key_id ~frame] stores an all-zero page:
    DRAM ends byte-identical to [write_page] of a zero page, and so
    does the line MAC once a check computes it (the store counts, but
    only encrypts; the MAC waits for the first check that is not a
    cache hit). The store is skipped when this engine zero-stored the
    [(key_id, frame)] line and {!Phys_mem.version} has not moved
    since, because DRAM already holds exactly those bytes. Any DRAM
    write, [borrow], [revoke], [program], other store to the line or
    [flush_mac_cache] forces a real store; a [reference_mac] engine
    never skips and MACs every store at once. *)
val write_zero_page : t -> Phys_mem.t -> key_id:int -> frame:int -> unit

(** [update_range t mem ~key_id ~frame ~off ~src ~src_off ~len]
    read-modify-writes a sub-range of an encrypted frame in place.
    The stale line's integrity is verified first (a tampered page
    faults even when only partially overwritten). *)
val update_range :
  t -> Phys_mem.t -> key_id:int -> frame:int -> off:int -> src:bytes -> src_off:int -> len:int -> unit

(** [raw_ciphertext_view] — what a physical attacker dumping DRAM
    sees — is just the stored bytes; provided for attack tests. *)

(** [find_free_slot t] atomically finds the lowest free KeyID and
    *reserves* it: a concurrent caller cannot be handed the same
    slot. The caller must then either [program] the slot (commit) or
    [revoke] it (release, on any failure path between allocation and
    programming). *)
val find_free_slot : t -> int option

(** Install a fault injector: [load] then flips one
    deterministic-random ciphertext bit whenever the
    [Memory_bit_flip] site fires, which the MAC check must catch. *)
val set_fault_injector : t -> Hypertee_faults.Fault.t -> unit

(** Bit flips injected so far. *)
val bit_flips : t -> int

(** Integrity checks skipped by the verified-line cache so far. *)
val mac_cache_hits : t -> int

(** [flush_mac_cache t] marks every cached line unverified and clears
    every zero-store mark (the MACs themselves are kept). The deep
    invariant sweep calls this before re-reading every mapped page so
    the sweep genuinely re-verifies; the perf harness uses it to
    measure the cold read path. *)
val flush_mac_cache : t -> unit

(** Timing: extra nanoseconds an off-chip access pays for decryption
    + MAC check, at the given DRAM parameters. *)
val extra_ns : Config.mem_latency -> cs_ghz:float -> float

(** Snapshot engine counters (stores, loads, range ops, MAC
    failures, cache hits, skipped zero stores, bit flips) into a
    metrics registry under [mee.*]. Counters are atomics, so the
    snapshot takes no engine lock. *)
val publish_metrics : t -> Hypertee_obs.Metrics.t -> unit
