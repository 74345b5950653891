exception Integrity_violation of { frame : int }

type slot = {
  key : Hypertee_crypto.Aes.key;
  raw : bytes;
}

(* Slot lifecycle. Callers allocate with [find_free_slot] and only
   later [program] the derived key, so without an intermediate state
   two allocations could claim the same KeyID. [find_free_slot]
   atomically reserves; [program] commits; [revoke] releases from
   either state. *)
type entry = Free | Reserved | Programmed of slot

(* Per-line integrity state. [tag] is the 28-bit truncated SHA-3 MAC
   over the line's ciphertext, or [pending_tag] for a line the engine
   zero-stored and nobody has checked since: its MAC is computed the
   first time a check needs it (see [line_tag_locked]). [verified_v]
   is the {!Phys_mem} write version the ciphertext last *passed*
   verification at (or was produced at, for the engine's own stores):
   while the frame version still matches, a read skips the sponge
   entirely — the MAC cache with lazy re-verification. Any DRAM
   mutation (engine write, page scrub, or an attacker writing through
   [Phys_mem.borrow]) bumps the frame version and so invalidates the
   cached verification without the engine having to see the write.
   -1 = never verified.
   [zeroed_v] is the frame write version at which the engine itself
   stored an all-zero page into this line (-1 = not a zero store, or
   the mark was flushed): while the frame version still matches, DRAM
   holds exactly that ciphertext and a repeated zero store is skipped
   (see [write_zero_page]). *)
type line = {
  mutable tag : int;
  mutable verified_v : int;
  mutable zeroed_v : int;
}

(* Tags are 28-bit, so no real tag is negative. *)
let pending_tag = -1

let page_size = Hypertee_util.Units.page_size

type t = {
  table : entry array; (* index = KeyID; 0 is bypass *)
  macs : (int * int, line) Hashtbl.t; (* (key_id, frame) -> MAC line *)
  mac_key : bytes; (* engine-internal MAC key *)
  mac_keyed : Hypertee_crypto.Keccak.keyed; (* post-key sponge snapshot *)
  reference_mac : bool; (* perf baseline: reference sponge, no cache *)
  lock : Mutex.t; (* guards table transitions and macs *)
  mutable faults : Hypertee_faults.Fault.t option;
  (* Hot counters are atomics, not lock-guarded fields, so
     [publish_metrics] can snapshot them without the engine lock. An
     engine serves one platform on one domain; the lock and atomics
     are kept as safety code. *)
  bit_flips : int Atomic.t;
  stores : int Atomic.t;
  loads : int Atomic.t;
  range_loads : int Atomic.t;
  range_updates : int Atomic.t;
  mac_failures : int Atomic.t;
  mac_cache_hits : int Atomic.t;
  zero_store_skips : int Atomic.t;
}

let create ?(reference_mac = false) ~slots () =
  if slots < 2 then invalid_arg "Mem_encryption.create: need at least 2 slots";
  let mac_key = Hypertee_crypto.Sha256.digest_string "hypertee-mee-mac-key" in
  {
    table = Array.make slots Free;
    macs = Hashtbl.create 256;
    mac_key;
    mac_keyed = Hypertee_crypto.Keccak.keyed_init ~key:mac_key;
    reference_mac;
    lock = Mutex.create ();
    faults = None;
    bit_flips = Atomic.make 0;
    stores = Atomic.make 0;
    loads = Atomic.make 0;
    range_loads = Atomic.make 0;
    range_updates = Atomic.make 0;
    mac_failures = Atomic.make 0;
    mac_cache_hits = Atomic.make 0;
    zero_store_skips = Atomic.make 0;
  }

let set_fault_injector t inj = t.faults <- Some inj
let bit_flips t = t.bit_flips |> Atomic.get
let mac_cache_hits t = t.mac_cache_hits |> Atomic.get

let slots t = Array.length t.table

(* The per-line MAC. The keyed snapshot replays the post-key sponge
   state, so the engine absorbs its MAC key exactly once at [create]
   instead of once per line; tags are byte-identical to the plain
   [mac_28bit] (and to the retained reference implementation, which
   the [reference_mac] perf-baseline mode selects). *)
let line_mac t data =
  if t.reference_mac then Hypertee_crypto.Keccak.Reference.mac_28bit ~key:t.mac_key data
  else Hypertee_crypto.Keccak.mac_28bit_keyed t.mac_keyed data

let check_key_id t key_id =
  if key_id <= 0 || key_id >= slots t then
    invalid_arg "Mem_encryption: key_id out of programmable range"

(* Drop MAC state for lines under [key_id]: after revocation or
   reprogramming, stale MACs (and their cached verifications) must
   not satisfy a check. Caller holds [t.lock]. *)
let drop_macs_locked t ~key_id =
  let stale =
    Hashtbl.fold (fun (k, f) _ acc -> if k = key_id then (k, f) :: acc else acc) t.macs []
  in
  List.iter (Hashtbl.remove t.macs) stale

let program t ~key_id key =
  check_key_id t key_id;
  if Bytes.length key <> 16 then invalid_arg "Mem_encryption.program: key must be 16 bytes";
  Mutex.protect t.lock (fun () ->
      (* Reprogramming over a live slot invalidates every line MACed
         under the old key (normal flows revoke first; this is the
         safety net the cache coherence rules rely on). *)
      (match t.table.(key_id) with Programmed _ -> drop_macs_locked t ~key_id | _ -> ());
      t.table.(key_id) <-
        Programmed { key = Hypertee_crypto.Aes.expand key; raw = Bytes.copy key })

let revoke t ~key_id =
  check_key_id t key_id;
  Mutex.protect t.lock (fun () ->
      (match t.table.(key_id) with
      | Programmed slot -> Hypertee_util.Bytes_ext.fill_zero slot.raw
      | Reserved | Free -> ());
      t.table.(key_id) <- Free;
      drop_macs_locked t ~key_id)

let is_programmed t ~key_id =
  key_id > 0 && key_id < slots t
  && match t.table.(key_id) with Programmed _ -> true | Reserved | Free -> false

let slot_exn t key_id =
  check_key_id t key_id;
  match t.table.(key_id) with
  | Programmed s -> s
  | Reserved | Free -> invalid_arg "Mem_encryption: KeyID not programmed"

(* Per-domain tweak scratch: the page nonce depends only on the frame
   number, so one reusable 16-byte buffer per domain serves every
   slot. Per domain, not per process, because platforms fanned out
   over domains share this module. *)
let tweak_scratch : bytes Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Bytes.make 16 '\000')

let tweak_for ~frame =
  let tw = Domain.DLS.get tweak_scratch in
  Hypertee_util.Bytes_ext.set_u64_be tw 8 (Int64.of_int frame);
  tw

(* Record the line MAC over freshly produced ciphertext. [verified_v]
   carries the DRAM write version when the ciphertext lives in a
   tracked frame (the engine just produced those bytes, so they are
   verified by construction) and -1 for detached buffers. [zeroed_v]
   is the line's zero-store mark: the version for the engine's own
   zero-page stores, -1 for every other store. *)
let record_line t ~key_id ~frame ~tag ~verified_v ~zeroed_v =
  Atomic.incr t.stores;
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.macs (key_id, frame) { tag; verified_v; zeroed_v })

let store_into_v ?(defer_mac = false) t ~key_id ~frame ~src ~dst ~verified_v ~zeroed_v =
  let len = Bytes.length src in
  if Bytes.length dst <> len then invalid_arg "Mem_encryption.store_into: length mismatch";
  if key_id = 0 then begin
    if dst != src then Bytes.blit src 0 dst 0 len
  end
  else begin
    let slot = slot_exn t key_id in
    Hypertee_crypto.Aes.ctr_into slot.key ~nonce:(tweak_for ~frame) ~src ~src_off:0 ~dst
      ~dst_off:0 len;
    record_line t ~key_id ~frame
      ~tag:(if defer_mac then pending_tag else line_mac t dst)
      ~verified_v ~zeroed_v
  end

let store_into t ~key_id ~frame ~src ~dst =
  store_into_v t ~key_id ~frame ~src ~dst ~verified_v:(-1) ~zeroed_v:(-1)

let store t ~key_id ~frame data =
  if key_id = 0 then data
  else begin
    let ct = Bytes.create (Bytes.length data) in
    store_into t ~key_id ~frame ~src:data ~dst:ct;
    ct
  end

(* Injected DRAM bit flip: flip one deterministic-random bit of the
   ciphertext as the line arrives from memory. The SHA-3 MAC check
   below must catch it — that is the integrity property under test.
   Never mutates [data] (which may be a borrowed DRAM page); the rare
   fault path pays a copy. Returns whether the flip fired: a struck
   line must be verified even when its frame's cached verification is
   still current, because the corruption is in the arriving copy, not
   in DRAM. *)
let maybe_flip t ~frame data =
  match t.faults with
  | None -> (data, false)
  | Some inj ->
    let module F = Hypertee_faults.Fault in
    if Bytes.length data > 0 && F.fire inj F.Memory_bit_flip then begin
      Atomic.incr t.bit_flips;
      (* Journal the flip against its frame so the deep checker sweep
         can tell injected MAC failures from latent platform bugs. *)
      F.note_flip inj ~frame;
      let bit = F.draw_int inj F.Memory_bit_flip (8 * Bytes.length data) in
      let flipped = Bytes.copy data in
      let byte = bit / 8 in
      Bytes.set flipped byte (Char.chr (Char.code (Bytes.get flipped byte) lxor (1 lsl (bit mod 8))));
      (flipped, true)
    end
    else (data, false)

(* Per-domain keystream scratch for computing pending tags, like
   [tweak_scratch]. *)
let keystream_scratch : bytes Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Bytes.create page_size)

(* The line's tag, computing a pending one on first use. A pending
   line was zero-stored by this engine, and a zero page's ciphertext
   is the CTR keystream of the line's key and frame tweak alone: so
   the tag is regenerated from those, never from the bytes under
   check. The key is still the one the store used, because [revoke]
   and [program] drop a KeyID's lines. Caller holds [t.lock]. *)
let line_tag_locked t ~key_id ~frame ln =
  if ln.tag = pending_tag then begin
    let ks = Domain.DLS.get keystream_scratch in
    Bytes.fill ks 0 page_size '\000';
    Hypertee_crypto.Aes.ctr_into (slot_exn t key_id).key ~nonce:(tweak_for ~frame) ~src:ks
      ~src_off:0 ~dst:ks ~dst_off:0 page_size;
    ln.tag <- line_mac t ks
  end;
  ln.tag

(* Verify the full ciphertext [data] against the stored line MAC and
   raise on mismatch. [mark] is the frame write version to cache on
   success (-1 = don't cache, for flipped copies and untracked
   buffers). The sponge over [data] runs outside the lock; the
   compare, a pending tag's one-time computation and the cache update
   are serialized. *)
let verify_line t ~key_id ~frame ~mark data =
  let mac = line_mac t data in
  let ok =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.macs (key_id, frame) with
        | Some ln when line_tag_locked t ~key_id ~frame ln = mac ->
          if mark >= 0 then ln.verified_v <- mark;
          true
        | Some _ | None ->
          (* [None]: never stored under this key — decrypting
             garbage; a real engine would also MAC-fault on
             uninitialised lines. *)
          Atomic.incr t.mac_failures;
          false)
  in
  if not ok then raise (Integrity_violation { frame })

(* MAC-check the full ciphertext [data] as it arrives from DRAM and
   return the (possibly fault-flipped) buffer to decrypt from. Used
   by the detached-buffer loads, which have no frame version to cache
   against. *)
let checked_ciphertext t ~key_id ~frame data =
  let data, flipped = maybe_flip t ~frame data in
  ignore flipped;
  verify_line t ~key_id ~frame ~mark:(-1) data;
  data

(* The zero-copy variant: [src] is the frame's live DRAM buffer at
   write version [v]. If the line already passed verification at this
   exact version (and no fault struck the arriving copy), the sponge
   is skipped — repeated reads of an unmodified hot frame pay only
   AES. The [reference_mac] baseline engine never skips. *)
let checked_dram t ~key_id ~frame ~v src =
  let data, flipped = maybe_flip t ~frame src in
  let hit =
    (not flipped) && (not t.reference_mac)
    && Mutex.protect t.lock (fun () ->
           match Hashtbl.find_opt t.macs (key_id, frame) with
           | Some ln -> ln.verified_v = v
           | None -> false)
  in
  if hit then Atomic.incr t.mac_cache_hits
  else verify_line t ~key_id ~frame ~mark:(if flipped then -1 else v) data;
  data

let load_into t ~key_id ~frame ~src ~dst =
  let len = Bytes.length src in
  if Bytes.length dst <> len then invalid_arg "Mem_encryption.load_into: length mismatch";
  if key_id = 0 then begin
    if dst != src then Bytes.blit src 0 dst 0 len
  end
  else begin
    Atomic.incr t.loads;
    let data = checked_ciphertext t ~key_id ~frame src in
    let slot = slot_exn t key_id in
    Hypertee_crypto.Aes.ctr_into slot.key ~nonce:(tweak_for ~frame) ~src:data ~src_off:0 ~dst
      ~dst_off:0 len
  end

(* Decrypt only [off, off+len) of the page whose full ciphertext is
   [src]. Integrity is still verified over the whole line — the MAC is
   page-granular — but the keystream is only generated for the
   requested range. *)
let load_range_into t ~key_id ~frame ~src ~off ~len dst ~dst_off =
  if off < 0 || len < 0 || off + len > Bytes.length src then
    invalid_arg "Mem_encryption.load_range_into: bad slice";
  if key_id = 0 then Bytes.blit src off dst dst_off len
  else begin
    Atomic.incr t.range_loads;
    let data = checked_ciphertext t ~key_id ~frame src in
    let slot = slot_exn t key_id in
    Hypertee_crypto.Aes.ctr_into slot.key ~nonce:(tweak_for ~frame) ~stream_off:off ~src:data
      ~src_off:off ~dst ~dst_off len
  end

let load t ~key_id ~frame data =
  if key_id = 0 then data
  else begin
    let pt = Bytes.create (Bytes.length data) in
    load_into t ~key_id ~frame ~src:data ~dst:pt;
    pt
  end

(* --- Zero-copy data plane over physical memory. These helpers pair
   the engine with [Phys_mem.borrow] so page reads and writes
   transform DRAM in place instead of copying pages through both
   layers; the read side additionally rides the verified-MAC cache
   through the frame write version. --- *)

let read_page t mem ~key_id ~frame =
  if key_id = 0 then Phys_mem.read mem ~frame
  else begin
    Atomic.incr t.loads;
    let v = Phys_mem.version mem ~frame in
    let data = checked_dram t ~key_id ~frame ~v (Phys_mem.borrow_ro mem ~frame) in
    let slot = slot_exn t key_id in
    let pt = Bytes.create page_size in
    Hypertee_crypto.Aes.ctr_into slot.key ~nonce:(tweak_for ~frame) ~src:data ~src_off:0
      ~dst:pt ~dst_off:0 page_size;
    pt
  end

let read_range_into t mem ~key_id ~frame ~off ~len dst ~dst_off =
  if key_id = 0 then Phys_mem.read_into mem ~frame ~off ~len dst ~dst_off
  else begin
    if off < 0 || len < 0 || off + len > page_size then
      invalid_arg "Mem_encryption.read_range_into: bad slice";
    Atomic.incr t.range_loads;
    let v = Phys_mem.version mem ~frame in
    let data = checked_dram t ~key_id ~frame ~v (Phys_mem.borrow_ro mem ~frame) in
    let slot = slot_exn t key_id in
    Hypertee_crypto.Aes.ctr_into slot.key ~nonce:(tweak_for ~frame) ~stream_off:off ~src:data
      ~src_off:off ~dst ~dst_off len
  end

let read_range t mem ~key_id ~frame ~off ~len =
  let out = Bytes.create len in
  read_range_into t mem ~key_id ~frame ~off ~len out ~dst_off:0;
  out

let write_page t mem ~key_id ~frame src =
  if Bytes.length src <> page_size then
    invalid_arg "Mem_encryption.write_page: data must be one page";
  let dram = Phys_mem.borrow mem ~frame in
  if key_id = 0 then Bytes.blit src 0 dram 0 page_size
  else
    (* The engine produced both the ciphertext and its MAC, so the
       line is verified by construction at the version the borrow
       just bumped to: the next read skips the sponge. *)
    store_into_v t ~key_id ~frame ~src ~dst:dram ~verified_v:(Phys_mem.version mem ~frame)
      ~zeroed_v:(-1)

(* The zero-page store (page initialisation and scrub). When the
   engine itself zero-stored this line and the frame's write version
   has not moved since, DRAM already holds exactly the ciphertext the
   store would produce and the line already carries its tag, so the
   AES-CTR + MAC store is skipped. The mark rides the same
   write-version invariant as the verified-line cache: any DRAM write
   or [borrow] bumps the version, [revoke]/[program] drop the line,
   [flush_mac_cache] clears the mark, and every other store replaces
   the line unmarked — each forces the next zero store to be real.
   A real zero store writes the ciphertext but leaves the tag pending:
   the line is verified at the store's version, so the engine's own
   reads skip the check, and a check that does run computes the tag
   then ([line_tag_locked]). The [reference_mac] baseline engine
   never skips and MACs eagerly; KeyID 0 keeps no lines, so its zero
   store is always the plain fill. *)
let write_zero_page t mem ~key_id ~frame =
  let v = Phys_mem.version mem ~frame in
  let current =
    (not t.reference_mac)
    && Mutex.protect t.lock (fun () ->
           match Hashtbl.find_opt t.macs (key_id, frame) with
           | Some ln -> ln.zeroed_v = v
           | None -> false)
  in
  if current then Atomic.incr t.zero_store_skips
  else begin
    (* Encrypt in place: zero the DRAM page, then CTR it under the
       line's key — byte-identical to storing a zero buffer. *)
    let dram = Phys_mem.borrow mem ~frame in
    Bytes.fill dram 0 page_size '\000';
    let v = Phys_mem.version mem ~frame in
    store_into_v ~defer_mac:(not t.reference_mac) t ~key_id ~frame ~src:dram ~dst:dram
      ~verified_v:v ~zeroed_v:v
  end

let update_range t mem ~key_id ~frame ~off ~src ~src_off ~len =
  if off < 0 || len < 0 || off + len > page_size then
    invalid_arg "Mem_encryption.update_range: bad slice";
  if key_id = 0 then begin
    let dram = Phys_mem.borrow mem ~frame in
    Bytes.blit src src_off dram off len
  end
  else begin
    (* Read-modify-write without the full-page decrypt/re-encrypt the
       old path paid: verifying the stale line first keeps the
       integrity property (a tampered page still faults even when
       only partially overwritten), and because CTR keystream bytes
       outside [off, off+len) are untouched by the patch, only the
       dirty range's keystream needs regenerating — the new
       ciphertext is byte-identical to decrypt-blit-reencrypt. *)
    Atomic.incr t.range_updates;
    Atomic.incr t.loads;
    let v = Phys_mem.version mem ~frame in
    ignore (checked_dram t ~key_id ~frame ~v (Phys_mem.borrow_ro mem ~frame) : bytes);
    let slot = slot_exn t key_id in
    let dram = Phys_mem.borrow mem ~frame in
    Hypertee_crypto.Aes.ctr_into slot.key ~nonce:(tweak_for ~frame) ~stream_off:off ~src
      ~src_off ~dst:dram ~dst_off:off len;
    record_line t ~key_id ~frame ~tag:(line_mac t dram)
      ~verified_v:(Phys_mem.version mem ~frame) ~zeroed_v:(-1)
  end

(* Invalidate every cached verification and zero-store mark (the MACs
   themselves stay): the deep invariant sweep calls this first so its
   [read_page] pass re-verifies every mapped line instead of trusting
   the cache, and the perf harness uses it to measure the cold path. *)
let flush_mac_cache t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.iter
        (fun _ ln ->
          ln.verified_v <- -1;
          ln.zeroed_v <- -1)
        t.macs)

let find_free_slot t =
  Mutex.protect t.lock (fun () ->
      let rec go i =
        if i >= slots t then None
        else if t.table.(i) = Free then begin
          t.table.(i) <- Reserved;
          Some i
        end
        else go (i + 1)
      in
      go 1)

let extra_ns (lat : Config.mem_latency) ~cs_ghz =
  float_of_int (lat.Config.encryption_extra + lat.Config.integrity_extra) /. cs_ghz

let publish_metrics t registry =
  let module M = Hypertee_obs.Metrics in
  let set name help v = M.set_counter (M.counter registry ~help ("mee." ^ name)) v in
  (* Atomic snapshots: no engine lock taken, so a metrics scrape never
     stalls the data plane. *)
  set "stores" "encrypted page stores" (Atomic.get t.stores);
  set "loads" "decrypted (MAC-checked) page loads" (Atomic.get t.loads);
  set "range_loads" "partial-page decrypts" (Atomic.get t.range_loads);
  set "range_updates" "encrypted read-modify-writes" (Atomic.get t.range_updates);
  set "mac_failures" "integrity-check failures" (Atomic.get t.mac_failures);
  set "mac_cache_hits" "integrity checks skipped by the verified-line cache"
    (Atomic.get t.mac_cache_hits);
  set "zero_store_skips" "redundant zero-page stores skipped"
    (Atomic.get t.zero_store_skips);
  set "bit_flips" "injected DRAM bit flips" (Atomic.get t.bit_flips)
