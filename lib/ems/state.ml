module Phys_mem = Hypertee_arch.Phys_mem
module Bitmap = Hypertee_arch.Bitmap
module Mem_encryption = Hypertee_arch.Mem_encryption
module Page_table = Hypertee_arch.Page_table
module Pte = Hypertee_arch.Pte

type t = {
  rng : Hypertee_util.Xrng.t;
  mem : Phys_mem.t;
  bitmap : Bitmap.t;
  mee : Mem_encryption.t;
  keys : Keymgmt.t;
  cost : Cost.t;
  pool : Mem_pool.t;
  ownership : Ownership.t;
  shms : Shm.t;
  enclaves : (Types.enclave_id, Enclave.t) Hashtbl.t;
  audit : Audit.t;
  platform_measurement : bytes;
  platform_certificate : bytes;
  served : (Types.opcode, int) Hashtbl.t;
  os_request : n:int -> int list;
  os_return : frames:int list -> unit;
  id_stride : int;
  shard : int;
  adopted : (Types.enclave_id, unit) Hashtbl.t;
  chans : Chan.t;
  mutable next_enclave_id : int;
  mutable next_shm_id : int;
  mutable warm : Types.enclave_id list;
}

(* Warm-pool capacity per shard: beyond this, ERETIRE destroys
   instead of parking, so churn cannot pin unbounded memory. *)
let warm_capacity = 8

let create ?(first_enclave_id = 1) ?(first_shm_id = 1) ?(id_stride = 1) ?chans ~rng ~mem ~bitmap
    ~mee ~keys ~cost ~os_request ~os_return ~platform_measurement ~platform_certificate () =
  if id_stride < 1 then invalid_arg "State.create: id_stride must be >= 1";
  let pool_rng = Hypertee_util.Xrng.split rng in
  let pool =
    Mem_pool.create pool_rng ~mem ~bitmap ~os_request ~os_return ~initial_frames:128
  in
  {
    rng;
    mem;
    bitmap;
    mee;
    keys;
    cost;
    pool;
    ownership = Ownership.create ();
    shms = Shm.create ();
    enclaves = Hashtbl.create 16;
    audit = Audit.create ();
    platform_measurement;
    platform_certificate;
    served = Hashtbl.create 16;
    os_request;
    os_return;
    id_stride;
    shard = (first_enclave_id - 1) mod max 1 id_stride;
    adopted = Hashtbl.create 4;
    chans = (match chans with Some c -> c | None -> Chan.create ~shards:(max 1 id_stride));
    next_enclave_id = first_enclave_id;
    next_shm_id = first_shm_id;
    warm = [];
  }

let keys t = t.keys
let pool t = t.pool
let ownership t = t.ownership
let platform_measurement t = t.platform_measurement
let find_enclave t id = Hashtbl.find_opt t.enclaves id
let find_shm t id = Shm.find t.shms id
let served t op = Option.value ~default:0 (Hashtbl.find_opt t.served op)
let live_enclaves t = Hashtbl.fold (fun id _ acc -> id :: acc) t.enclaves [] |> List.sort compare
let audit t = t.audit
let service_ns t request = Cost.service_ns t.cost request

let count t op = Hashtbl.replace t.served op (served t op + 1)

(* --- helpers shared by the service modules --- *)

let ( let* ) r f = match r with Ok v -> f v | Error e -> Types.Err e

(* Parked (warm-pool) enclaves are invisible to every primitive
   except EWARM and EDESTROY, which look them up directly. *)
let get_enclave t id =
  match Hashtbl.find_opt t.enclaves id with
  | Some e -> (
    match e.Enclave.state with
    | Enclave.Destroyed | Enclave.Parked -> Error Types.No_such_enclave
    | _ -> Ok e)
  | None -> Error Types.No_such_enclave

(* Identity check: a user-privilege primitive acting on enclave [id]
   must come from that enclave itself (sender stamped by EMCall) or
   from its host application (sender = None) for the setup
   primitives. [strict] requires the enclave itself. *)
let check_identity ~sender ~target ~strict =
  match sender with
  | Some s when s = target -> Ok ()
  | Some _ -> Error (Types.Permission_denied "request forged for another enclave")
  | None ->
    if strict then Error (Types.Permission_denied "primitive must be issued from the enclave")
    else Ok ()

let take_pool_frames t ~n =
  match Mem_pool.take t.pool ~n with Some fs -> Ok fs | None -> Error Types.Out_of_memory

(* Initialise a freshly mapped page through the encryption engine so
   DRAM holds valid (encrypted-zero) content with a valid MAC; an
   uninitialised line would otherwise MAC-fault on first load. The
   engine skips the store when the line already holds it (a scrub of
   a page nobody wrote since its last zero store). *)
let store_zero_page t ~key_id ~frame = Mem_encryption.write_zero_page t.mee t.mem ~key_id ~frame

let map_private_page t (e : Enclave.t) ~vpn ~frame ~r ~w ~x =
  if not (Ownership.claim_private t.ownership ~frame ~enclave:e.Enclave.id) then
    Error (Types.Invalid_argument_ "frame already owned")
  else begin
    Phys_mem.set_owner t.mem frame (Phys_mem.Enclave e.Enclave.id);
    Page_table.map e.Enclave.page_table ~vpn
      (Pte.leaf ~ppn:frame ~r ~w ~x ~key_id:e.Enclave.key_id);
    store_zero_page t ~key_id:e.Enclave.key_id ~frame;
    Ok ()
  end

let unmap_private_page t (e : Enclave.t) ~vpn =
  match Page_table.lookup e.Enclave.page_table ~vpn with
  | None -> Error (Types.Invalid_argument_ "page not mapped")
  | Some pte ->
    let frame = pte.Pte.ppn in
    Page_table.unmap e.Enclave.page_table ~vpn;
    Ownership.release t.ownership ~frame;
    Phys_mem.zero t.mem ~frame;
    Ok frame

(* --- KeyID pressure (Sec. IV-C) ---

   "In case of KeyID exhaustion, EMS can suspend an enclave to
   release a KeyID." Parking a victim's key re-encrypts its private
   pages in place under the EMS swap key and revokes the slot;
   revival (at the next EENTER) assigns a fresh KeyID and restores
   the pages. EMCall's context-switch flush covers the TLB/cache
   coherence the paper requires. *)

let private_leaves (e : Enclave.t) =
  List.filter
    (fun (_, pte) -> pte.Pte.key_id = e.Enclave.key_id)
    (Page_table.entries e.Enclave.page_table)

let park_key t (e : Enclave.t) =
  let swap_key = Hypertee_crypto.Aes.expand (Keymgmt.swap_key t.keys) in
  List.iter
    (fun (vpn, pte) ->
      let frame = pte.Pte.ppn in
      (* Decrypt under the enclave key, re-encrypt under the swap key
         straight back into the same DRAM buffer. *)
      let pt = Mem_encryption.read_page t.mee t.mem ~key_id:pte.Pte.key_id ~frame in
      Hypertee_crypto.Aes.encrypt_page_into swap_key ~page_number:vpn ~src:pt ~src_off:0
        ~dst:(Phys_mem.borrow t.mem ~frame) ~dst_off:0
        (Bytes.length pt))
    (private_leaves e);
  Mem_encryption.revoke t.mee ~key_id:e.Enclave.key_id;
  e.Enclave.key_parked <- true

(* A parkable victim: measured or warm-parked, idle, key not already
   parked. Warm-pool residents are ideal victims — nobody is about to
   run them. *)
let find_parkable t ~except =
  Hashtbl.fold
    (fun id (e : Enclave.t) acc ->
      match acc with
      | Some _ -> acc
      | None ->
        if
          id <> except
          && (match e.Enclave.state with
             | Enclave.Measured | Enclave.Parked -> true
             | _ -> false)
          && not e.Enclave.key_parked
        then Some e
        else None)
    t.enclaves None

(* Allocate a KeyID, parking an idle enclave's key if the engine is
   full. [except] is the enclave the allocation serves. *)
let allocate_key_id t ~except =
  match Mem_encryption.find_free_slot t.mee with
  | Some key_id -> Some key_id
  | None -> (
    match find_parkable t ~except with
    | Some victim ->
      park_key t victim;
      Mem_encryption.find_free_slot t.mee
    | None -> None)

let revive_key t (e : Enclave.t) =
  match allocate_key_id t ~except:e.Enclave.id with
  | None -> Error Types.Out_of_key_ids
  | Some key_id ->
    let measurement = Option.value ~default:Bytes.empty e.Enclave.measurement in
    let key = Keymgmt.memory_key t.keys ~enclave_measurement:measurement ~enclave_id:e.Enclave.id in
    Mem_encryption.program t.mee ~key_id key;
    let swap_key = Hypertee_crypto.Aes.expand (Keymgmt.swap_key t.keys) in
    (* The parked leaves still carry the old KeyID in their PTEs. *)
    let old_key = e.Enclave.key_id in
    List.iter
      (fun (vpn, pte) ->
        if pte.Pte.key_id = old_key then begin
          let frame = pte.Pte.ppn in
          let pt =
            Hypertee_crypto.Aes.decrypt_page swap_key ~page_number:vpn
              (Phys_mem.borrow_ro t.mem ~frame)
          in
          Mem_encryption.write_page t.mee t.mem ~key_id ~frame pt;
          Page_table.map e.Enclave.page_table ~vpn { pte with Pte.key_id }
        end)
      (Page_table.entries e.Enclave.page_table);
    e.Enclave.key_id <- key_id;
    e.Enclave.key_parked <- false;
    Ok ()

(* Reused 8-byte header scratch for the measurement stream, one per
   domain so platforms measuring on different domains never share
   it. *)
let meas_header : bytes Domain.DLS.key = Domain.DLS.new_key (fun () -> Bytes.create 8)

let measurement_update (e : Enclave.t) ~vpn data =
  match e.Enclave.measurement_ctx with
  | Some ctx ->
    let meas_header = Domain.DLS.get meas_header in
    Hypertee_util.Bytes_ext.set_u64_le meas_header 0 (Int64.of_int vpn);
    Hypertee_crypto.Sha256.feed_sub ctx meas_header ~off:0 ~len:8;
    Hypertee_crypto.Sha256.update ctx data
  | None -> ()

let detach_shm_frames t (e : Enclave.t) shm_id =
  match Shm.find t.shms shm_id with
  | None -> ()
  | Some region ->
    List.iter
      (fun frame -> ignore (Ownership.detach t.ownership ~frame ~enclave:e.Enclave.id))
      region.Shm.frames;
    ignore (Shm.detach t.shms ~shm:shm_id ~enclave:e.Enclave.id)

(* --- Shared-region reclamation (the ESHMDES no one can issue) ---

   ESHMDES requires the region's owner identity, so a region whose
   owner enclave is destroyed while others remain attached — or that
   nobody ever attached — would stay registered forever: its frames
   sit in the ownership table as zero-attached [Shared_page]s,
   permanently blocking [can_map_private]. The EMS reaps such
   orphaned regions itself, acting as the dead owner, as soon as the
   last attachment is gone (EDESTROY and ESHMDT call this). *)

let shm_regions t = Shm.regions t.shms

let orphaned_shm_regions t =
  List.filter
    (fun (r : Shm.region) ->
      (not (Hashtbl.mem t.enclaves r.Shm.owner)) && Shm.active_connections r = 0)
    (shm_regions t)

(* Frames currently stuck in orphaned regions — the leak gauge the
   invariant checker asserts to be zero after every primitive. *)
let leaked_shm_frames t =
  List.fold_left
    (fun acc (r : Shm.region) -> acc + List.length r.Shm.frames)
    0 (orphaned_shm_regions t)

let reap_orphaned_shms t =
  List.fold_left
    (fun reaped (r : Shm.region) ->
      match Shm.destroy t.shms ~shm:r.Shm.shm ~caller:r.Shm.owner with
      | Error _ -> reaped
      | Ok region ->
        List.iter
          (fun frame ->
            Ownership.release t.ownership ~frame;
            Phys_mem.zero t.mem ~frame)
          region.Shm.frames;
        Mem_pool.give_back t.pool region.Shm.frames;
        Mem_encryption.revoke t.mee ~key_id:region.Shm.key_id;
        reaped + 1)
    0 (orphaned_shm_regions t)

(* --- Migration adoption (Svc_migrate) ---

   An enclave restored on a shard outside its id's residue class is
   "adopted": the gate routes its id here through an override table,
   and the invariant checker exempts it from the residue rule. *)

let mark_adopted t id = Hashtbl.replace t.adopted id ()
let is_adopted t id = Hashtbl.mem t.adopted id
let clear_adopted t id = Hashtbl.remove t.adopted id
let adopted_ids t = Hashtbl.fold (fun id () acc -> id :: acc) t.adopted [] |> List.sort compare

(* --- Warm pool (ERETIRE / EWARM) ---

   A per-shard FIFO of parked enclave ids. Parked enclaves stay in
   [t.enclaves] with their pages, KeyID and measurement intact; the
   list only orders eviction and lookup. *)

let warm_ids t = t.warm
let warm_count t = List.length t.warm
let warm_has_room t = List.length t.warm < warm_capacity
let warm_push t id = t.warm <- t.warm @ [ id ]
let warm_remove t id = t.warm <- List.filter (fun i -> i <> id) t.warm

(* First (oldest) parked enclave whose measurement matches, FIFO. *)
let warm_pop_matching t ~measurement =
  let rec go = function
    | [] -> None
    | id :: rest -> (
      match Hashtbl.find_opt t.enclaves id with
      | Some e
        when e.Enclave.state = Enclave.Parked
             && Bytes.equal (Enclave.measurement_exn e) measurement ->
        warm_remove t id;
        Some e
      | _ -> go rest)
  in
  go t.warm

let has_swapped_page t enclave ~vpn =
  match Hashtbl.find_opt t.enclaves enclave with
  | Some e -> Hashtbl.mem e.Enclave.swapped_out vpn
  | None -> false
