(** Lifecycle service: ECREATE, EADD, EENTER, ERESUME (incl. the
    interrupt save path), EEXIT, EDESTROY, plus the warm-pool pair
    ERETIRE/EWARM. *)

module Phys_mem = Hypertee_arch.Phys_mem
module Mem_encryption = Hypertee_arch.Mem_encryption
module Page_table = Hypertee_arch.Page_table
module Pte = Hypertee_arch.Pte
open State

let name = "lifecycle"
let opcodes = Types.[ ECREATE; EADD; EENTER; ERESUME; EEXIT; EDESTROY; ERETIRE; EWARM ]

let handle_create t (config : Types.enclave_config) =
  let sane =
    config.Types.code_pages > 0 && config.Types.code_pages <= 4096
    && config.Types.data_pages >= 0
    && config.Types.heap_pages >= 0
    && config.Types.stack_pages > 0
    && config.Types.shared_pages >= 0
    && Types.total_static_pages config <= 65536
  in
  if not sane then Types.Err (Types.Invalid_argument_ "enclave configuration out of bounds")
  else begin
    match allocate_key_id t ~except:(-1) with
    | None -> Types.Err Types.Out_of_key_ids
    | Some key_id -> (
      let id = t.next_enclave_id in
      (* Private page table backed by pool frames (enclave memory). *)
      let pt_alloc () =
        match Mem_pool.take t.pool ~n:1 with
        | Some [ f ] -> f
        | Some _ | None -> failwith "out of memory"
      in
      match
        Page_table.create t.mem ~node_owner:(Phys_mem.Page_table id) ~alloc:pt_alloc
      with
      | exception Failure _ ->
        (* Release the reserved KeyID: [allocate_key_id] claimed it. *)
        Mem_encryption.revoke t.mee ~key_id;
        Types.Err Types.Out_of_memory
      | page_table -> (
        let e = Enclave.create ~id ~config ~page_table ~key_id in
        (* The memory key is bound to the (not yet final) identity;
           derive from the enclave id now, rebound at EMEAS time in
           principle — the simulator derives from id only. *)
        let key = Keymgmt.memory_key t.keys ~enclave_measurement:Bytes.empty ~enclave_id:id in
        Mem_encryption.program t.mee ~key_id key;
        (* Any failure from here on must tear the half-built enclave
           down completely: pages back to the pool, ownership records
           dropped, the KeyID released. [untaken] holds frames taken
           from the pool but not yet claimed into the ownership table:
           a page-table node [Failure] mid-mapping used to leave them
           stranded — owner still Pool, absent from the parked list,
           [Mem_pool.outstanding] permanently inflated. *)
        let untaken = ref [] in
        let teardown err =
          let frames = Ownership.frames_of t.ownership id in
          List.iter (fun frame -> Ownership.release t.ownership ~frame) frames;
          Mem_pool.give_back t.pool frames;
          Mem_pool.give_back t.pool !untaken;
          untaken := [];
          Mem_pool.give_back t.pool (Page_table.node_frames page_table);
          Mem_encryption.revoke t.mee ~key_id;
          Types.Err err
        in
        (* Static allocation at creation (Sec. IV-A): map code, data,
           heap, stack pages from the pool. Page-table node allocation
           can also exhaust the pool mid-mapping ([Failure]). *)
        let vpns = Enclave.static_vpns e in
        try
        match take_pool_frames t ~n:(List.length vpns) with
        | Error err -> teardown err
        | Ok frames ->
          untaken := frames;
          let result =
            List.fold_left2
              (fun acc vpn frame ->
                match acc with
                | Error _ -> acc
                | Ok () ->
                  let x = vpn < e.Enclave.layout.Enclave.data_base in
                  (* Popped before the claim: a [Failure] raised inside
                     the map leaves the frame claimed, so it must not
                     also sit in [untaken] (double give-back). *)
                  untaken := List.tl !untaken;
                  (match map_private_page t e ~vpn ~frame ~r:true ~w:(not x) ~x with
                  | Ok () -> Ok ()
                  | Error err ->
                    (* Claim refused: the frame is still unowned. *)
                    untaken := frame :: !untaken;
                    Error err))
              (Ok ()) vpns frames
          in
          (match result with
          | Error err -> teardown err
          | Ok () ->
            (* Staging window: HostApp memory mapped into the enclave
               address space in plaintext (KeyID 0) so the host can
               pass encrypted inputs in and read results out
               (Sec. IV-A). Not enclave memory: no bitmap bit. *)
            let staging = t.os_request ~n:config.Types.shared_pages in
            if List.length staging < config.Types.shared_pages then begin
              t.os_return ~frames:staging;
              teardown Types.Out_of_memory
            end
            else begin
              List.iteri
                (fun i frame ->
                  Page_table.map e.Enclave.page_table
                    ~vpn:(e.Enclave.layout.Enclave.staging_base + i)
                    (Pte.leaf ~ppn:frame ~r:true ~w:true ~x:false ~key_id:0))
                staging;
              e.Enclave.staging_frames <- staging;
              t.next_enclave_id <- id + t.id_stride;
              Hashtbl.replace t.enclaves id e;
              Types.Ok_created { enclave = id }
            end)
        with Failure _ -> teardown Types.Out_of_memory))
  end

(* Reused EADD staging page, zero-padded per call. One per domain,
   like [State.meas_header]: platforms fanned out over domains share
   this module, and with one page per process one platform's EADD
   would measure and encrypt another platform's bytes. *)
let add_page_key : bytes Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Bytes.make Hypertee_util.Units.page_size '\000')

let handle_add t ~sender ~enclave ~vpn ~data ~executable =
  ignore sender;
  let* e = get_enclave t enclave in
  let* () = Enclave.can_add e in
  if Bytes.length data > Hypertee_util.Units.page_size then
    Types.Err (Types.Invalid_argument_ "EADD data exceeds one page")
  else begin
    match Page_table.lookup e.Enclave.page_table ~vpn with
    | None -> Types.Err (Types.Invalid_argument_ "EADD target page not mapped")
    | Some pte ->
      let add_page = Domain.DLS.get add_page_key in
      Bytes.fill add_page 0 Hypertee_util.Units.page_size '\000';
      Bytes.blit data 0 add_page 0 (Bytes.length data);
      (* Store through the memory-encryption engine: DRAM holds
         ciphertext under the enclave's key (encrypted in place, no
         intermediate page copy). *)
      Mem_encryption.write_page t.mee t.mem ~key_id:pte.Pte.key_id ~frame:pte.Pte.ppn add_page;
      measurement_update e ~vpn add_page;
      (* Record the EADD so ERETIRE can replay the measurement over
         the resident pages before parking (warm pool). *)
      e.Enclave.added_pages <- e.Enclave.added_pages @ [ (vpn, executable) ];
      Types.Ok_unit
  end

let handle_enter t ~enclave =
  let* e = get_enclave t enclave in
  let* () = Enclave.can_enter e in
  let* () = if e.Enclave.key_parked then revive_key t e else Ok () in
  e.Enclave.state <- Enclave.Running;
  Types.Ok_entered { enclave }

let handle_resume t ~enclave =
  let* e = get_enclave t enclave in
  let* () = Enclave.can_resume e in
  e.Enclave.state <- Enclave.Running;
  Types.Ok_entered { enclave }

let handle_interrupt t ~enclave ~pc ~cause =
  ignore cause;
  let* e = get_enclave t enclave in
  match e.Enclave.state with
  | Enclave.Running ->
    (* Save the interrupted context into the ECS (EMS-private) and
       park the enclave; EMCall performs the CS register switch. *)
    e.Enclave.saved_pc <- pc;
    e.Enclave.state <- Enclave.Interrupted;
    Types.Ok_unit
  | _ -> Types.Err (Types.Bad_state (Enclave.state_name e.Enclave.state))

let handle_exit t ~sender ~enclave =
  let* e = get_enclave t enclave in
  let* () = check_identity ~sender ~target:enclave ~strict:true in
  let* () = Enclave.can_exit e in
  e.Enclave.state <- Enclave.Measured;
  Types.Ok_unit

let handle_destroy t ~enclave =
  (* Direct lookup, not [get_enclave]: EDESTROY is one of the two
     primitives allowed to reach a Parked (warm-pool) enclave. *)
  let* e =
    match Hashtbl.find_opt t.enclaves enclave with
    | Some e when e.Enclave.state <> Enclave.Destroyed -> Ok e
    | Some _ | None -> Error Types.No_such_enclave
  in
  (* Detach any shared memory first (connections must not leak). *)
  List.iter (fun (shm_id, _) -> detach_shm_frames t e shm_id) e.Enclave.attached_shms;
  e.Enclave.attached_shms <- [];
  (* Reclaim private pages: zero, return to pool. *)
  let private_frames = Ownership.frames_of t.ownership e.Enclave.id in
  List.iter (fun frame -> Ownership.release t.ownership ~frame) private_frames;
  Mem_pool.give_back t.pool private_frames;
  (* Page-table frames are enclave memory too. *)
  let pt_frames = Page_table.node_frames e.Enclave.page_table in
  Mem_pool.give_back t.pool pt_frames;
  (* Staging frames were host memory: hand them back to the OS. *)
  t.os_return ~frames:e.Enclave.staging_frames;
  e.Enclave.staging_frames <- [];
  (* KeyID release requires TLB+cache flush on CS (EMCall does it);
     EMS side revokes the slot — unless it was already parked away. *)
  if not e.Enclave.key_parked then Mem_encryption.revoke t.mee ~key_id:e.Enclave.key_id;
  e.Enclave.state <- Enclave.Destroyed;
  Hashtbl.remove t.enclaves enclave;
  State.clear_adopted t enclave;
  (* A parked enclave leaves the warm pool when destroyed. *)
  State.warm_remove t enclave;
  (* Regions this enclave owned and nobody is attached to can never
     be ESHMDES'd (owner identity required): reclaim them now.
     Regions with live attachments survive and are reaped on the
     last ESHMDT. *)
  ignore (reap_orphaned_shms t);
  (* Secure channels that name this enclave as an endpoint die with
     it, wiping their binding secrets — the "no orphaned channel
     keys" rule the invariant checker enforces. *)
  ignore (Chan.drop_for_enclave t.chans enclave);
  Types.Ok_unit

(* Direct entry point for integrity containment: [Runtime] terminates
   a compromised enclave without a round trip through dispatch. *)
let destroy = handle_destroy

(* --- Warm pool (ERETIRE / EWARM) ---

   ERETIRE parks a Measured, shm-free enclave for reuse: dynamic heap
   growth is released, unmeasured static pages are scrubbed, and the
   measurement is RE-DERIVED from the resident pages by replaying the
   EADD history through the same hash stream EADD fed. Only an exact
   byte match with the recorded measurement parks; anything else
   (modified pages, swapped-out pages, no EADD history, parked key,
   pool full) falls back to a full destroy — so an EWARM create
   provably hands out exactly the image a cold create would measure. *)

let rehash_resident t (e : Enclave.t) =
  let ctx = Hypertee_crypto.Sha256.init () in
  let header = Bytes.create 8 in
  try
    List.iter
      (fun (vpn, _executable) ->
        match Page_table.lookup e.Enclave.page_table ~vpn with
        | None -> raise Exit
        | Some pte ->
          let data =
            Mem_encryption.read_page t.mee t.mem ~key_id:pte.Pte.key_id ~frame:pte.Pte.ppn
          in
          (* Mirror [State.measurement_update]: 8-byte LE vpn header,
             then the full page. *)
          Hypertee_util.Bytes_ext.set_u64_le header 0 (Int64.of_int vpn);
          Hypertee_crypto.Sha256.feed_sub ctx header ~off:0 ~len:8;
          Hypertee_crypto.Sha256.update ctx data)
      e.Enclave.added_pages;
    Some (Hypertee_crypto.Sha256.finalize ctx)
  with Exit -> None

let handle_retire t ~enclave =
  let* e = get_enclave t enclave in
  let* () = Enclave.can_retire e in
  if e.Enclave.attached_shms <> [] then
    Types.Err (Types.Bad_state "shared memory attached: detach before ERETIRE")
  else begin
    (* A session's channels never survive it. *)
    ignore (Chan.drop_for_enclave t.chans enclave);
    (* Release dynamic heap growth beyond the static layout. *)
    let static_heap_top =
      e.Enclave.layout.Enclave.heap_base + e.Enclave.config.Types.heap_pages
    in
    let dynamic = ref [] in
    for vpn = static_heap_top to e.Enclave.heap_cursor - 1 do
      match unmap_private_page t e ~vpn with
      | Ok frame -> dynamic := frame :: !dynamic
      | Error _ -> () (* allocation failed midway; never mapped *)
    done;
    Mem_pool.give_back t.pool !dynamic;
    e.Enclave.heap_cursor <- static_heap_top;
    e.Enclave.shm_cursor <- e.Enclave.layout.Enclave.shm_base;
    e.Enclave.saved_pc <- 0;
    let parkable =
      Hashtbl.length e.Enclave.swapped_out = 0
      && e.Enclave.added_pages <> []
      && (not e.Enclave.key_parked)
      && warm_has_room t
      (* Park only on the measurement's home shard — the one the gate
         routes EWARM to. Parking anywhere else would strand the
         enclave: no lookup ever reaches it, and it would squat in
         the warm list until capacity starves real candidates. *)
      && (match e.Enclave.measurement with
         | Some m -> Types.warm_home ~shards:t.id_stride m = t.shard
         | None -> false)
      &&
      match (rehash_resident t e, e.Enclave.measurement) with
      | Some m, Some recorded -> Bytes.equal m recorded
      | _ -> false
    in
    if parkable then begin
      (* Scrub unmeasured static pages (heap, stack, and any static
         page EADD never wrote) so no tenant data crosses sessions. *)
      let added = List.map fst e.Enclave.added_pages in
      List.iter
        (fun vpn ->
          if not (List.mem vpn added) then
            match Page_table.lookup e.Enclave.page_table ~vpn with
            | Some pte when pte.Pte.key_id = e.Enclave.key_id ->
              store_zero_page t ~key_id:pte.Pte.key_id ~frame:pte.Pte.ppn
            | Some _ | None -> ())
        (Enclave.static_vpns e);
      e.Enclave.state <- Enclave.Parked;
      warm_push t enclave;
      Types.Ok_unit
    end
    else
      (* Not reusable: fall back to a full destroy. The caller sees
         Ok_unit either way — ERETIRE means "this session is over". *)
      handle_destroy t ~enclave
  end

let handle_warm_create t ~measurement =
  if Bytes.length measurement <> Hypertee_crypto.Sha256.digest_size then
    Types.Err (Types.Invalid_argument_ "EWARM measurement must be a SHA-256 digest")
  else
    match warm_pop_matching t ~measurement with
    | None -> Types.Err (Types.Bad_state "no warm enclave with this measurement")
    | Some e ->
      let finish () =
        e.Enclave.state <- Enclave.Measured;
        Types.Ok_created { enclave = e.Enclave.id }
      in
      if e.Enclave.key_parked then (
        match revive_key t e with
        | Error err ->
          (* Leave it parked (and listed) for a later attempt. *)
          warm_push t e.Enclave.id;
          Types.Err err
        | Ok () -> finish ())
      else finish ()

let handle t ~sender (request : Types.request) =
  match request with
  | Types.Create { config } -> handle_create t config
  | Types.Add { enclave; vpn; data; executable } ->
    handle_add t ~sender ~enclave ~vpn ~data ~executable
  | Types.Enter { enclave } -> handle_enter t ~enclave
  | Types.Resume { enclave } -> handle_resume t ~enclave
  | Types.Interrupt { enclave; pc; cause } -> handle_interrupt t ~enclave ~pc ~cause
  | Types.Exit { enclave } -> handle_exit t ~sender ~enclave
  | Types.Destroy { enclave } -> handle_destroy t ~enclave
  | Types.Retire { enclave } -> handle_retire t ~enclave
  | Types.Warm_create { measurement } -> handle_warm_create t ~measurement
  | _ -> Types.Err (Types.Invalid_argument_ "request outside the lifecycle service")

let register registry = Registry.register registry ~service:name ~opcodes handle
