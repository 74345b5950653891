module Phys_mem = Hypertee_arch.Phys_mem
module Mem_encryption = Hypertee_arch.Mem_encryption
module Mem_pool = Hypertee_ems.Mem_pool
module Runtime = Hypertee_ems.Runtime
module Keymgmt = Hypertee_ems.Keymgmt

let page_size = Hypertee_util.Units.page_size

type cvm_id = int
type state = Running | Suspended | Destroyed

type cvm = {
  id : cvm_id;
  vcpus : int;
  mutable frames : int array; (* guest-physical page i lives in frames.(i) *)
  key_id : int;
  measurement : bytes;
  mutable cvm_state : state;
  (* Snapshot protection state, EMS-private (Sec. IX): the key and
     the Merkle root never leave the manager except over an attested
     encrypted channel during migration. *)
  mutable snapshot_key : bytes option;
  mutable snapshot_root : bytes option;
}

type t = {
  platform : Hypertee.Platform.t;
  cvms : (cvm_id, cvm) Hashtbl.t;
  mutable next_id : int;
  mutable tamper_detections : int;
}

let create platform = { platform; cvms = Hashtbl.create 8; next_id = 1; tamper_detections = 0 }
let platform t = t.platform

let runtime t = Hypertee.Platform.Internals.runtime t.platform
let mee t = Hypertee.Platform.Internals.mee t.platform
let mem t = Hypertee.Platform.mem t.platform

let find t id =
  match Hashtbl.find_opt t.cvms id with
  | Some cvm when cvm.cvm_state <> Destroyed -> Ok cvm
  | Some _ | None -> Error "no such CVM"

let state t id =
  match Hashtbl.find_opt t.cvms id with Some c -> Some c.cvm_state | None -> None

let measurement t id =
  match Hashtbl.find_opt t.cvms id with Some c -> Some c.measurement | None -> None

let memory_pages t id =
  match Hashtbl.find_opt t.cvms id with Some c -> Array.length c.frames | None -> 0

let ( let* ) = Result.bind

let store_page t cvm ~page data =
  let frame = cvm.frames.(page) in
  Mem_encryption.write_page (mee t) (mem t) ~key_id:cvm.key_id ~frame data

(* Reused page scratch for bulk image/snapshot streaming, one page
   per domain (consumed before the next call on that domain). *)
let page_scratch_key : bytes Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Bytes.make page_size '\000')

let launch t ~vcpus ~memory_pages ~image =
  if vcpus <= 0 || memory_pages <= 0 then Error "bad CVM dimensions"
  else if Bytes.length image > memory_pages * page_size then Error "image exceeds CVM memory"
  else begin
    let pool = Runtime.pool (runtime t) in
    match Mem_encryption.find_free_slot (mee t) with
    | None -> Error "out of memory-encryption KeyIDs"
    | Some key_id -> (
      match Mem_pool.take pool ~n:memory_pages with
      | None ->
        (* Release the KeyID [find_free_slot] reserved. *)
        Mem_encryption.revoke (mee t) ~key_id;
        Error "out of memory"
      | Some frames ->
        let id = t.next_id in
        let keys = Hypertee.Platform.Internals.keys t.platform in
        let measurement = Hypertee_crypto.Sha256.digest image in
        let key = Keymgmt.memory_key keys ~enclave_measurement:measurement ~enclave_id:(0x10000 + id) in
        Mem_encryption.program (mee t) ~key_id key;
        let frames = Array.of_list frames in
        Array.iter (fun f -> Phys_mem.set_owner (mem t) f (Phys_mem.Enclave (0x10000 + id))) frames;
        let cvm =
          {
            id;
            vcpus;
            frames;
            key_id;
            measurement;
            cvm_state = Running;
            snapshot_key = None;
            snapshot_root = None;
          }
        in
        (* Load the image page by page through the engine. *)
        let pages = (Bytes.length image + page_size - 1) / page_size in
        for p = 0 to Array.length frames - 1 do
          let page_scratch = Domain.DLS.get page_scratch_key in
          Bytes.fill page_scratch 0 page_size '\000';
          if p < pages then begin
            let off = p * page_size in
            Bytes.blit image off page_scratch 0 (Stdlib.min page_size (Bytes.length image - off))
          end;
          store_page t cvm ~page:p page_scratch
        done;
        t.next_id <- id + 1;
        Hashtbl.replace t.cvms id cvm;
        Ok id)
  end

let guest_access t id ~gpa ~len k =
  let* cvm = find t id in
  if gpa < 0 || len < 0 || gpa + len > Array.length cvm.frames * page_size then
    Error "guest-physical access out of range"
  else k cvm

let guest_read t id ~gpa ~len =
  guest_access t id ~gpa ~len (fun cvm ->
      let out = Bytes.create len in
      let cursor = ref gpa and remaining = ref len and dst = ref 0 in
      while !remaining > 0 do
        let page = !cursor / page_size and off = !cursor mod page_size in
        let chunk = Stdlib.min !remaining (page_size - off) in
        (* Decrypt only the requested range of each page. *)
        Mem_encryption.read_range_into (mee t) (mem t) ~key_id:cvm.key_id
          ~frame:cvm.frames.(page) ~off ~len:chunk out ~dst_off:!dst;
        cursor := !cursor + chunk;
        dst := !dst + chunk;
        remaining := !remaining - chunk
      done;
      Ok out)

let guest_write t id ~gpa data =
  guest_access t id ~gpa ~len:(Bytes.length data) (fun cvm ->
      let cursor = ref gpa and src = ref 0 and remaining = ref (Bytes.length data) in
      while !remaining > 0 do
        let page = !cursor / page_size and off = !cursor mod page_size in
        let chunk = Stdlib.min !remaining (page_size - off) in
        Mem_encryption.update_range (mee t) (mem t) ~key_id:cvm.key_id
          ~frame:cvm.frames.(page) ~off ~src:data ~src_off:!src ~len:chunk;
        cursor := !cursor + chunk;
        src := !src + chunk;
        remaining := !remaining - chunk
      done;
      Ok ())

let suspend t id =
  let* cvm = find t id in
  match cvm.cvm_state with
  | Running ->
    cvm.cvm_state <- Suspended;
    Ok ()
  | Suspended -> Error "already suspended"
  | Destroyed -> Error "destroyed"

let resume t id =
  let* cvm = find t id in
  match cvm.cvm_state with
  | Suspended ->
    cvm.cvm_state <- Running;
    Ok ()
  | Running -> Error "already running"
  | Destroyed -> Error "destroyed"

let destroy t id =
  let* cvm = find t id in
  let pool = Runtime.pool (runtime t) in
  Array.iter (fun f -> Phys_mem.zero (mem t) ~frame:f) cvm.frames;
  Mem_pool.give_back pool (Array.to_list cvm.frames);
  Mem_encryption.revoke (mee t) ~key_id:cvm.key_id;
  cvm.cvm_state <- Destroyed;
  cvm.frames <- [||];
  Ok ()

type snapshot = { cvm : cvm_id; encrypted_pages : bytes array; vcpus : int }

let fresh_snapshot_key t =
  (* Derived from the platform SK and a per-snapshot nonce. *)
  let keys = Hypertee.Platform.Internals.keys t.platform in
  let nonce = Hypertee_util.Xrng.bytes (Hypertee.Platform.rng t.platform) 16 in
  Hypertee_crypto.Hmac.hmac
    ~key:(Keymgmt.swap_key keys)
    (Bytes.cat (Bytes.of_string "cvm-snapshot") nonce)
  |> fun h -> Bytes.sub h 0 16

let snapshot t id =
  let* cvm = find t id in
  let key_bytes = fresh_snapshot_key t in
  let key = Hypertee_crypto.Aes.expand key_bytes in
  let n = Array.length cvm.frames in
  let encrypt_page p =
    let page_scratch = Domain.DLS.get page_scratch_key in
    let frame = cvm.frames.(p) in
    (* Decrypt into scratch, re-encrypt under the snapshot key into
       the retained blob: one allocation per page instead of two. *)
    Mem_encryption.load_into (mee t) ~key_id:cvm.key_id ~frame
      ~src:(Phys_mem.borrow_ro (mem t) ~frame)
      ~dst:page_scratch;
    let ct = Bytes.create page_size in
    Hypertee_crypto.Aes.encrypt_page_into key ~page_number:p ~src:page_scratch ~src_off:0
      ~dst:ct ~dst_off:0 page_size;
    ct
  in
  let encrypted_pages = Array.init n encrypt_page in
  (* Integrity root over the *ciphertext* (encrypt-then-MAC shape). *)
  let tree = Hypertee_crypto.Merkle.build (Array.to_list encrypted_pages) in
  cvm.snapshot_key <- Some key_bytes;
  cvm.snapshot_root <- Some (Hypertee_crypto.Merkle.root tree);
  Ok { cvm = id; encrypted_pages; vcpus = cvm.vcpus }

(* Restore with explicit key material (shared by local restore and
   the migration receive path). *)
let restore_with t snap ~key_bytes ~root ~measurement =
  let n = Array.length snap.encrypted_pages in
  if n = 0 then Error "empty snapshot"
  else begin
    (* Verify every page against the root before touching any state. *)
    let tree = Hypertee_crypto.Merkle.build (Array.to_list snap.encrypted_pages) in
    if not (Hypertee_util.Bytes_ext.equal_ct (Hypertee_crypto.Merkle.root tree) root) then begin
      t.tamper_detections <- t.tamper_detections + 1;
      Error "snapshot integrity verification failed"
    end
    else begin
      let key = Hypertee_crypto.Aes.expand key_bytes in
      let pool = Runtime.pool (runtime t) in
      match Mem_encryption.find_free_slot (mee t) with
      | None -> Error "out of memory-encryption KeyIDs"
      | Some key_id -> (
        match Mem_pool.take pool ~n with
        | None ->
          Mem_encryption.revoke (mee t) ~key_id;
          Error "out of memory"
        | Some frames ->
          let id = t.next_id in
          let keys = Hypertee.Platform.Internals.keys t.platform in
          let mem_key =
            Keymgmt.memory_key keys ~enclave_measurement:measurement ~enclave_id:(0x10000 + id)
          in
          Mem_encryption.program (mee t) ~key_id mem_key;
          let frames = Array.of_list frames in
          Array.iter (fun f -> Phys_mem.set_owner (mem t) f (Phys_mem.Enclave (0x10000 + id))) frames;
          let cvm =
            {
              id;
              vcpus = snap.vcpus;
              frames;
              key_id;
              measurement;
              cvm_state = Suspended;
              snapshot_key = Some key_bytes;
              snapshot_root = Some root;
            }
          in
          let page_scratch = Domain.DLS.get page_scratch_key in
          for p = 0 to n - 1 do
            Hypertee_crypto.Aes.decrypt_page_into key ~page_number:p
              ~src:snap.encrypted_pages.(p) ~src_off:0 ~dst:page_scratch ~dst_off:0
              page_size;
            store_page t cvm ~page:p page_scratch
          done;
          t.next_id <- id + 1;
          Hashtbl.replace t.cvms id cvm;
          Ok id)
    end
  end

let restore t snap =
  match Hashtbl.find_opt t.cvms snap.cvm with
  | None -> Error "unknown CVM (snapshot from another platform needs migrate)"
  | Some cvm -> (
    match (cvm.snapshot_key, cvm.snapshot_root) with
    | Some key_bytes, Some root ->
      restore_with t snap ~key_bytes ~root ~measurement:cvm.measurement
    | _ -> Error "no snapshot key material retained for this CVM")

(* Migration (Sec. IX): remote attestation between source and
   destination EMSes establishes an encrypted channel; the snapshot
   key and root hash cross inside it; pages cross as ciphertext. *)
let migrate ~src ~dst ~rng id =
  let* cvm = find src id in
  (* 1. Mutual platform attestation: each side signs its platform
     measurement + DH share with its EK; each verifies the peer. *)
  let src_dh = Hypertee_crypto.Dh.generate rng in
  let dst_dh = Hypertee_crypto.Dh.generate rng in
  let sign t dh =
    let keys = Hypertee.Platform.Internals.keys t.platform in
    let body =
      Bytes.cat
        (Hypertee.Platform.platform_measurement t.platform)
        (Hypertee_crypto.Bignum.to_bytes_be ~len:32 dh.Hypertee_crypto.Dh.public)
    in
    (body, Keymgmt.sign_with_ek keys body)
  in
  let src_body, src_sig = sign src src_dh in
  let dst_body, dst_sig = sign dst dst_dh in
  let verify_peer t body signature =
    Hypertee_crypto.Rsa.verify (Hypertee.Platform.ek_public t.platform) ~msg:body ~signature
  in
  if not (verify_peer dst dst_body dst_sig) then Error "destination attestation failed"
  else if not (verify_peer src src_body src_sig) then Error "source attestation failed"
  else begin
    (* 2. Channel keys from the attested DH shares. *)
    let channel_src =
      Hypertee_crypto.Dh.session_key ~secret:src_dh.Hypertee_crypto.Dh.secret
        ~peer_public:dst_dh.Hypertee_crypto.Dh.public ~context:"cvm-migration"
    in
    let channel_dst =
      Hypertee_crypto.Dh.session_key ~secret:dst_dh.Hypertee_crypto.Dh.secret
        ~peer_public:src_dh.Hypertee_crypto.Dh.public ~context:"cvm-migration"
    in
    if not (Bytes.equal channel_src channel_dst) then Error "channel establishment failed"
    else begin
      (* 3. Snapshot on the source; wrap (key || root) in the channel. *)
      let* snap = snapshot src id in
      let key_bytes = Option.get cvm.snapshot_key in
      let root = Option.get cvm.snapshot_root in
      let chan = Hypertee_crypto.Aes.expand channel_src in
      let nonce = Hypertee_util.Xrng.bytes rng 16 in
      let wrapped = Hypertee_crypto.Aes.ctr chan ~nonce (Bytes.cat key_bytes root) in
      (* --- ciphertext pages + (nonce, wrapped) travel to dst --- *)
      let unwrapped = Hypertee_crypto.Aes.ctr (Hypertee_crypto.Aes.expand channel_dst) ~nonce wrapped in
      let key_rx = Bytes.sub unwrapped 0 16 in
      let root_rx = Bytes.sub unwrapped 16 (Bytes.length unwrapped - 16) in
      (* 4. Verified restore on the destination. *)
      let* new_id = restore_with dst snap ~key_bytes:key_rx ~root:root_rx ~measurement:cvm.measurement in
      (* 5. Tear down the source copy. *)
      let* () = destroy src id in
      Ok new_id
    end
  end

let tamper_detections t = t.tamper_detections
