(* Tests for hypertee_ems: primitive types, key management, the
   memory pool, the ownership table, enclave state machine, shm
   control structures, attestation/sealing, the cost model and the
   runtime's primitive handlers. *)

open Hypertee_ems
module Phys_mem = Hypertee_arch.Phys_mem
module Bitmap = Hypertee_arch.Bitmap
module Page_table = Hypertee_arch.Page_table
module Pte = Hypertee_arch.Pte
module Mem_encryption = Hypertee_arch.Mem_encryption
module Config = Hypertee_arch.Config

let check = Alcotest.check
let prop = QCheck_alcotest.to_alcotest ~speed_level:`Quick
let rng () = Hypertee_util.Xrng.create 0xE45L

(* --- Types --- *)

let test_privileges_match_table2 () =
  (* Table II's Priv column; the warm-pool pair is enclave management
     proper, OS-only like ECREATE/EDESTROY. *)
  let os =
    [ Types.ECREATE; Types.EADD; Types.EENTER; Types.ERESUME; Types.EDESTROY; Types.EWB;
      Types.EMEAS; Types.ERETIRE; Types.EWARM ]
  in
  let user =
    [ Types.EEXIT; Types.EALLOC; Types.EFREE; Types.ESHMGET; Types.ESHMAT; Types.ESHMDT;
      Types.ESHMSHR; Types.ESHMDES; Types.EATTEST ]
  in
  List.iter (fun op -> check Alcotest.bool (Types.opcode_name op) true (Types.required_privilege op = Types.Os)) os;
  List.iter (fun op -> check Alcotest.bool (Types.opcode_name op) true (Types.required_privilege op = Types.User)) user;
  (* Table II's sixteen plus the five channel primitives (ECHOPEN,
     ECHACC, ECHSEND, ECHRECV, ECHCLOSE — docs/PROTOCOL.md §2). *)
  let chan = [ Types.ECHOPEN; Types.ECHACC; Types.ECHSEND; Types.ECHRECV; Types.ECHCLOSE ] in
  List.iter
    (fun op ->
      check Alcotest.bool (Types.opcode_name op) true (Types.required_privilege op = Types.User))
    chan;
  check Alcotest.int "sixteen + five channel + two warm-pool primitives" 23
    (List.length Types.all_opcodes)

let test_opcode_of_request () =
  check Alcotest.bool "create" true
    (Types.opcode_of_request (Types.Create { config = Types.default_config }) = Types.ECREATE);
  check Alcotest.bool "page fault -> alloc path" true
    (Types.opcode_of_request (Types.Page_fault { enclave = 1; vpn = 2 }) = Types.EALLOC)

(* --- Keymgmt --- *)

let test_key_derivations_deterministic () =
  let k1 = Keymgmt.provision (Hypertee_util.Xrng.create 5L) in
  let k2 = Keymgmt.provision (Hypertee_util.Xrng.create 5L) in
  let m = Bytes.make 32 'm' in
  check Alcotest.bytes "same seed, same memory key"
    (Keymgmt.memory_key k1 ~enclave_measurement:m ~enclave_id:1)
    (Keymgmt.memory_key k2 ~enclave_measurement:m ~enclave_id:1)

let test_key_derivations_distinct () =
  let k = Keymgmt.provision (rng ()) in
  let m = Bytes.make 32 'm' in
  let keys =
    [
      Keymgmt.memory_key k ~enclave_measurement:m ~enclave_id:1;
      Keymgmt.memory_key k ~enclave_measurement:m ~enclave_id:2;
      Keymgmt.shm_key k ~owner:1 ~shm_id:1;
      Keymgmt.shm_key k ~owner:1 ~shm_id:2;
      Keymgmt.shm_key k ~owner:2 ~shm_id:1;
      Keymgmt.report_key k ~challenger_measurement:m;
      Keymgmt.sealing_key k ~enclave_measurement:m;
      Keymgmt.swap_key k;
    ]
  in
  check Alcotest.int "all derivations distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_key_erase_changes_derivations () =
  let k = Keymgmt.provision (rng ()) in
  let before = Keymgmt.swap_key k in
  (* A different RNG seed: erasing with the very stream that
     provisioned the key would regenerate the same SK. *)
  Keymgmt.erase k (Hypertee_util.Xrng.create 0xDEADL);
  check Alcotest.bool "derivation changed" false (Bytes.equal before (Keymgmt.swap_key k))

let test_ek_ak_sign () =
  let k = Keymgmt.provision (rng ()) in
  let msg = Bytes.of_string "platform state" in
  check Alcotest.bool "EK signature verifies" true
    (Hypertee_crypto.Rsa.verify (Keymgmt.ek_public k) ~msg ~signature:(Keymgmt.sign_with_ek k msg));
  check Alcotest.bool "AK differs from EK" false
    (Hypertee_crypto.Rsa.verify (Keymgmt.ek_public k) ~msg ~signature:(Keymgmt.sign_with_ak k msg))

(* --- Mem_pool --- *)

type pool_fixture = {
  mem : Phys_mem.t;
  pool : Mem_pool.t;
  requests : int ref;
  os_free : int list ref;
}

let pool_fixture ?(frames = 1024) () =
  let mem = Phys_mem.create ~frames in
  let bitmap = Bitmap.create mem in
  let requests = ref 0 in
  let os_free = ref [] in
  let os_request ~n =
    incr requests;
    match Phys_mem.find_free mem ~n with
    | Some fs ->
      List.iter (fun f -> Phys_mem.set_owner mem f Phys_mem.Cs_os) fs;
      fs
    | None -> []
  in
  let os_return ~frames = os_free := frames @ !os_free in
  let pool =
    Mem_pool.create (rng ()) ~mem ~bitmap ~os_request ~os_return ~initial_frames:64
  in
  { mem; pool; requests; os_free }

let test_pool_take_give_back () =
  let f = pool_fixture () in
  let before = Mem_pool.available f.pool in
  match Mem_pool.take f.pool ~n:8 with
  | None -> Alcotest.fail "take failed"
  | Some frames ->
    check Alcotest.int "eight frames" 8 (List.length frames);
    List.iter
      (fun fr ->
        check Alcotest.bool "still marked pool owner until mapped" true
          (Phys_mem.owner f.mem fr = Phys_mem.Pool))
      frames;
    Mem_pool.give_back f.pool frames;
    check Alcotest.bool "conserved (refills may add)" true (Mem_pool.available f.pool >= before)

let test_pool_hides_allocations () =
  let f = pool_fixture () in
  let before = !(f.requests) in
  (* Many small takes within pool capacity: no OS interaction beyond
     possibly one threshold refill. *)
  for _ = 1 to 10 do
    match Mem_pool.take f.pool ~n:2 with
    | Some frames -> Mem_pool.give_back f.pool frames
    | None -> Alcotest.fail "take failed"
  done;
  check Alcotest.bool "OS observes almost nothing" true (!(f.requests) - before <= 1)

let test_pool_refills_on_demand () =
  let f = pool_fixture () in
  let want = Mem_pool.available f.pool + 32 in
  match Mem_pool.take f.pool ~n:want with
  | Some frames ->
    check Alcotest.int "got everything" want (List.length frames);
    check Alcotest.bool "OS was asked" true (!(f.requests) > 1)
  | None -> Alcotest.fail "refill should cover"

let test_pool_threshold_randomized () =
  let f = pool_fixture () in
  let seen = ref [] in
  for _ = 1 to 12 do
    (* Draining below the low-water mark re-randomizes the threshold. *)
    (match Mem_pool.take f.pool ~n:(Stdlib.max 1 (Mem_pool.available f.pool - 2)) with
    | Some frames -> Mem_pool.give_back f.pool frames
    | None -> ());
    seen := Mem_pool.current_threshold f.pool :: !seen
  done;
  check Alcotest.bool "threshold varies" true (List.length (List.sort_uniq compare !seen) > 1)

let test_pool_zeroes_on_park () =
  let f = pool_fixture () in
  match Mem_pool.take f.pool ~n:1 with
  | Some [ frame ] ->
    Phys_mem.write f.mem ~frame (Bytes.make 4096 'S');
    Mem_pool.give_back f.pool [ frame ];
    check Alcotest.bytes "scrubbed" (Bytes.make 4096 '\000') (Phys_mem.read f.mem ~frame)
  | _ -> Alcotest.fail "take failed"

let test_pool_surrender () =
  let f = pool_fixture () in
  let n = Mem_pool.available f.pool in
  let released = Mem_pool.surrender f.pool ~n:4 in
  check Alcotest.int "four released" 4 (List.length released);
  check Alcotest.int "pool shrank" (n - 4) (Mem_pool.available f.pool);
  check Alcotest.int "returned to OS" 4 (List.length !(f.os_free));
  List.iter
    (fun fr -> check Alcotest.bool "frame freed" true (Phys_mem.owner f.mem fr = Phys_mem.Free))
    released

let test_pool_exhaustion () =
  let f = pool_fixture ~frames:96 () in
  (* The bitmap region plus the initial pool leaves little; a huge
     request must fail cleanly. *)
  check Alcotest.bool "exhaustion reported" true (Mem_pool.take f.pool ~n:10_000 = None)

(* --- Ownership --- *)

let test_ownership_exclusive () =
  let o = Ownership.create () in
  check Alcotest.bool "claim" true (Ownership.claim_private o ~frame:1 ~enclave:10);
  check Alcotest.bool "double claim rejected" false (Ownership.claim_private o ~frame:1 ~enclave:11);
  check Alcotest.bool "shared claim on owned rejected" false (Ownership.claim_shared o ~frame:1 ~shm:5);
  check Alcotest.bool "can_map false" false (Ownership.can_map_private o ~frame:1);
  Ownership.release o ~frame:1;
  check Alcotest.bool "claim after release" true (Ownership.claim_private o ~frame:1 ~enclave:11)

let test_ownership_shared_attach () =
  let o = Ownership.create () in
  ignore (Ownership.claim_shared o ~frame:2 ~shm:7);
  check Alcotest.bool "attach" true (Ownership.attach o ~frame:2 ~enclave:1);
  check Alcotest.bool "attach again rejected" false (Ownership.attach o ~frame:2 ~enclave:1);
  check Alcotest.bool "second enclave ok" true (Ownership.attach o ~frame:2 ~enclave:2);
  (match Ownership.lookup o ~frame:2 with
  | Some (Ownership.Shared_page { attached; _ }) ->
    check Alcotest.int "two attached" 2 (List.length attached)
  | _ -> Alcotest.fail "wrong record");
  check (Alcotest.option Alcotest.int) "detach reports one left" (Some 1)
    (Ownership.detach o ~frame:2 ~enclave:1);
  (match Ownership.lookup o ~frame:2 with
  | Some (Ownership.Shared_page { attached; _ }) ->
    check (Alcotest.list Alcotest.int) "one left" [ 2 ] attached
  | _ -> Alcotest.fail "wrong record");
  check (Alcotest.option Alcotest.int) "last detach reports zero" (Some 0)
    (Ownership.detach o ~frame:2 ~enclave:2);
  check (Alcotest.list Alcotest.int) "zero-attached frame visible to the leak gauge" [ 2 ]
    (Ownership.shared_zero_attached o)

let test_ownership_attach_private_rejected () =
  let o = Ownership.create () in
  ignore (Ownership.claim_private o ~frame:3 ~enclave:1);
  check Alcotest.bool "attach to private rejected" false (Ownership.attach o ~frame:3 ~enclave:2)

let test_ownership_frames_of () =
  let o = Ownership.create () in
  ignore (Ownership.claim_private o ~frame:5 ~enclave:1);
  ignore (Ownership.claim_private o ~frame:3 ~enclave:1);
  ignore (Ownership.claim_private o ~frame:4 ~enclave:2);
  check (Alcotest.list Alcotest.int) "sorted frames of enclave 1" [ 3; 5 ] (Ownership.frames_of o 1)

let prop_ownership_no_double_owner =
  prop
    (QCheck.Test.make ~name:"a frame never has two private owners" ~count:100
       QCheck.(list (pair (int_bound 50) (int_bound 5)))
       (fun claims ->
         let o = Ownership.create () in
         let model = Hashtbl.create 16 in
         List.for_all
           (fun (frame, enclave) ->
             let ok = Ownership.claim_private o ~frame ~enclave in
             if Hashtbl.mem model frame then not ok
             else begin
               Hashtbl.replace model frame enclave;
               ok
             end)
           claims))

(* --- Enclave state machine --- *)

let fresh_ecs () =
  let mem = Phys_mem.create ~frames:128 in
  let pt = Page_table.create mem ~node_owner:Phys_mem.Cs_os ~alloc:(Page_table.default_alloc mem) in
  Enclave.create ~id:1 ~config:Types.default_config ~page_table:pt ~key_id:1

let test_enclave_lifecycle_states () =
  let e = fresh_ecs () in
  check Alcotest.bool "can add while loading" true (Enclave.can_add e = Ok ());
  check Alcotest.bool "cannot enter unmeasured" true (Result.is_error (Enclave.can_enter e));
  e.Enclave.state <- Enclave.Measured;
  check Alcotest.bool "can enter measured" true (Enclave.can_enter e = Ok ());
  check Alcotest.bool "cannot add after measure" true (Result.is_error (Enclave.can_add e));
  e.Enclave.state <- Enclave.Running;
  check Alcotest.bool "can exit running" true (Enclave.can_exit e = Ok ());
  check Alcotest.bool "cannot resume running" true (Result.is_error (Enclave.can_resume e));
  e.Enclave.state <- Enclave.Interrupted;
  check Alcotest.bool "can resume interrupted" true (Enclave.can_resume e = Ok ())

let test_enclave_layout_disjoint () =
  let e = fresh_ecs () in
  let l = e.Enclave.layout in
  check Alcotest.bool "ordered regions" true
    (l.Enclave.code_base < l.Enclave.data_base
    && l.Enclave.data_base < l.Enclave.heap_base
    && l.Enclave.heap_base < l.Enclave.stack_base
    && l.Enclave.stack_base < l.Enclave.staging_base
    && l.Enclave.staging_base < l.Enclave.shm_base);
  let vpns = Enclave.static_vpns e in
  check Alcotest.int "no duplicates" (List.length vpns) (List.length (List.sort_uniq compare vpns));
  check Alcotest.int "covers config" (Types.total_static_pages Types.default_config)
    (List.length vpns)

let test_enclave_measurement_exn () =
  let e = fresh_ecs () in
  Alcotest.check_raises "unmeasured raises"
    (Invalid_argument "Enclave.measurement_exn: enclave not yet measured") (fun () ->
      ignore (Enclave.measurement_exn e))

(* --- Shm --- *)

let test_shm_grant_and_attach () =
  let t = Shm.create () in
  let _r = Shm.register t ~shm:1 ~owner:10 ~frames:[ 1; 2 ] ~key_id:3 ~max_perm:Types.Read_write in
  (* Unregistered enclave rejected. *)
  (match Shm.attach t ~shm:1 ~enclave:20 ~requested_perm:Types.Read_only ~base_vpn:0 with
  | Error Types.Not_registered -> ()
  | _ -> Alcotest.fail "must require registration");
  (* Non-owner cannot grant. *)
  (match Shm.grant t ~shm:1 ~caller:20 ~grantee:20 ~perm:Types.Read_only with
  | Error (Types.Permission_denied _) -> ()
  | _ -> Alcotest.fail "only owner grants");
  check Alcotest.bool "owner grants" true
    (Shm.grant t ~shm:1 ~caller:10 ~grantee:20 ~perm:Types.Read_only = Ok ());
  (match Shm.attach t ~shm:1 ~enclave:20 ~requested_perm:Types.Read_only ~base_vpn:100 with
  | Ok Types.Read_only -> ()
  | _ -> Alcotest.fail "attach within grant");
  (match Shm.attach t ~shm:1 ~enclave:20 ~requested_perm:Types.Read_only ~base_vpn:100 with
  | Error (Types.Invalid_argument_ _) -> ()
  | _ -> Alcotest.fail "double attach rejected")

let test_shm_perm_clamp () =
  let t = Shm.create () in
  let _ = Shm.register t ~shm:1 ~owner:10 ~frames:[ 1 ] ~key_id:3 ~max_perm:Types.Read_only in
  (* Grant asking for RW on an RO region is clamped. *)
  ignore (Shm.grant t ~shm:1 ~caller:10 ~grantee:20 ~perm:Types.Read_write);
  match Shm.attach t ~shm:1 ~enclave:20 ~requested_perm:Types.Read_write ~base_vpn:0 with
  | Error (Types.Permission_denied _) -> ()
  | Ok Types.Read_only -> ()
  | _ -> Alcotest.fail "write beyond max_perm must not be granted"

let test_shm_destroy_rules () =
  let t = Shm.create () in
  let _ = Shm.register t ~shm:1 ~owner:10 ~frames:[ 1 ] ~key_id:3 ~max_perm:Types.Read_write in
  ignore (Shm.grant t ~shm:1 ~caller:10 ~grantee:20 ~perm:Types.Read_write);
  ignore (Shm.attach t ~shm:1 ~enclave:20 ~requested_perm:Types.Read_only ~base_vpn:0);
  (match Shm.destroy t ~shm:1 ~caller:20 with
  | Error (Types.Permission_denied _) -> ()
  | _ -> Alcotest.fail "non-owner destroy rejected");
  (match Shm.destroy t ~shm:1 ~caller:10 with
  | Error (Types.Permission_denied _) -> ()
  | _ -> Alcotest.fail "destroy with active connection rejected");
  ignore (Shm.detach t ~shm:1 ~enclave:20);
  (match Shm.destroy t ~shm:1 ~caller:10 with
  | Ok region -> check (Alcotest.list Alcotest.int) "frames returned" [ 1 ] region.Shm.frames
  | Error _ -> Alcotest.fail "owner destroy after detach must succeed");
  check Alcotest.bool "gone" true (Shm.find t 1 = None)

let test_shm_active_connections () =
  let t = Shm.create () in
  let r = Shm.register t ~shm:1 ~owner:10 ~frames:[ 1 ] ~key_id:3 ~max_perm:Types.Read_write in
  check Alcotest.int "none attached" 0 (Shm.active_connections r);
  ignore (Shm.grant t ~shm:1 ~caller:10 ~grantee:20 ~perm:Types.Read_write);
  ignore (Shm.attach t ~shm:1 ~enclave:20 ~requested_perm:Types.Read_write ~base_vpn:0);
  ignore (Shm.attach t ~shm:1 ~enclave:10 ~requested_perm:Types.Read_write ~base_vpn:0);
  check Alcotest.int "two attached" 2 (Shm.active_connections r);
  check Alcotest.bool "perm queryable" true (Shm.attached_perm r 20 = Some Types.Read_write)

(* --- Attest & sealing --- *)

(* A quote as EATTEST signs it: the platform certificate issued once
   over [platform_measurement], then one AK signature per quote. *)
let make_quote k ~platform_measurement ~enclave_measurement ~user_data =
  Attest.make_quote k ~platform_measurement
    ~platform_certificate:(Attest.platform_certificate k ~platform_measurement)
    ~enclave_measurement ~user_data

let test_quote_roundtrip () =
  let k = Keymgmt.provision (rng ()) in
  let q =
    make_quote k ~platform_measurement:(Bytes.make 32 'p')
      ~enclave_measurement:(Bytes.make 32 'e') ~user_data:(Bytes.of_string "nonce")
  in
  check Alcotest.bool "verifies" true
    (Attest.verify_quote ~ek:(Keymgmt.ek_public k) ~ak:(Keymgmt.ak_public k) q);
  match Attest.quote_of_bytes (Attest.quote_to_bytes q) with
  | Some q' ->
    check Alcotest.bool "wire roundtrip verifies" true
      (Attest.verify_quote ~ek:(Keymgmt.ek_public k) ~ak:(Keymgmt.ak_public k) q')
  | None -> Alcotest.fail "decode failed"

let test_quote_tamper_detected () =
  let k = Keymgmt.provision (rng ()) in
  let q =
    make_quote k ~platform_measurement:(Bytes.make 32 'p')
      ~enclave_measurement:(Bytes.make 32 'e') ~user_data:Bytes.empty
  in
  let forged = { q with Attest.enclave_measurement = Bytes.make 32 'x' } in
  check Alcotest.bool "forged measurement rejected" false
    (Attest.verify_quote ~ek:(Keymgmt.ek_public k) ~ak:(Keymgmt.ak_public k) forged)

let test_quote_wrong_keys () =
  let k1 = Keymgmt.provision (rng ()) in
  let k2 = Keymgmt.provision (Hypertee_util.Xrng.create 0x999L) in
  let q =
    make_quote k1 ~platform_measurement:(Bytes.make 32 'p')
      ~enclave_measurement:(Bytes.make 32 'e') ~user_data:Bytes.empty
  in
  check Alcotest.bool "different platform's keys fail" false
    (Attest.verify_quote ~ek:(Keymgmt.ek_public k2) ~ak:(Keymgmt.ak_public k2) q)

let test_quote_decode_garbage () =
  check Alcotest.bool "garbage rejected" true (Attest.quote_of_bytes (Bytes.make 7 'z') = None);
  check Alcotest.bool "truncated rejected" true
    (let k = Keymgmt.provision (rng ()) in
     let q =
       make_quote k ~platform_measurement:(Bytes.make 32 'p')
         ~enclave_measurement:(Bytes.make 32 'e') ~user_data:Bytes.empty
     in
     let b = Attest.quote_to_bytes q in
     Attest.quote_of_bytes (Bytes.sub b 0 (Bytes.length b - 3)) = None)

(* The one-signature quote equals the two-signature reference byte
   for byte, over random measurements and user data, with the
   certificate issued once and reused across quotes as the platform
   does. *)
let prop_quote_matches_reference =
  let k = Keymgmt.provision (rng ()) in
  let digest = QCheck.(map Bytes.of_string (string_of_size (Gen.return 32))) in
  let user_data = QCheck.(map Bytes.of_string (string_of_size Gen.(0 -- 200))) in
  let certificates = Hashtbl.create 8 in
  prop
    (QCheck.Test.make ~name:"make_quote = make_quote_reference, byte for byte" ~count:40
       QCheck.(triple (oneofl [ 'p'; 'q'; 'r' ]) digest user_data)
       (fun (platform_byte, enclave_measurement, user_data) ->
         let platform_measurement = Bytes.make 32 platform_byte in
         let platform_certificate =
           match Hashtbl.find_opt certificates platform_byte with
           | Some c -> c
           | None ->
             let c = Attest.platform_certificate k ~platform_measurement in
             Hashtbl.add certificates platform_byte c;
             c
         in
         Bytes.equal
           (Attest.quote_to_bytes
              (Attest.make_quote k ~platform_measurement ~platform_certificate
                 ~enclave_measurement ~user_data))
           (Attest.quote_to_bytes
              (Attest.make_quote_reference k ~platform_measurement ~enclave_measurement
                 ~user_data))))

let test_local_report () =
  let k = Keymgmt.provision (rng ()) in
  let r =
    Attest.make_report k ~verifier_measurement:(Bytes.make 32 'v')
      ~challenger_measurement:(Bytes.make 32 'c')
  in
  check Alcotest.bool "verifies" true (Attest.verify_report k r);
  let forged = { r with Attest.verifier_measurement = Bytes.make 32 'x' } in
  check Alcotest.bool "forged rejected" false (Attest.verify_report k forged)

let test_seal_unseal () =
  let k = Keymgmt.provision (rng ()) in
  let m = Bytes.make 32 'm' in
  let data = Bytes.of_string "long-term secret" in
  let blob = Attest.seal k ~enclave_measurement:m data in
  check Alcotest.bool "blob is not plaintext" false (Bytes.equal blob data);
  (match Attest.unseal k ~enclave_measurement:m blob with
  | Some d -> check Alcotest.bytes "roundtrip" data d
  | None -> Alcotest.fail "unseal failed");
  check Alcotest.bool "wrong measurement rejected" true
    (Attest.unseal k ~enclave_measurement:(Bytes.make 32 'x') blob = None);
  let tampered = Bytes.copy blob in
  Bytes.set tampered 20 (Char.chr (Char.code (Bytes.get tampered 20) lxor 1));
  check Alcotest.bool "tamper rejected" true (Attest.unseal k ~enclave_measurement:m tampered = None);
  check Alcotest.bool "short blob rejected" true
    (Attest.unseal k ~enclave_measurement:m (Bytes.make 10 'a') = None)

let prop_seal_roundtrip =
  prop
    (QCheck.Test.make ~name:"seal/unseal roundtrip" ~count:40
       QCheck.(string_of_size Gen.(int_range 0 200))
       (fun s ->
         let k = Keymgmt.provision (Hypertee_util.Xrng.create 77L) in
         let m = Bytes.make 32 'm' in
         let data = Bytes.of_string s in
         match Attest.unseal k ~enclave_measurement:m (Attest.seal k ~enclave_measurement:m data) with
         | Some d -> Bytes.equal d data
         | None -> false))

(* --- Cost model --- *)

let cost_of kind engine = Cost.create ~ems:(Config.ems_core kind) ~engine

let test_cost_core_ordering () =
  let hw = Hypertee_crypto.Engine.default_hardware in
  let weak = cost_of Config.Weak hw and medium = cost_of Config.Medium hw in
  let strong = cost_of Config.Strong hw in
  check Alcotest.bool "weak slowest" true (Cost.dispatch_ns weak > Cost.dispatch_ns medium);
  check Alcotest.bool "medium ~ strong (management IPC saturates)" true
    (Cost.dispatch_ns medium /. Cost.dispatch_ns strong < 1.2)

let test_cost_crypto_engine_effect () =
  let hw = cost_of Config.Medium Hypertee_crypto.Engine.default_hardware in
  let sw = cost_of Config.Medium Hypertee_crypto.Engine.default_software in
  check Alcotest.bool "engine accelerates measurement" true
    (Cost.measure_ns sw ~bytes:4096 > 10.0 *. Cost.measure_ns hw ~bytes:4096);
  (* Non-crypto work is engine-independent. *)
  check (Alcotest.float 1e-6) "dispatch unchanged" (Cost.dispatch_ns sw) (Cost.dispatch_ns hw)

let test_cost_scales_with_pages () =
  let c = cost_of Config.Medium Hypertee_crypto.Engine.default_hardware in
  check Alcotest.bool "alloc scales" true
    (Cost.alloc_ns c ~pages:512 > 4.0 *. Cost.alloc_ns c ~pages:32);
  check Alcotest.bool "create scales" true
    (Cost.create_ns c ~static_pages:200 > Cost.create_ns c ~static_pages:20)

let test_cost_service_covers_all_requests () =
  let c = cost_of Config.Medium Hypertee_crypto.Engine.default_hardware in
  let requests =
    [
      Types.Create { config = Types.default_config };
      Types.Add { enclave = 1; vpn = 0; data = Bytes.empty; executable = false };
      Types.Enter { enclave = 1 };
      Types.Resume { enclave = 1 };
      Types.Exit { enclave = 1 };
      Types.Destroy { enclave = 1 };
      Types.Alloc { enclave = 1; pages = 4 };
      Types.Free { enclave = 1; vpn = 0; pages = 4 };
      Types.Writeback { pages_hint = 8 };
      Types.Shmget { owner = 1; pages = 4; max_perm = Types.Read_write };
      Types.Shmat { enclave = 1; shm = 1; requested_perm = Types.Read_only };
      Types.Shmdt { enclave = 1; shm = 1 };
      Types.Shmshr { owner = 1; shm = 1; grantee = 2; perm = Types.Read_only };
      Types.Shmdes { owner = 1; shm = 1 };
      Types.Measure { enclave = 1 };
      Types.Attest { enclave = 1; user_data = Bytes.empty };
      Types.Page_fault { enclave = 1; vpn = 7 };
    ]
  in
  List.iter
    (fun r -> check Alcotest.bool "positive service time" true (Cost.service_ns c r > 0.0))
    requests

let suite =
  [
    ( "ems.types",
      [
        Alcotest.test_case "Table II privileges" `Quick test_privileges_match_table2;
        Alcotest.test_case "opcode_of_request" `Quick test_opcode_of_request;
      ] );
    ( "ems.keymgmt",
      [
        Alcotest.test_case "deterministic" `Quick test_key_derivations_deterministic;
        Alcotest.test_case "distinct derivations" `Quick test_key_derivations_distinct;
        Alcotest.test_case "erase" `Quick test_key_erase_changes_derivations;
        Alcotest.test_case "EK/AK signatures" `Quick test_ek_ak_sign;
      ] );
    ( "ems.mem_pool",
      [
        Alcotest.test_case "take/give_back" `Quick test_pool_take_give_back;
        Alcotest.test_case "hides allocations from OS" `Quick test_pool_hides_allocations;
        Alcotest.test_case "refills on demand" `Quick test_pool_refills_on_demand;
        Alcotest.test_case "threshold randomized" `Quick test_pool_threshold_randomized;
        Alcotest.test_case "zeroes on park" `Quick test_pool_zeroes_on_park;
        Alcotest.test_case "surrender to OS" `Quick test_pool_surrender;
        Alcotest.test_case "exhaustion" `Quick test_pool_exhaustion;
      ] );
    ( "ems.ownership",
      [
        Alcotest.test_case "exclusive private ownership" `Quick test_ownership_exclusive;
        Alcotest.test_case "shared attach/detach" `Quick test_ownership_shared_attach;
        Alcotest.test_case "attach to private rejected" `Quick test_ownership_attach_private_rejected;
        Alcotest.test_case "frames_of" `Quick test_ownership_frames_of;
        prop_ownership_no_double_owner;
      ] );
    ( "ems.enclave",
      [
        Alcotest.test_case "state machine" `Quick test_enclave_lifecycle_states;
        Alcotest.test_case "layout disjoint" `Quick test_enclave_layout_disjoint;
        Alcotest.test_case "measurement_exn" `Quick test_enclave_measurement_exn;
      ] );
    ( "ems.shm",
      [
        Alcotest.test_case "grant and attach" `Quick test_shm_grant_and_attach;
        Alcotest.test_case "permission clamp" `Quick test_shm_perm_clamp;
        Alcotest.test_case "destroy rules" `Quick test_shm_destroy_rules;
        Alcotest.test_case "active connections" `Quick test_shm_active_connections;
      ] );
    ( "ems.attest",
      [
        Alcotest.test_case "quote roundtrip" `Quick test_quote_roundtrip;
        Alcotest.test_case "tamper detected" `Quick test_quote_tamper_detected;
        Alcotest.test_case "wrong platform keys" `Quick test_quote_wrong_keys;
        Alcotest.test_case "garbage decode" `Quick test_quote_decode_garbage;
        prop_quote_matches_reference;
        Alcotest.test_case "local report" `Quick test_local_report;
        Alcotest.test_case "seal/unseal" `Quick test_seal_unseal;
        prop_seal_roundtrip;
      ] );
    ( "ems.cost",
      [
        Alcotest.test_case "core ordering" `Quick test_cost_core_ordering;
        Alcotest.test_case "crypto engine effect" `Quick test_cost_crypto_engine_effect;
        Alcotest.test_case "scales with pages" `Quick test_cost_scales_with_pages;
        Alcotest.test_case "covers all requests" `Quick test_cost_service_covers_all_requests;
      ] );
  ]

(* --- Scheduler (Fig. 3 / Sec. III-C) --- *)

let test_scheduler_runs_everything_once () =
  let s = Scheduler.create (Hypertee_util.Xrng.create 1L) ~workers:2 in
  let counts = Array.make 10 0 in
  for i = 0 to 9 do
    Scheduler.submit s ~id:i (fun () -> counts.(i) <- counts.(i) + 1)
  done;
  check Alcotest.int "pending" 10 (Scheduler.pending s);
  check Alcotest.int "dispatched" 10 (Scheduler.dispatch s);
  check Alcotest.int "drained" 0 (Scheduler.pending s);
  Array.iter (fun c -> check Alcotest.int "exactly once" 1 c) counts;
  check Alcotest.int "executed counter" 10 (Scheduler.executed s)

let test_scheduler_order_randomized () =
  let order_with seed =
    let s = Scheduler.create (Hypertee_util.Xrng.create seed) ~workers:2 in
    for i = 0 to 19 do
      Scheduler.submit s ~id:i (fun () -> ())
    done;
    ignore (Scheduler.dispatch s);
    List.map fst (Scheduler.execution_log s)
  in
  let o1 = order_with 1L and o2 = order_with 2L in
  check Alcotest.bool "different platforms, different order" true (o1 <> o2);
  check Alcotest.bool "not arrival order" true (o1 <> List.init 20 Fun.id);
  (* Still a permutation: nothing starved. *)
  check (Alcotest.list Alcotest.int) "permutation" (List.init 20 Fun.id) (List.sort compare o1)

let test_scheduler_spreads_over_workers () =
  let s = Scheduler.create (Hypertee_util.Xrng.create 3L) ~workers:4 in
  for i = 0 to 15 do
    Scheduler.submit s ~id:i (fun () -> ())
  done;
  ignore (Scheduler.dispatch s);
  let per_worker = Array.make 4 0 in
  List.iter (fun (_, w) -> per_worker.(w) <- per_worker.(w) + 1) (Scheduler.execution_log s);
  Array.iter (fun n -> check Alcotest.int "even round-robin" 4 n) per_worker

let test_scheduler_batches_independent () =
  let s = Scheduler.create (Hypertee_util.Xrng.create 4L) ~workers:2 in
  Scheduler.submit s ~id:1 (fun () -> ());
  ignore (Scheduler.dispatch s);
  Scheduler.submit s ~id:2 (fun () -> ());
  ignore (Scheduler.dispatch s);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "log accumulates"
    [ (1, 0); (2, 0) ] (Scheduler.execution_log s)

let scheduler_suite =
  ( "ems.scheduler",
    [
      Alcotest.test_case "runs everything exactly once" `Quick test_scheduler_runs_everything_once;
      Alcotest.test_case "order randomized per platform" `Quick test_scheduler_order_randomized;
      Alcotest.test_case "spreads over workers" `Quick test_scheduler_spreads_over_workers;
      Alcotest.test_case "batches independent" `Quick test_scheduler_batches_independent;
    ] )

let suite = suite @ [ scheduler_suite ]

(* --- Audit log --- *)

let test_audit_records_and_truncates () =
  let a = Audit.create ~capacity:10 () in
  for i = 1 to 25 do
    Audit.record a ~opcode:Types.EALLOC ~sender:(Some (i mod 3))
      ~outcome:(if i mod 5 = 0 then Audit.Refused "no" else Audit.Served)
  done;
  check Alcotest.int "total survives truncation" 25 (Audit.total a);
  check Alcotest.bool "bounded retention" true (List.length (Audit.entries a) <= 10);
  (* Sequence numbers strictly increase and end at total-1. *)
  let seqs = List.map (fun e -> e.Audit.seq) (Audit.entries a) in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  check Alcotest.bool "monotone seq" true (increasing seqs);
  check Alcotest.int "newest retained" 24 (List.nth seqs (List.length seqs - 1))

let test_audit_queries () =
  let a = Audit.create () in
  Audit.record a ~opcode:Types.ECREATE ~sender:None ~outcome:Audit.Served;
  Audit.record a ~opcode:Types.EFREE ~sender:(Some 7) ~outcome:(Audit.Refused "forged");
  Audit.record a ~opcode:Types.EALLOC ~sender:(Some 7) ~outcome:Audit.Served;
  check Alcotest.int "refusals" 1 (List.length (Audit.refusals a));
  check Alcotest.int "by sender" 2 (List.length (Audit.by_sender a ~sender:(Some 7)));
  check Alcotest.int "host entries" 1 (List.length (Audit.by_sender a ~sender:None))

let test_audit_truncation_drops_oldest () =
  let capacity = 10 in
  let a = Audit.create ~capacity () in
  for i = 0 to 24 do
    Audit.record a ~opcode:Types.EALLOC ~sender:(Some (i mod 3)) ~outcome:Audit.Served
  done;
  let seqs = List.map (fun e -> e.Audit.seq) (Audit.entries a) in
  (* Truncation removes from the *old* end: the retained window is a
     strictly increasing suffix of the full history. *)
  check Alcotest.bool "oldest entries gone" true (List.hd seqs >= Audit.total a - capacity);
  check Alcotest.int "newest entry kept" 24 (List.nth seqs (List.length seqs - 1));
  let rec strictly = function
    | a :: (b :: _ as rest) -> a < b && strictly rest
    | _ -> true
  in
  check Alcotest.bool "seq strictly monotonic" true (strictly seqs)

let test_audit_fault_events_truncate () =
  let capacity = 8 in
  let a = Audit.create ~capacity () in
  for i = 0 to 29 do
    Audit.record_fault a ~site:"worker" ~detail:(string_of_int i) ~recovered:(i mod 2 = 0)
  done;
  check Alcotest.int "fault total survives truncation" 30 (Audit.faults_total a);
  let evs = Audit.fault_events a in
  check Alcotest.bool "bounded retention" true (List.length evs <= capacity);
  let seqs = List.map (fun e -> e.Audit.fault_seq) evs in
  check Alcotest.bool "oldest fault events gone" true (List.hd seqs >= 30 - capacity);
  check Alcotest.int "newest fault event kept" 29 (List.nth seqs (List.length seqs - 1));
  let rec strictly = function
    | a :: (b :: _ as rest) -> a < b && strictly rest
    | _ -> true
  in
  check Alcotest.bool "fault_seq strictly monotonic" true (strictly seqs);
  (* The two logs are independent: primitive entries untouched. *)
  check Alcotest.int "primitive log untouched" 0 (Audit.total a)

let audit_suite =
  ( "ems.audit",
    [
      Alcotest.test_case "records and truncates" `Quick test_audit_records_and_truncates;
      Alcotest.test_case "queries" `Quick test_audit_queries;
      Alcotest.test_case "truncation drops oldest" `Quick test_audit_truncation_drops_oldest;
      Alcotest.test_case "fault events truncate" `Quick test_audit_fault_events_truncate;
    ] )

let suite = suite @ [ audit_suite ]

(* --- Scheduler under batched dispatch and fault plans --- *)

module Fault = Hypertee_faults.Fault

let test_scheduler_same_seed_same_order () =
  let order_with seed =
    let s = Scheduler.create (Hypertee_util.Xrng.create seed) ~workers:3 in
    for i = 0 to 19 do
      Scheduler.submit s ~id:i (fun () -> ())
    done;
    ignore (Scheduler.dispatch s);
    Scheduler.execution_log s
  in
  (* The shuffle is a function of the platform seed alone: same seed,
     same dispatch order *and* placement. *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "same seed, same shuffled order" (order_with 42L) (order_with 42L)

let test_scheduler_fairness_across_live_workers () =
  let s = Scheduler.create (Hypertee_util.Xrng.create 7L) ~workers:4 in
  let inj =
    Fault.create
      (Fault.plan [ { Fault.site = Fault.Worker_crash; schedule = Fault.Once_at 1; intensity = 0.0 } ])
  in
  Scheduler.set_fault_injector s inj;
  for i = 0 to 12 do
    Scheduler.submit s ~id:i (fun () -> ())
  done;
  (* The first strike kills one worker and parks its job; the rest of
     the batch round-robins over the three survivors. *)
  check Alcotest.int "twelve ran" 12 (Scheduler.dispatch s);
  check Alcotest.int "crashed job parked, not lost" 1 (Scheduler.pending s);
  check Alcotest.int "three live workers" 3 (Scheduler.alive_workers s);
  let per_worker = Array.make 4 0 in
  List.iter (fun (_, w) -> per_worker.(w) <- per_worker.(w) + 1) (Scheduler.execution_log s);
  let dead = ref (-1) in
  Array.iteri (fun w n -> if n = 0 then dead := w) per_worker;
  check Alcotest.bool "exactly one silent worker" true (!dead >= 0);
  Array.iteri
    (fun w n -> if w <> !dead then check Alcotest.bool "live workers share the batch" true (n >= 12 / 4))
    per_worker;
  (* Watchdog revives the worker and re-queues the parked job under
     its original id. *)
  let report = Scheduler.watchdog_scan s in
  check Alcotest.int "one dead worker found" 1 report.Scheduler.dead_workers;
  check Alcotest.int "one job redispatched" 1 (List.length report.Scheduler.redispatched);
  check Alcotest.int "recovered job runs" 1 (Scheduler.dispatch s);
  check
    (Alcotest.list Alcotest.int)
    "every id executed exactly once" (List.init 13 Fun.id)
    (List.sort compare (List.map fst (Scheduler.execution_log s)))

let test_scheduler_batch_exactly_once_under_faults () =
  let s = Scheduler.create (Hypertee_util.Xrng.create 11L) ~workers:4 in
  let inj =
    Fault.create
      (Fault.plan ~seed:5L
         [
           { Fault.site = Fault.Worker_crash; schedule = Fault.Probability 0.2; intensity = 0.0 };
           { Fault.site = Fault.Worker_stall; schedule = Fault.Probability 0.2; intensity = 0.0 };
         ])
  in
  Scheduler.set_fault_injector s inj;
  let counts = Array.make 40 0 in
  for i = 0 to 39 do
    Scheduler.submit s ~id:i (fun () -> counts.(i) <- counts.(i) + 1)
  done;
  (* Doorbell loop: dispatch, then the watchdog sweep — exactly the
     per-doorbell EMS cycle of the batched transport. *)
  let guard = ref 0 in
  while Scheduler.pending s > 0 && !guard < 100 do
    ignore (Scheduler.dispatch s);
    ignore (Scheduler.watchdog_scan s);
    incr guard
  done;
  check Alcotest.int "batch fully drained" 0 (Scheduler.pending s);
  check Alcotest.bool "faults actually struck" true (Scheduler.crashes s + Scheduler.stalls s > 0);
  Array.iteri
    (fun i c -> check Alcotest.int (Printf.sprintf "job %d exactly once" i) 1 c)
    counts;
  (* Request ids survive parking/re-dispatch: the log holds every id
     exactly once, so response bindings cannot cross. *)
  check
    (Alcotest.list Alcotest.int)
    "ids preserved across recovery" (List.init 40 Fun.id)
    (List.sort compare (List.map fst (Scheduler.execution_log s)))

let scheduler_faults_suite =
  ( "ems.scheduler.batched",
    [
      Alcotest.test_case "same seed, same dispatch order" `Quick test_scheduler_same_seed_same_order;
      Alcotest.test_case "fairness across live workers" `Quick test_scheduler_fairness_across_live_workers;
      Alcotest.test_case "exactly-once under fault plans" `Quick test_scheduler_batch_exactly_once_under_faults;
    ] )

let suite = suite @ [ scheduler_faults_suite ]
