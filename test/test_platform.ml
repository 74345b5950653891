(* Integration tests: the full platform — lifecycle through the
   EMCall gate, memory semantics end to end, shared memory between
   enclaves, swapping, attestation and sealing, teardown and
   resource reclamation. *)

open Hypertee
module Types = Hypertee_ems.Types
module Runtime = Hypertee_ems.Runtime
module Enclave = Hypertee_ems.Enclave
module Emcall = Hypertee_cs.Emcall
module Page_table = Hypertee_arch.Page_table
module Pte = Hypertee_arch.Pte
module Phys_mem = Hypertee_arch.Phys_mem

let check = Alcotest.check

let fresh () = Platform.create ~seed:0x7357L ()

let default_image =
  Sdk.image_of_code ~code:(Bytes.of_string "integration enclave code")
    ~data:(Bytes.of_string "integration data") ()

let launch_and_enter ?(image = default_image) platform =
  match Sdk.launch platform image with
  | Error m -> Alcotest.failf "launch: %s" m
  | Ok enclave -> (
    match Sdk.enter platform ~enclave with
    | Ok session -> (enclave, session)
    | Error m -> Alcotest.failf "enter: %s" m)

(* --- Lifecycle --- *)

let test_launch_measures_correctly () =
  let platform = fresh () in
  match Sdk.launch platform default_image with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "launch rejected: %s" m

let test_tampered_image_detected () =
  let platform = fresh () in
  (* The OS swaps a page during loading: drive the flow manually with
     one EADD carrying different bytes than the build measured. *)
  let image = default_image in
  let created =
    Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Create { config = image.Sdk.config })
  in
  let enclave =
    match created with
    | Ok (Types.Ok_created { enclave }) -> enclave
    | _ -> Alcotest.fail "create failed"
  in
  ignore
    (Platform.invoke platform ~caller:Emcall.Os_kernel
       (Types.Add { enclave; vpn = 0x100; data = Bytes.of_string "EVIL CODE"; executable = true }));
  match Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Measure { enclave }) with
  | Ok (Types.Ok_measure { measurement }) ->
    check Alcotest.bool "measurement exposes tampering" false
      (Bytes.equal measurement (Sdk.expected_measurement image))
  | _ -> Alcotest.fail "measure failed"

let test_enter_requires_measurement () =
  let platform = fresh () in
  let created =
    Platform.invoke platform ~caller:Emcall.Os_kernel
      (Types.Create { config = Types.default_config })
  in
  let enclave =
    match created with Ok (Types.Ok_created { enclave }) -> enclave | _ -> Alcotest.fail "create"
  in
  match Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Enter { enclave }) with
  | Ok (Types.Err (Types.Bad_state _)) -> ()
  | _ -> Alcotest.fail "EENTER before EMEAS must be rejected"

let test_add_after_measure_rejected () =
  let platform = fresh () in
  let enclave, _ = launch_and_enter platform in
  match
    Platform.invoke platform ~caller:Emcall.Os_kernel
      (Types.Add { enclave; vpn = 0x100; data = Bytes.of_string "late"; executable = false })
  with
  | Ok (Types.Err (Types.Bad_state _)) -> ()
  | _ -> Alcotest.fail "EADD after EMEAS must be rejected (TOCTOU defense)"

(* Regression: Sdk.enter/resume once looked enclaves up only in shard
   0's runtime, so every enclave routed to shard 1 failed with
   "enclave vanished after EENTER". *)
let test_enter_on_every_shard () =
  let config = { Hypertee_arch.Config.default with Hypertee_arch.Config.ems_shards = 2 } in
  let platform = Platform.create ~seed:0x5A4DL ~config () in
  let image shard =
    Sdk.image_of_code ~code:(Bytes.of_string (Printf.sprintf "shard %d code" shard))
      ~data:Bytes.empty ()
  in
  let entered =
    List.map
      (fun shard ->
        let enclave, session = launch_and_enter ~image:(image shard) platform in
        check Alcotest.int "routed to its shard" shard (Platform.shard_of_enclave platform enclave);
        let secret = Bytes.of_string (Printf.sprintf "heap of shard %d" shard) in
        Session.write session ~va:(Session.heap_va session) secret;
        check Alcotest.bytes "heap round trip" secret
          (Session.read session ~va:(Session.heap_va session) ~len:(Bytes.length secret));
        (enclave, secret))
      [ 0; 1 ]
  in
  let enclave, secret = List.nth entered 1 in
  let module Traps = Hypertee_cs.Traps in
  (match Traps.deliver (Platform.traps platform) ~enclave ~pc:0x40 Traps.Timer_interrupt with
  | Traps.Suspended_to_os -> ()
  | _ -> Alcotest.fail "timer must park the shard-1 enclave");
  match Sdk.resume platform ~enclave with
  | Error m -> Alcotest.failf "resume on shard 1: %s" m
  | Ok session ->
    check Alcotest.bytes "heap survives the resume" secret
      (Session.read session ~va:(Session.heap_va session) ~len:(Bytes.length secret))

let test_exit_and_reenter () =
  let platform = fresh () in
  let enclave, session = launch_and_enter platform in
  (match Session.exit session with Ok () -> () | Error e -> Alcotest.failf "exit: %s" (Types.error_message e));
  match Sdk.enter platform ~enclave with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "re-enter: %s" m

let test_destroy_reclaims_everything () =
  let platform = fresh () in
  let runtime = Platform.Internals.runtime platform in
  let mee = Platform.Internals.mee platform in
  let enclave, session = launch_and_enter platform in
  (match Session.alloc session ~pages:8 with Ok _ -> () | Error _ -> Alcotest.fail "alloc");
  let ecs = Option.get (Runtime.find_enclave runtime enclave) in
  let key_id = ecs.Enclave.key_id in
  check Alcotest.bool "key programmed" true
    (Hypertee_arch.Mem_encryption.is_programmed mee ~key_id);
  (match Sdk.destroy platform ~enclave with Ok () -> () | Error m -> Alcotest.failf "destroy: %s" m);
  check Alcotest.bool "ECS gone" true (Runtime.find_enclave runtime enclave = None);
  check Alcotest.bool "key revoked" false (Hypertee_arch.Mem_encryption.is_programmed mee ~key_id);
  check Alcotest.int "no frames still owned by the enclave" 0
    (Phys_mem.count_owned (Platform.mem platform) (fun o ->
         o = Phys_mem.Enclave enclave || o = Phys_mem.Page_table enclave))

let test_operations_on_destroyed_enclave () =
  let platform = fresh () in
  let enclave, _ = launch_and_enter platform in
  (match Sdk.destroy platform ~enclave with Ok () -> () | Error m -> Alcotest.failf "%s" m);
  match Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Enter { enclave }) with
  | Ok (Types.Err Types.No_such_enclave) -> ()
  | _ -> Alcotest.fail "destroyed enclave must be unreachable"

let test_multiple_enclaves_coexist () =
  let platform = fresh () in
  let e1, s1 = launch_and_enter platform in
  let image2 = Sdk.image_of_code ~code:(Bytes.of_string "second") ~data:Bytes.empty () in
  let e2, s2 = launch_and_enter ~image:image2 platform in
  check Alcotest.bool "distinct ids" true (e1 <> e2);
  Session.write s1 ~va:(Session.heap_va s1) (Bytes.of_string "one");
  Session.write s2 ~va:(Session.heap_va s2) (Bytes.of_string "two");
  check Alcotest.bytes "e1 data intact" (Bytes.of_string "one")
    (Session.read s1 ~va:(Session.heap_va s1) ~len:3);
  check Alcotest.bytes "e2 data intact" (Bytes.of_string "two")
    (Session.read s2 ~va:(Session.heap_va s2) ~len:3)

(* --- Memory semantics --- *)

let test_heap_rw_across_pages () =
  let platform = fresh () in
  let _, session = launch_and_enter platform in
  let big = Bytes.init 10_000 (fun i -> Char.chr (i land 0xff)) in
  let va = Session.heap_va session + 100 in
  Session.write session ~va big;
  check Alcotest.bytes "multi-page roundtrip" big (Session.read session ~va ~len:10_000)

let test_demand_paging_on_heap_growth () =
  let platform = fresh () in
  let _, session = launch_and_enter platform in
  (* Touch a page above the statically mapped heap: EMCall forwards
     the fault and EMS demand-allocates. *)
  let ecs =
    Option.get (Runtime.find_enclave (Platform.Internals.runtime platform) (Session.enclave_id session))
  in
  let beyond = (ecs.Enclave.heap_cursor + 2) * 4096 in
  Session.write session ~va:beyond (Bytes.of_string "grown");
  check Alcotest.bytes "fault-in worked" (Bytes.of_string "grown") (Session.read session ~va:beyond ~len:5)

let test_alloc_free_cycle () =
  let platform = fresh () in
  let _, session = launch_and_enter platform in
  match Session.alloc session ~pages:4 with
  | Error e -> Alcotest.failf "alloc: %s" (Types.error_message e)
  | Ok va -> (
    Session.write session ~va (Bytes.of_string "transient");
    match Session.free session ~va ~pages:4 with
    | Error e -> Alcotest.failf "free: %s" (Types.error_message e)
    | Ok () -> (
      (* The freed region faults back in as zeroed memory on reuse. *)
      match Session.alloc session ~pages:4 with
      | Ok va2 ->
        check Alcotest.bytes "no stale data" (Bytes.make 9 '\000') (Session.read session ~va:va2 ~len:9)
      | Error e -> Alcotest.failf "realloc: %s" (Types.error_message e)))

let test_enclave_dram_is_ciphertext () =
  let platform = fresh () in
  let enclave, session = launch_and_enter platform in
  let secret = Bytes.of_string "very-secret-value-0123456789" in
  Session.write session ~va:(Session.heap_va session) secret;
  let ecs = Option.get (Runtime.find_enclave (Platform.Internals.runtime platform) enclave) in
  let pte = Option.get (Page_table.lookup ecs.Enclave.page_table ~vpn:ecs.Enclave.layout.Enclave.heap_base) in
  let raw = Phys_mem.read (Platform.mem platform) ~frame:pte.Pte.ppn in
  let contains_secret = ref false in
  for i = 0 to Bytes.length raw - Bytes.length secret do
    if Bytes.equal (Bytes.sub raw i (Bytes.length secret)) secret then contains_secret := true
  done;
  check Alcotest.bool "DRAM never holds plaintext" false !contains_secret

let test_staging_window_bidirectional () =
  let platform = fresh () in
  let enclave, session = launch_and_enter platform in
  (match Sdk.host_write_staging platform ~enclave ~off:16 (Bytes.of_string "host->enclave") with
  | Ok () -> ()
  | Error m -> Alcotest.failf "host write: %s" m);
  check Alcotest.bytes "enclave reads staging" (Bytes.of_string "host->enclave")
    (Session.read session ~va:(Session.staging_va session + 16) ~len:13);
  Session.write session ~va:(Session.staging_va session + 64) (Bytes.of_string "enclave->host");
  match Sdk.host_read_staging platform ~enclave ~off:64 ~len:13 with
  | Ok b -> check Alcotest.bytes "host reads result" (Bytes.of_string "enclave->host") b
  | Error m -> Alcotest.failf "host read: %s" m

(* EADD measures only enclave memory. The staging window is mapped
   into the enclave, but it is host memory under KeyID 0: a page
   measured there could be rewritten by the host after EMEAS, and the
   warm path would hand out that measurement over whatever the host
   left (ERETIRE zeroes the staging frames). *)
let test_eadd_refuses_staging () =
  let platform = fresh () in
  let oracle = Platform.attach_oracle platform in
  let os request =
    match Platform.invoke platform ~caller:Emcall.Os_kernel request with
    | Ok r -> r
    | Error _ -> Alcotest.fail "gate rejected an OS request"
  in
  let enclave =
    match os (Types.Create { config = default_image.Sdk.config }) with
    | Types.Ok_created { enclave } -> enclave
    | _ -> Alcotest.fail "ECREATE failed"
  in
  List.iter
    (fun (vpn, data, executable) ->
      match os (Types.Add { enclave; vpn; data; executable }) with
      | Types.Ok_unit -> ()
      | _ -> Alcotest.failf "EADD of image page %#x failed" vpn)
    (Sdk.add_plan default_image);
  let ecs = Option.get (Runtime.find_enclave (Platform.Internals.runtime platform) enclave) in
  let staging = ecs.Enclave.layout.Enclave.staging_base in
  let code = Bytes.of_string "MEASURED-CODE" in
  (match os (Types.Add { enclave; vpn = staging; data = code; executable = true }) with
  | Types.Err (Types.Invalid_argument_ _) -> ()
  | _ -> Alcotest.fail "EADD into the staging window was accepted");
  (match Sdk.host_read_staging platform ~enclave ~off:0 ~len:(Bytes.length code) with
  | Ok b -> check Alcotest.bytes "staging untouched" (Bytes.make (Bytes.length code) '\000') b
  | Error m -> Alcotest.failf "host read: %s" m);
  (match os (Types.Measure { enclave }) with
  | Types.Ok_measure { measurement } ->
    check Alcotest.bytes "EMEAS covers the image only"
      (Sdk.expected_measurement default_image) measurement
  | _ -> Alcotest.fail "EMEAS failed");
  check Alcotest.int "the oracle predicts the refusal" 0
    (Hypertee_check.Oracle.divergence_count oracle)

(* --- Swapping (EWB) --- *)

let test_ewb_returns_randomized_count () =
  let platform = fresh () in
  let _ = launch_and_enter platform in
  match Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Writeback { pages_hint = 8 }) with
  | Ok (Types.Ok_writeback { frames; blobs }) ->
    check Alcotest.bool "at least the hint" true (List.length frames >= 8);
    check Alcotest.int "blob per frame" (List.length frames) (List.length blobs);
    (* Returned frames belong to the OS again and are not bitmap-marked. *)
    let bitmap = Platform.Internals.bitmap platform in
    List.iter
      (fun f ->
        check Alcotest.bool "bitmap cleared" false (Hypertee_arch.Bitmap.get bitmap ~frame:f);
        check Alcotest.bool "frame freed" true (Phys_mem.owner (Platform.mem platform) f = Phys_mem.Free))
      frames
  | _ -> Alcotest.fail "EWB failed"

let test_ewb_blobs_are_encrypted () =
  let platform = fresh () in
  let _ = launch_and_enter platform in
  match Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Writeback { pages_hint = 4 }) with
  | Ok (Types.Ok_writeback { blobs; _ }) ->
    List.iter
      (fun (_, blob) ->
        check Alcotest.bool "not a zero page in the clear" false
          (Bytes.equal blob (Bytes.make 4096 '\000')))
      blobs
  | _ -> Alcotest.fail "EWB failed"

let test_swap_out_and_fault_back () =
  let platform = fresh () in
  let enclave, session = launch_and_enter platform in
  let data = Bytes.of_string "survives the swap" in
  Session.write session ~va:(Session.heap_va session) data;
  (* Drain the pool so EWB must evict live enclave pages. *)
  let runtime = Platform.Internals.runtime platform in
  let pool = Runtime.pool runtime in
  ignore (Hypertee_ems.Mem_pool.surrender pool ~n:(Hypertee_ems.Mem_pool.available pool));
  (match Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Writeback { pages_hint = 64 }) with
  | Ok (Types.Ok_writeback _) -> ()
  | _ -> Alcotest.fail "EWB failed");
  let ecs = Option.get (Runtime.find_enclave runtime enclave) in
  check Alcotest.bool "some pages swapped out" true (Hashtbl.length ecs.Enclave.swapped_out > 0);
  (* Touching the whole heap faults swapped pages back in with their
     contents intact. *)
  check Alcotest.bytes "data restored after swap-in" data
    (Session.read session ~va:(Session.heap_va session) ~len:(Bytes.length data))

(* --- Attestation / sealing end-to-end --- *)

let test_remote_attestation_end_to_end () =
  let platform = fresh () in
  let _, session = launch_and_enter platform in
  let rng = Hypertee_util.Xrng.create 11L in
  match
    Verifier.attest_enclave ~rng ~ek:(Platform.ek_public platform) ~ak:(Platform.ak_public platform)
      ~expected_measurement:(Sdk.expected_measurement default_image) session
  with
  | Ok outcome -> check Alcotest.int "session key size" 16 (Bytes.length outcome.Verifier.session_key)
  | Error f -> Alcotest.failf "attestation: %s" (Verifier.failure_message f)

let test_remote_attestation_detects_wrong_binary () =
  let platform = fresh () in
  let evil = Sdk.image_of_code ~code:(Bytes.of_string "evil twin") ~data:Bytes.empty () in
  let _, session = launch_and_enter ~image:evil platform in
  let rng = Hypertee_util.Xrng.create 12L in
  match
    Verifier.attest_enclave ~rng ~ek:(Platform.ek_public platform) ~ak:(Platform.ak_public platform)
      ~expected_measurement:(Sdk.expected_measurement default_image) session
  with
  | Error (Verifier.Measurement_mismatch _) -> ()
  | Ok _ -> Alcotest.fail "wrong binary must not attest"
  | Error f -> Alcotest.failf "unexpected failure: %s" (Verifier.failure_message f)

let test_seal_across_instances () =
  let platform = fresh () in
  let e1, _ = launch_and_enter platform in
  let blob =
    match Platform.seal platform ~enclave:e1 (Bytes.of_string "persistent") with
    | Ok b -> b
    | Error m -> Alcotest.failf "seal: %s" m
  in
  (match Sdk.destroy platform ~enclave:e1 with Ok () -> () | Error m -> Alcotest.failf "%s" m);
  (* Same code relaunched: same measurement, can unseal. *)
  let e2, _ = launch_and_enter platform in
  (match Platform.unseal platform ~enclave:e2 blob with
  | Ok d -> check Alcotest.bytes "unsealed" (Bytes.of_string "persistent") d
  | Error m -> Alcotest.failf "unseal: %s" m);
  (* Different code: different sealing key. *)
  let other = Sdk.image_of_code ~code:(Bytes.of_string "other code") ~data:Bytes.empty () in
  let e3, _ = launch_and_enter ~image:other platform in
  match Platform.unseal platform ~enclave:e3 blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "different enclave unsealed foreign data"

let test_local_attestation_between_enclaves () =
  let platform = fresh () in
  let _, s1 = launch_and_enter platform in
  let image2 = Sdk.image_of_code ~code:(Bytes.of_string "peer") ~data:Bytes.empty () in
  let _, s2 = launch_and_enter ~image:image2 platform in
  match Session.local_attest ~challenger:s1 ~verifier:s2 with
  | Ok key -> check Alcotest.int "16-byte key" 16 (Bytes.length key)
  | Error m -> Alcotest.failf "local attest: %s" m

(* --- Shared memory integration --- *)

let test_shm_full_protocol () =
  let platform = fresh () in
  let _, sender = launch_and_enter platform in
  let image2 = Sdk.image_of_code ~code:(Bytes.of_string "receiver") ~data:Bytes.empty () in
  let receiver_id, receiver = launch_and_enter ~image:image2 platform in
  let shm = Result.get_ok (Session.shmget sender ~pages:2 ~max_perm:Types.Read_write) in
  Result.get_ok (Session.shmshr sender ~shm ~grantee:receiver_id ~perm:Types.Read_write);
  let va_s = Result.get_ok (Session.shmat sender ~shm ~perm:Types.Read_write) in
  let va_r = Result.get_ok (Session.shmat receiver ~shm ~perm:Types.Read_write) in
  let payload = Bytes.init 8000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  Session.write sender ~va:va_s payload;
  check Alcotest.bytes "full-region transfer" payload (Session.read receiver ~va:va_r ~len:8000);
  (* Writes flow both ways under Read_write. *)
  Session.write receiver ~va:va_r (Bytes.of_string "ACK");
  check Alcotest.bytes "reverse direction" (Bytes.of_string "ACK")
    (Session.read sender ~va:va_s ~len:3);
  Result.get_ok (Session.shmdt receiver ~shm);
  Result.get_ok (Session.shmdt sender ~shm);
  Result.get_ok (Session.shmdes sender ~shm)

let test_shm_frames_invisible_to_host () =
  let platform = fresh () in
  let _, sender = launch_and_enter platform in
  let shm = Result.get_ok (Session.shmget sender ~pages:1 ~max_perm:Types.Read_write) in
  let region = Option.get (Runtime.find_shm (Platform.Internals.runtime platform) shm) in
  let frame = List.hd region.Hypertee_ems.Shm.frames in
  (* Shared enclave pages are bitmap-protected against the host. *)
  check Alcotest.bool "bitmap set" true
    (Hypertee_arch.Bitmap.get (Platform.Internals.bitmap platform) ~frame);
  let os = Platform.os platform in
  let proc = Hypertee_cs.Os.spawn os in
  Page_table.map proc.Hypertee_cs.Os.page_table ~vpn:77
    (Pte.leaf ~ppn:frame ~r:true ~w:false ~x:false ~key_id:0);
  match Platform.host_read platform ~table:proc.Hypertee_cs.Os.page_table ~vpn:77 ~off:0 ~len:8 with
  | Error (Platform.Fault Hypertee_arch.Ptw.Bitmap_fault) -> ()
  | _ -> Alcotest.fail "host must not read shared enclave memory"

let test_shm_destroyed_region_scrubbed () =
  let platform = fresh () in
  let _, sender = launch_and_enter platform in
  let shm = Result.get_ok (Session.shmget sender ~pages:1 ~max_perm:Types.Read_write) in
  let region = Option.get (Runtime.find_shm (Platform.Internals.runtime platform) shm) in
  let frame = List.hd region.Hypertee_ems.Shm.frames in
  let va = Result.get_ok (Session.shmat sender ~shm ~perm:Types.Read_write) in
  Session.write sender ~va (Bytes.of_string "shared secret");
  Result.get_ok (Session.shmdt sender ~shm);
  Result.get_ok (Session.shmdes sender ~shm);
  check Alcotest.bytes "scrubbed on destroy" (Bytes.make 4096 '\000')
    (Phys_mem.read (Platform.mem platform) ~frame)

(* --- Invariants across a busy run --- *)

let test_global_invariants_after_stress () =
  let platform = fresh () in
  let runtime = Platform.Internals.runtime platform in
  let bitmap = Platform.Internals.bitmap platform in
  let mem = Platform.mem platform in
  (* Launch, churn, and destroy several enclaves. *)
  for round = 1 to 3 do
    let image =
      Sdk.image_of_code ~code:(Bytes.of_string (Printf.sprintf "round %d" round)) ~data:Bytes.empty ()
    in
    let enclave, session = launch_and_enter ~image platform in
    (match Session.alloc session ~pages:8 with Ok _ -> () | Error _ -> ());
    Session.write session ~va:(Session.heap_va session) (Bytes.of_string "x");
    ignore (Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Writeback { pages_hint = 4 }));
    if round mod 2 = 1 then (match Sdk.destroy platform ~enclave with Ok () -> () | Error m -> Alcotest.failf "%s" m)
  done;
  (* Invariant 1: every enclave-owned frame is bitmap-marked. *)
  let violations = ref 0 in
  for f = 0 to Phys_mem.frames mem - 1 do
    match Phys_mem.owner mem f with
    | Phys_mem.Enclave _ | Phys_mem.Shared _ | Phys_mem.Page_table _ | Phys_mem.Pool ->
      if not (Hypertee_arch.Bitmap.get bitmap ~frame:f) then incr violations
    | Phys_mem.Free | Phys_mem.Cs_os ->
      if Hypertee_arch.Bitmap.get bitmap ~frame:f then incr violations
    | Phys_mem.Ems_private | Phys_mem.Bitmap_region -> ()
  done;
  check Alcotest.int "bitmap is exactly the enclave-memory set" 0 !violations;
  (* Invariant 2: the ownership table agrees with physical owners. *)
  List.iter
    (fun id ->
      let frames = Hypertee_ems.Ownership.frames_of (Runtime.ownership runtime) id in
      List.iter
        (fun f ->
          check Alcotest.bool "ownership matches phys_mem" true
            (Phys_mem.owner mem f = Phys_mem.Enclave id))
        frames)
    (Runtime.live_enclaves runtime)

let suite =
  [
    ( "platform.lifecycle",
      [
        Alcotest.test_case "launch and measure" `Quick test_launch_measures_correctly;
        Alcotest.test_case "tampered image detected" `Quick test_tampered_image_detected;
        Alcotest.test_case "enter requires measurement" `Quick test_enter_requires_measurement;
        Alcotest.test_case "EADD after EMEAS rejected" `Quick test_add_after_measure_rejected;
        Alcotest.test_case "exit and re-enter" `Quick test_exit_and_reenter;
        Alcotest.test_case "enter on every shard" `Quick test_enter_on_every_shard;
        Alcotest.test_case "destroy reclaims everything" `Quick test_destroy_reclaims_everything;
        Alcotest.test_case "destroyed enclave unreachable" `Quick test_operations_on_destroyed_enclave;
        Alcotest.test_case "multiple enclaves coexist" `Quick test_multiple_enclaves_coexist;
      ] );
    ( "platform.memory",
      [
        Alcotest.test_case "heap rw across pages" `Quick test_heap_rw_across_pages;
        Alcotest.test_case "demand paging" `Quick test_demand_paging_on_heap_growth;
        Alcotest.test_case "alloc/free cycle" `Quick test_alloc_free_cycle;
        Alcotest.test_case "DRAM is ciphertext" `Quick test_enclave_dram_is_ciphertext;
        Alcotest.test_case "staging window" `Quick test_staging_window_bidirectional;
        Alcotest.test_case "EADD refuses the staging window" `Quick test_eadd_refuses_staging;
      ] );
    ( "platform.swap",
      [
        Alcotest.test_case "EWB randomized count" `Quick test_ewb_returns_randomized_count;
        Alcotest.test_case "EWB blobs encrypted" `Quick test_ewb_blobs_are_encrypted;
        Alcotest.test_case "swap out and fault back" `Quick test_swap_out_and_fault_back;
      ] );
    ( "platform.attestation",
      [
        Alcotest.test_case "remote attestation e2e" `Quick test_remote_attestation_end_to_end;
        Alcotest.test_case "wrong binary rejected" `Quick test_remote_attestation_detects_wrong_binary;
        Alcotest.test_case "seal across instances" `Quick test_seal_across_instances;
        Alcotest.test_case "local attestation" `Quick test_local_attestation_between_enclaves;
      ] );
    ( "platform.shm",
      [
        Alcotest.test_case "full protocol" `Quick test_shm_full_protocol;
        Alcotest.test_case "frames invisible to host" `Quick test_shm_frames_invisible_to_host;
        Alcotest.test_case "destroyed region scrubbed" `Quick test_shm_destroyed_region_scrubbed;
      ] );
    ( "platform.invariants",
      [ Alcotest.test_case "global invariants after stress" `Quick test_global_invariants_after_stress ] );
  ]

(* The runtime's audit trail captures forged requests end-to-end. *)
let test_audit_captures_attack () =
  let platform = fresh () in
  let victim, _ = launch_and_enter platform in
  let eve_img = Sdk.image_of_code ~code:(Bytes.of_string "eve") ~data:Bytes.empty () in
  let eve, _ = launch_and_enter ~image:eve_img platform in
  ignore
    (Platform.invoke platform ~caller:(Emcall.User_enclave eve)
       (Types.Free { enclave = victim; vpn = 0x100; pages = 1 }));
  let audit = Runtime.audit (Platform.Internals.runtime platform) in
  let refusals = Hypertee_ems.Audit.refusals audit in
  check Alcotest.bool "forgery in the audit trail" true
    (List.exists
       (fun e ->
         e.Hypertee_ems.Audit.opcode = Types.EFREE && e.Hypertee_ems.Audit.sender = Some eve)
       refusals)

let audit_suite =
  ("platform.audit", [ Alcotest.test_case "forged request audited" `Quick test_audit_captures_attack ])

let suite = suite @ [ audit_suite ]
