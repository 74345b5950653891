(* Failure injection: resource exhaustion, error-path cleanliness and
   recovery. A production TEE must degrade cleanly when KeyIDs,
   memory or mailbox slots run out — and recover once resources
   return. *)

open Hypertee
module Types = Hypertee_ems.Types
module Runtime = Hypertee_ems.Runtime
module Emcall = Hypertee_cs.Emcall
module Config = Hypertee_arch.Config
module Mem_encryption = Hypertee_arch.Mem_encryption
module Phys_mem = Hypertee_arch.Phys_mem

let check = Alcotest.check

let tiny_code = Bytes.of_string "x"
let tiny_image = Sdk.image_of_code ~code:tiny_code ~data:Bytes.empty ()

let small_config =
  {
    Types.code_pages = 1;
    data_pages = 1;
    heap_pages = 1;
    stack_pages = 1;
    shared_pages = 1;
  }

let small_image = Sdk.image_of_code ~config:small_config ~code:tiny_code ~data:Bytes.empty ()

(* --- KeyID exhaustion (Sec. IV-C) --- *)

let test_keyid_exhaustion_and_recovery () =
  let platform = Platform.create ~seed:0xF1L () in
  let mee = Platform.Internals.mee platform in
  (* Burn every programmable slot except a handful. *)
  let rec burn () =
    match Mem_encryption.find_free_slot mee with
    | Some key_id when key_id < Mem_encryption.slots mee - 3 ->
      Mem_encryption.program mee ~key_id (Bytes.make 16 'x');
      burn ()
    (* [find_free_slot] reserves: release the slot we only peeked. *)
    | Some key_id -> Mem_encryption.revoke mee ~key_id
    | None -> ()
  in
  burn ();
  (* A few launches still fit; keep them Running so their keys are
     not parkable (Sec. IV-C parking only suspends idle enclaves). *)
  let e1 = Result.get_ok (Sdk.launch platform small_image) in
  let _s1 = Result.get_ok (Sdk.enter platform ~enclave:e1) in
  let e2 = Result.get_ok (Sdk.launch platform small_image) in
  let _s2 = Result.get_ok (Sdk.enter platform ~enclave:e2) in
  let e3 = Result.get_ok (Sdk.launch platform small_image) in
  let _s3 = Result.get_ok (Sdk.enter platform ~enclave:e3) in
  (* ...then the well is dry. *)
  (match Sdk.launch platform small_image with
  | Error m -> check Alcotest.string "reported as KeyID exhaustion" (Types.error_message Types.Out_of_key_ids) m
  | Ok _ -> Alcotest.fail "launch must fail with no KeyIDs left");
  (* Destroying an enclave releases its KeyID; launching works again. *)
  Result.get_ok (Sdk.destroy platform ~enclave:e2);
  (match Sdk.launch platform small_image with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "recovery failed: %s" m);
  ignore (e1, e3)

(* --- Memory exhaustion --- *)

let test_memory_exhaustion_clean_failure () =
  (* A platform so small that a large enclave cannot fit. *)
  let config = { Config.default with Config.memory_mb = 2; ems_memory_mb = 1 } in
  let platform = Platform.create ~seed:0xF2L ~config () in
  let huge =
    Sdk.image_of_code
      ~config:{ small_config with Types.heap_pages = 4096 }
      ~code:tiny_code ~data:Bytes.empty ()
  in
  (match Sdk.launch platform huge with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized enclave must not launch");
  (* The failure must not leak the KeyID it grabbed: a small enclave
     still launches afterwards. *)
  match Sdk.launch platform small_image with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "small launch after failed big launch: %s" m

let test_alloc_failure_reports_out_of_memory () =
  let config = { Config.default with Config.memory_mb = 2; ems_memory_mb = 1 } in
  let platform = Platform.create ~seed:0xF3L ~config () in
  let enclave = Result.get_ok (Sdk.launch platform small_image) in
  let session = Result.get_ok (Sdk.enter platform ~enclave) in
  match Session.alloc session ~pages:8192 with
  | Error Types.Out_of_memory -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Types.error_message e)
  | Ok _ -> Alcotest.fail "impossible allocation succeeded"

(* --- Mailbox pressure --- *)

let test_mailbox_depth_is_not_observable_failure () =
  (* The platform drains the mailbox synchronously inside the gate,
     so sustained load never wedges it: a long burst of primitives
     all succeed. *)
  let platform = Platform.create ~seed:0xF4L () in
  let enclave = Result.get_ok (Sdk.launch platform tiny_image) in
  let session = Result.get_ok (Sdk.enter platform ~enclave) in
  for _ = 1 to 500 do
    match Session.alloc session ~pages:1 with
    | Ok va -> ignore (Session.free session ~va ~pages:1)
    | Error e -> Alcotest.failf "burst failed: %s" (Types.error_message e)
  done

(* --- Error paths leave no partial state --- *)

let test_failed_create_leaves_no_ownership () =
  let config = { Config.default with Config.memory_mb = 2; ems_memory_mb = 1 } in
  let platform = Platform.create ~seed:0xF5L ~config () in
  let runtime = Platform.Internals.runtime platform in
  let before = Hypertee_ems.Ownership.size (Runtime.ownership runtime) in
  let huge =
    Sdk.image_of_code
      ~config:{ small_config with Types.heap_pages = 4096 }
      ~code:tiny_code ~data:Bytes.empty ()
  in
  (match Sdk.launch platform huge with Error _ -> () | Ok _ -> Alcotest.fail "must fail");
  (* No enclave exists, so no private ownership should remain from
     the failed attempt beyond what a subsequent launch can reuse. *)
  check Alcotest.bool "no stuck live enclaves" true (Runtime.live_enclaves runtime = []);
  ignore before

(* The OS rewrites one EADD's bytes in flight. EMEAS exposes it, and
   the launch must not leave running the enclave it created: no
   caller ever learns that enclave's id. *)
let test_tampered_launch_fails_closed () =
  let config = { Config.default with Config.ems_shards = 2 } in
  let platform = Platform.create ~seed:0xF7L ~config () in
  let rec tamper = function
    | Sdk.Created (enclave, next) -> Sdk.Created (enclave, tamper next)
    | Sdk.Call (caller, Types.Add add, k) ->
      Sdk.Call (caller, Types.Add { add with data = Bytes.of_string "EVIL CODE" }, k)
    | Sdk.Call (caller, request, k) -> Sdk.Call (caller, request, fun r -> tamper (k r))
    | step -> step
  in
  (match Sdk.run platform (tamper (Sdk.launch_steps tiny_image)) with
  | Error m ->
    check Alcotest.bool "reported as tampering" true
      (String.starts_with ~prefix:"measurement mismatch" m)
  | Ok _ -> Alcotest.fail "a tampered launch must fail");
  Array.iteri
    (fun shard runtime ->
      check Alcotest.(list int) (Printf.sprintf "no live enclave on shard %d" shard) []
        (Runtime.live_enclaves runtime))
    (Platform.Internals.runtimes platform)

let test_double_destroy_rejected () =
  let platform = Platform.create ~seed:0xF6L () in
  let enclave = Result.get_ok (Sdk.launch platform tiny_image) in
  Result.get_ok (Sdk.destroy platform ~enclave);
  match Sdk.destroy platform ~enclave with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double destroy must be rejected"

let test_shm_of_destroyed_owner () =
  let platform = Platform.create ~seed:0xF7L () in
  let owner = Result.get_ok (Sdk.launch platform tiny_image) in
  let session = Result.get_ok (Sdk.enter platform ~enclave:owner) in
  let shm = Result.get_ok (Session.shmget session ~pages:1 ~max_perm:Types.Read_write) in
  Result.get_ok (Sdk.destroy platform ~enclave:owner);
  (* The region's owner is gone; a third party still cannot grab it. *)
  let other = Result.get_ok (Sdk.launch platform small_image) in
  let other_s = Result.get_ok (Sdk.enter platform ~enclave:other) in
  match Session.shmat other_s ~shm ~perm:Types.Read_only with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "orphaned shm must not be attachable without a grant"

(* --- Random-operation robustness (monkey test) --- *)

let test_random_operation_storm () =
  let platform = Platform.create ~seed:0xF8L () in
  let rng = Hypertee_util.Xrng.create 0x5708L in
  let live = ref [] in
  for _ = 1 to 120 do
    match Hypertee_util.Xrng.int rng 6 with
    | 0 -> (
      match Sdk.launch platform small_image with
      | Ok e -> live := e :: !live
      | Error _ -> ())
    | 1 -> (
      match !live with
      | e :: rest ->
        (match Sdk.destroy platform ~enclave:e with Ok () -> live := rest | Error _ -> ())
      | [] -> ())
    | 2 -> (
      match !live with
      | e :: _ -> (
        match Sdk.enter platform ~enclave:e with
        | Ok s -> (
          match Session.alloc s ~pages:(1 + Hypertee_util.Xrng.int rng 4) with
          | Ok va -> ignore (Session.free s ~va ~pages:1)
          | Error _ -> ())
        | Error _ -> ())
      | [] -> ())
    | 3 ->
      ignore
        (Platform.invoke platform ~caller:Emcall.Os_kernel
           (Types.Writeback { pages_hint = 1 + Hypertee_util.Xrng.int rng 8 }))
    | 4 ->
      (* Hostile junk at the gate. *)
      ignore
        (Platform.invoke platform ~caller:Emcall.User_host
           (Types.Destroy { enclave = Hypertee_util.Xrng.int rng 100 }))
    | _ ->
      ignore
        (Platform.invoke platform ~caller:Emcall.Os_kernel
           (Types.Enter { enclave = Hypertee_util.Xrng.int rng 100 }))
  done;
  (* The survivors are still fully functional. *)
  match Sdk.launch platform tiny_image with
  | Ok e -> (
    match Sdk.enter platform ~enclave:e with
    | Ok s ->
      Session.write s ~va:(Session.heap_va s) (Bytes.of_string "alive");
      check Alcotest.bytes "platform still healthy" (Bytes.of_string "alive")
        (Session.read s ~va:(Session.heap_va s) ~len:5)
    | Error m -> Alcotest.failf "enter after storm: %s" m)
  | Error m -> Alcotest.failf "launch after storm: %s" m

let suite =
  [
    ( "failures",
      [
        Alcotest.test_case "KeyID exhaustion and recovery" `Quick test_keyid_exhaustion_and_recovery;
        Alcotest.test_case "memory exhaustion clean failure" `Quick test_memory_exhaustion_clean_failure;
        Alcotest.test_case "alloc failure reports out-of-memory" `Quick test_alloc_failure_reports_out_of_memory;
        Alcotest.test_case "mailbox burst" `Quick test_mailbox_depth_is_not_observable_failure;
        Alcotest.test_case "failed create leaves no state" `Quick test_failed_create_leaves_no_ownership;
        Alcotest.test_case "tampered launch fails closed" `Quick test_tampered_launch_fails_closed;
        Alcotest.test_case "double destroy rejected" `Quick test_double_destroy_rejected;
        Alcotest.test_case "orphaned shm not attachable" `Quick test_shm_of_destroyed_owner;
        Alcotest.test_case "random operation storm" `Quick test_random_operation_storm;
      ] );
  ]

(* --- KeyID parking (Sec. IV-C: suspend an enclave to release a
   KeyID) --- *)

let test_keyid_parking_under_pressure () =
  let platform = Platform.create ~seed:0xF9L () in
  let mee = Platform.Internals.mee platform in
  (* Leave exactly one programmable slot free. *)
  let rec burn () =
    match Mem_encryption.find_free_slot mee with
    | Some key_id when key_id < Mem_encryption.slots mee - 1 ->
      Mem_encryption.program mee ~key_id (Bytes.make 16 'x');
      burn ()
    (* [find_free_slot] reserves: release the slot we only peeked. *)
    | Some key_id -> Mem_encryption.revoke mee ~key_id
    | None -> ()
  in
  burn ();
  (* Victim takes the last slot, writes a secret, exits (idle). *)
  let victim = Result.get_ok (Sdk.launch platform small_image) in
  let vs = Result.get_ok (Sdk.enter platform ~enclave:victim) in
  Session.write vs ~va:(Session.heap_va vs) (Bytes.of_string "park me");
  Result.get_ok (Session.exit vs);
  (* A new launch finds no slot; EMS parks the idle victim's key. *)
  let newcomer = Result.get_ok (Sdk.launch platform small_image) in
  let runtime = Platform.Internals.runtime platform in
  let vecs = Option.get (Runtime.find_enclave runtime victim) in
  check Alcotest.bool "victim key parked" true vecs.Hypertee_ems.Enclave.key_parked;
  (* The newcomer works normally. *)
  let ns = Result.get_ok (Sdk.enter platform ~enclave:newcomer) in
  Session.write ns ~va:(Session.heap_va ns) (Bytes.of_string "fresh");
  check Alcotest.bytes "newcomer memory fine" (Bytes.of_string "fresh")
    (Session.read ns ~va:(Session.heap_va ns) ~len:5);
  (* While parked, DRAM holds the victim's pages under the swap key:
     still no plaintext anywhere. *)
  let mem = Platform.mem platform in
  let leaked = ref false in
  for f = 0 to Phys_mem.frames mem - 1 do
    let page = Phys_mem.read mem ~frame:f in
    for i = 0 to 4096 - 7 do
      if Bytes.equal (Bytes.sub page i 7) (Bytes.of_string "park me") then leaked := true
    done
  done;
  check Alcotest.bool "parked pages stay ciphertext" false !leaked;
  (* Entering the victim revives it: the newcomer must exit first so
     a slot (or another parkable victim) exists. *)
  Result.get_ok (Session.exit ns);
  Result.get_ok (Sdk.destroy platform ~enclave:newcomer);
  let vs' = Result.get_ok (Sdk.enter platform ~enclave:victim) in
  let v' = Option.get (Runtime.find_enclave runtime victim) in
  check Alcotest.bool "revived" false v'.Hypertee_ems.Enclave.key_parked;
  check Alcotest.bytes "memory intact across park/revive" (Bytes.of_string "park me")
    (Session.read vs' ~va:(Session.heap_va vs') ~len:7)

let test_keyid_parking_no_victim () =
  let platform = Platform.create ~seed:0xFAL () in
  let mee = Platform.Internals.mee platform in
  let rec burn () =
    match Mem_encryption.find_free_slot mee with
    | Some key_id ->
      Mem_encryption.program mee ~key_id (Bytes.make 16 'x');
      burn ()
    | None -> ()
  in
  burn ();
  (* Slots full and no idle enclave to park: creation fails cleanly. *)
  match Sdk.launch platform small_image with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "launch must fail with nothing to park"

let parking_suite =
  ( "failures.keyid_parking",
    [
      Alcotest.test_case "park and revive under pressure" `Quick test_keyid_parking_under_pressure;
      Alcotest.test_case "no parkable victim" `Quick test_keyid_parking_no_victim;
    ] )

(* --- Injected faults (Hypertee_faults): delivery and recovery
   guarantees under dropped/duplicated/corrupted responses, crashed
   and stalled EMS workers, and flipped memory bits. *)

module Fault = Hypertee_faults.Fault

let prop = QCheck_alcotest.to_alcotest ~speed_level:`Quick

(* An image with enough heap for long EALLOC sequences. *)
let roomy_image =
  Sdk.image_of_code
    ~config:{ Types.default_config with Types.heap_pages = 128 }
    ~code:tiny_code ~data:Bytes.empty ()

let alloc_or_fail platform ~enclave ~pages =
  match
    Platform.invoke platform ~caller:(Emcall.User_enclave enclave)
      (Types.Alloc { enclave; pages })
  with
  | Ok (Types.Ok_alloc { base_vpn; _ }) -> base_vpn
  | Ok (Types.Err e) -> QCheck.Test.fail_reportf "EALLOC refused: %s" (Types.error_message e)
  | Ok _ -> QCheck.Test.fail_report "unexpected EALLOC response"
  | Error Emcall.Timeout -> QCheck.Test.fail_report "timeout under a recoverable schedule"
  | Error _ -> QCheck.Test.fail_report "gate rejection"

(* Exactly-once: the enclave heap is a bump allocator, so the k-th
   successful one-page EALLOC must return first_vpn + k - 1. A lost
   response that was recovered by re-*executing* (rather than
   retransmitting) the primitive would skip a vpn; a duplicate
   delivered twice would repeat one. *)
let prop_exactly_once_under_mailbox_faults =
  prop
    (QCheck.Test.make ~name:"exactly-once delivery under drop/duplicate/corrupt schedules"
       ~count:12
       QCheck.(tup3 (int_range 4 16) (int_bound 3) (int_bound 999))
       (fun (ops, which, salt) ->
         let site =
           match which with
           | 0 -> Fault.Mailbox_drop
           | 1 -> Fault.Mailbox_duplicate
           | 2 -> Fault.Mailbox_corrupt
           | _ -> Fault.Mailbox_drop
         in
         let faults =
           Fault.plan
             ~seed:(Int64.of_int (0xD00 + salt))
             [
               { Fault.site; schedule = Fault.Every_nth 3; intensity = 0.0 };
               { Fault.site = Fault.Mailbox_duplicate; schedule = Fault.Every_nth 5; intensity = 0.0 };
             ]
         in
         let platform = Platform.create ~seed:(Int64.of_int (777 + salt)) ~faults () in
         let enclave = Result.get_ok (Sdk.launch platform roomy_image) in
         let first = alloc_or_fail platform ~enclave ~pages:1 in
         for k = 1 to ops do
           let vpn = alloc_or_fail platform ~enclave ~pages:1 in
           if vpn <> first + k then
             QCheck.Test.fail_reportf "alloc %d returned vpn %d, expected %d (lost or re-executed)"
               k vpn (first + k)
         done;
         true))

(* Request/response binding: two enclaves with different allocation
   strides, interleaved under drop+duplicate faults. A response that
   crossed over to the other enclave's invoke would break that
   enclave's arithmetic sequence. *)
let prop_no_cross_delivery_under_faults =
  prop
    (QCheck.Test.make ~name:"no response reaches the wrong request id under faults" ~count:10
       QCheck.(list_of_size Gen.(int_range 4 24) bool)
       (fun picks ->
         let faults =
           Fault.plan ~seed:0xC805L
             [
               { Fault.site = Fault.Mailbox_drop; schedule = Fault.Every_nth 4; intensity = 0.0 };
               { Fault.site = Fault.Mailbox_duplicate; schedule = Fault.Every_nth 3; intensity = 0.0 };
             ]
         in
         let platform = Platform.create ~seed:0x1BADL ~faults () in
         let e1 = Result.get_ok (Sdk.launch platform roomy_image) in
         let e2 = Result.get_ok (Sdk.launch platform roomy_image) in
         let c1 = ref 0 and c2 = ref 0 in
         let b1 = alloc_or_fail platform ~enclave:e1 ~pages:1 in
         let b2 = alloc_or_fail platform ~enclave:e2 ~pages:3 in
         List.iter
           (fun pick_first ->
             if pick_first then begin
               incr c1;
               let vpn = alloc_or_fail platform ~enclave:e1 ~pages:1 in
               if vpn <> b1 + !c1 then
                 QCheck.Test.fail_reportf "enclave 1 got vpn %d, expected %d" vpn (b1 + !c1)
             end
             else begin
               incr c2;
               let vpn = alloc_or_fail platform ~enclave:e2 ~pages:3 in
               if vpn <> b2 + (3 * !c2) then
                 QCheck.Test.fail_reportf "enclave 2 got vpn %d, expected %d" vpn (b2 + (3 * !c2))
             end)
           picks;
         true))

(* Watchdog: crashed/stalled workers lose their in-flight requests;
   the watchdog must revive the workers and re-dispatch the parked
   jobs under their original ids, so every invoke still completes
   with its own response. *)
let prop_watchdog_redispatch_preserves_binding =
  prop
    (QCheck.Test.make ~name:"watchdog re-dispatch preserves request/response binding" ~count:10
       QCheck.(tup3 (int_range 4 16) (int_bound 50) (int_bound 999))
       (fun (ops, pct, salt) ->
         (* crash/stall probabilities up to 0.5 each: recovery fits
            easily inside the gate's poll/retry budget. *)
         let p = float_of_int pct /. 100.0 in
         let faults =
           Fault.plan
             ~seed:(Int64.of_int (0xCAFE + salt))
             [
               { Fault.site = Fault.Worker_crash; schedule = Fault.Probability p; intensity = 0.0 };
               { Fault.site = Fault.Worker_stall; schedule = Fault.Probability (p /. 2.0); intensity = 0.0 };
             ]
         in
         let platform = Platform.create ~seed:(Int64.of_int (31 + salt)) ~faults () in
         let enclave = Result.get_ok (Sdk.launch platform roomy_image) in
         let first = alloc_or_fail platform ~enclave ~pages:1 in
         for k = 1 to ops do
           let vpn = alloc_or_fail platform ~enclave ~pages:1 in
           if vpn <> first + k then
             QCheck.Test.fail_reportf "alloc %d returned vpn %d, expected %d" k vpn (first + k)
         done;
         let sched = Platform.Internals.scheduler platform in
         let module S = Hypertee_ems.Scheduler in
         if S.crashes sched + S.stalls sched > 0 && S.restarts sched = 0 then
           QCheck.Test.fail_report "workers died but the watchdog never restarted any";
         true))

let test_timeout_surfaces_cleanly () =
  (* Every response post dropped, forever: the gate must give up with
     [Timeout] after its bounded budget — no hang, no exception. *)
  let faults =
    Fault.plan [ { Fault.site = Fault.Mailbox_drop; schedule = Fault.Always; intensity = 0.0 } ]
  in
  let platform = Platform.create ~seed:0x7E0L ~faults () in
  (match
     Platform.invoke platform ~caller:Emcall.Os_kernel
       (Types.Create { config = Types.default_config })
   with
  | Error Emcall.Timeout -> ()
  | Ok _ -> Alcotest.fail "response crossed an always-drop fabric"
  | Error _ -> Alcotest.fail "wrong rejection");
  let emcall = Platform.Internals.emcall platform in
  check Alcotest.int "timeout counted" 1 (Emcall.timeouts emcall);
  check Alcotest.bool "retries were attempted" true (Emcall.retries emcall > 0);
  (* Still alive and still bounded on the next call. *)
  match
    Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Writeback { pages_hint = 1 })
  with
  | Error Emcall.Timeout -> ()
  | _ -> Alcotest.fail "second invoke must also time out cleanly"

let test_integrity_fault_kills_enclave_not_platform () =
  (* Every DRAM line read under an enclave key arrives with a flipped
     bit. The SHA-3 MAC must catch it, EMS must terminate the victim
     — and only the victim. *)
  let faults =
    Fault.plan [ { Fault.site = Fault.Memory_bit_flip; schedule = Fault.Always; intensity = 0.0 } ]
  in
  let platform = Platform.create ~seed:0xB17L ~faults () in
  let victim = Result.get_ok (Sdk.launch platform roomy_image) in
  let session = Result.get_ok (Sdk.enter platform ~enclave:victim) in
  (* Give the victim heap pages, then force writeback to evict them:
     eviction decrypts through the engine and hits the flip. *)
  (match Session.alloc session ~pages:8 with Ok _ -> () | Error _ -> Alcotest.fail "alloc");
  (match
     Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Writeback { pages_hint = 400 })
   with
  | Ok (Types.Err (Types.Integrity_failure _)) -> ()
  | Ok _ -> Alcotest.fail "flipped line passed the MAC check"
  | Error _ -> Alcotest.fail "gate rejection");
  let runtime = Platform.Internals.runtime platform in
  check Alcotest.bool "victim terminated" false
    (List.mem victim (Runtime.live_enclaves runtime));
  let audit = Runtime.audit runtime in
  check Alcotest.bool "containment recorded in the audit log" true
    (List.exists
       (fun (e : Hypertee_ems.Audit.fault_event) -> e.Hypertee_ems.Audit.site = "memory-integrity")
       (Hypertee_ems.Audit.fault_events audit));
  (* The platform survives: a fresh enclave launches and runs (its
     launch path only stores; no flipped line is ever read back). *)
  match Sdk.launch platform small_image with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "platform died with the enclave: %s" m

let test_zero_rate_plan_is_inert () =
  (* A uniform plan at rate 0.0 must behave exactly like no plan at
     all: same responses, same modelled latencies. *)
  let run faults =
    let platform = Platform.create ~seed:0x5A5AL ?faults () in
    let enclave = Result.get_ok (Sdk.launch platform roomy_image) in
    let trace = ref [] in
    for _ = 1 to 10 do
      match
        Platform.invoke_timed platform ~caller:(Emcall.User_enclave enclave)
          (Types.Alloc { enclave; pages = 1 })
      with
      | Ok (Types.Ok_alloc { base_vpn; _ }, latency_ns) ->
        trace := latency_ns :: float_of_int base_vpn :: !trace
      | _ -> Alcotest.fail "alloc failed"
    done;
    !trace
  in
  let bare = run None in
  let zeroed = run (Some (Fault.uniform ~rate:0.0 ())) in
  check (Alcotest.list (Alcotest.float 0.0)) "bit-identical trace" bare zeroed

let fault_suite =
  ( "failures.injected",
    [
      prop_exactly_once_under_mailbox_faults;
      prop_no_cross_delivery_under_faults;
      prop_watchdog_redispatch_preserves_binding;
      Alcotest.test_case "timeout surfaces cleanly" `Quick test_timeout_surfaces_cleanly;
      Alcotest.test_case "integrity fault kills enclave, not platform" `Quick
        test_integrity_fault_kills_enclave_not_platform;
      Alcotest.test_case "zero-rate plan is inert" `Quick test_zero_rate_plan_is_inert;
    ] )

let suite = suite @ [ parking_suite; fault_suite ]
