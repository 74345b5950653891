(* Enclave-as-a-service tests: token-bucket admission control at the
   gate, warm-pool measurement identity, and a closed-loop smoke run
   of the multi-tenant cloud driver. *)

module Types = Hypertee_ems.Types
module Emcall = Hypertee_cs.Emcall
module Mailbox = Hypertee_arch.Mailbox
module Config = Hypertee_arch.Config
module Platform = Hypertee.Platform
module Sdk = Hypertee.Sdk
module Cloud = Hypertee_experiments.Cloud
module Tenants = Hypertee_workloads.Tenants
module Xrng = Hypertee_util.Xrng
module Session = Hypertee.Session
module Mem_encryption = Hypertee_arch.Mem_encryption
module Page_table = Hypertee_arch.Page_table
module Pte = Hypertee_arch.Pte
module Metrics = Hypertee_obs.Metrics

let prop = QCheck_alcotest.to_alcotest ~speed_level:`Quick

let small_config =
  {
    Types.code_pages = 1;
    data_pages = 1;
    heap_pages = 4;
    stack_pages = 1;
    shared_pages = 1;
  }

(* --- Admission control: a gate with a token bucket installed never
   admits beyond capacity, and sheds deterministically. --- *)

(* A stub EMS that answers everything immediately, so the only
   behaviour under test is the gate's bucket. *)
let stub_emcall seed =
  let mailbox : (Types.request, Types.response) Mailbox.t = Mailbox.create () in
  let ems_service () =
    let rec drain () =
      match Mailbox.recv_request mailbox with
      | Some p ->
        (match Mailbox.send_response mailbox ~request_id:p.Mailbox.request_id Types.Ok_unit with
        | Ok () -> ()
        | Error `Unknown_or_answered -> Alcotest.fail "stub EMS answered twice");
        drain ()
      | None -> ()
    in
    drain ()
  in
  Emcall.create ~rng:(Xrng.create seed) ~transport:Config.default_transport ~mailbox
    ~ems_service ~service_ns:(fun _ -> 100.0) ()

(* One deterministic admission trace: [k1] back-to-back calls against
   a fresh full bucket, a virtual-clock advance worth [m] whole tokens
   (plus half a token, so no expectation sits on a float boundary),
   then [k2] more calls. Returns (admitted1, admitted2, shed). *)
let admission_trace ~seed ~rate ~burst ~k1 ~m ~k2 =
  let em = stub_emcall seed in
  Emcall.set_admission em ~rate_per_s:(float_of_int rate) ~burst;
  let call () =
    match Emcall.invoke em ~caller:Emcall.Os_kernel (Types.Writeback { pages_hint = 0 }) with
    | Ok _ -> true
    | Error Emcall.Busy -> false
    | Error _ -> Alcotest.fail "stub gate rejected for a non-admission reason"
  in
  let count n = List.length (List.filter (fun x -> x) (List.init n (fun _ -> call ()))) in
  let admitted1 = count k1 in
  Emcall.advance_admission_ns em ((float_of_int m +. 0.5) *. 1e9 /. float_of_int rate);
  let admitted2 = count k2 in
  (admitted1, admitted2, Emcall.shed em)

let prop_admission_caps =
  prop
    (QCheck.Test.make ~name:"admission: never beyond capacity, sheds deterministically"
       ~count:80
       QCheck.(
         tup5 (int_range 1 64) (int_range 1 16) (int_range 0 40) (int_range 0 20)
           (int_range 0 40))
       (fun (rate, burst, k1, m, k2) ->
         let admitted1, admitted2, shed =
           admission_trace ~seed:5L ~rate ~burst ~k1 ~m ~k2
         in
         (* A full bucket admits exactly the burst, never more. *)
         let expect1 = Stdlib.min k1 burst in
         if admitted1 <> expect1 then
           QCheck.Test.fail_reportf "burst %d, %d calls: admitted %d, expected %d" burst k1
             admitted1 expect1;
         (* After the refill the bucket holds the phase-1 leftovers
            plus m + 0.5 tokens, capped at the burst; whole tokens
            admit, the fraction never does. *)
         let leftover = burst - expect1 in
         let expect2 = Stdlib.min k2 (Stdlib.min burst (leftover + m)) in
         if admitted2 <> expect2 then
           QCheck.Test.fail_reportf "refill of %d tokens, %d calls: admitted %d, expected %d"
             m k2 admitted2 expect2;
         if shed <> k1 - expect1 + (k2 - expect2) then
           QCheck.Test.fail_reportf "shed counter %d disagrees with %d rejections" shed
             (k1 - expect1 + (k2 - expect2));
         (* Deterministic: an identical trace sheds identically, even
            under a different gate RNG seed. *)
         admission_trace ~seed:99L ~rate ~burst ~k1 ~m ~k2 = (admitted1, admitted2, shed)))

(* --- Warm-pool measurement identity: an enclave revived from the
   pool carries the byte-identical measurement of a cold launch of
   the same image. --- *)

(* One platform shared across the property's cases: platform creation
   (RSA keygen) dominates otherwise. Single shard, so every retire
   parks (the measurement's home shard is shard 0 by definition). *)
let warm_platform = lazy (Platform.create ~seed:0x3A11L ())

(* The EMS-side measurement record: what ERETIRE re-derived from the
   resident pages before parking, and what EWARM matched against.
   (EMEAS itself is a once-only transition, already consumed by the
   launch.) *)
let measure platform e =
  let runtime = Platform.Internals.runtime platform in
  match Hypertee_ems.Runtime.find_enclave runtime e with
  | Some enc -> (
    match enc.Hypertee_ems.Enclave.measurement with
    | Some m -> Bytes.copy m
    | None -> Alcotest.fail "live enclave carries no measurement")
  | None -> Alcotest.fail "enclave not found on the shard"

let prop_warm_measurement_identical =
  prop
    (QCheck.Test.make ~name:"warm-pool revive: measurement byte-identical to cold" ~count:20
       QCheck.(pair (string_of_size Gen.(1 -- 200)) (string_of_size Gen.(0 -- 100)))
       (fun (code, data) ->
         let platform = Lazy.force warm_platform in
         let image =
           Sdk.image_of_code ~config:small_config ~code:(Bytes.of_string code)
             ~data:(Bytes.of_string data) ()
         in
         let cold = Result.get_ok (Sdk.launch platform image) in
         let m_cold = measure platform cold in
         if not (Bytes.equal m_cold (Sdk.expected_measurement image)) then
           QCheck.Test.fail_reportf "cold measurement disagrees with the SDK stream";
         (match Sdk.retire platform ~enclave:cold with
         | Ok () -> ()
         | Error m -> Alcotest.failf "retire: %s" m);
         (match Sdk.warm_launch platform image with
         | Ok (revived, `Warm) ->
           let m_warm = measure platform revived in
           (* Destroy (not retire) so the pool stays empty between
              cases — each case must exercise its own park/revive. *)
           (match Sdk.destroy platform ~enclave:revived with
           | Ok () -> ()
           | Error m -> Alcotest.failf "destroy: %s" m);
           if not (Bytes.equal m_cold m_warm) then
             QCheck.Test.fail_reportf "measurement changed across park/revive"
           else true
         | Ok (_, `Cold) -> QCheck.Test.fail_reportf "EWARM missed the enclave just parked"
         | Error m -> QCheck.Test.fail_reportf "warm_launch: %s" m)))

(* --- ERETIRE scrub: tenant bytes a session wrote into heap or stack
   never reach the next warm session, and the scrub of pages nobody
   wrote since the last one (a skipped zero store) leaves them just as
   clean. --- *)

let page_size = Hypertee_util.Units.page_size

let mee_stores platform =
  let registry = Metrics.create () in
  Platform.publish_metrics platform registry;
  Metrics.counter_value (Metrics.counter registry "mee.stores")

(* The plaintext of the enclave's page at [va], read straight through
   the MEE under the enclave's KeyID. *)
let mee_page platform ~enclave ~va =
  match Platform.find_enclave platform enclave with
  | None -> Alcotest.fail "enclave not found"
  | Some e -> (
    match Page_table.lookup e.Hypertee_ems.Enclave.page_table ~vpn:(va / page_size) with
    | None -> Alcotest.failf "va 0x%x not mapped" va
    | Some pte ->
      Mem_encryption.read_page (Platform.Internals.mee platform) (Platform.mem platform)
        ~key_id:pte.Pte.key_id ~frame:pte.Pte.ppn)

let test_retire_scrubs_heap_and_stack () =
  let platform = Platform.create ~seed:0x5C2BL () in
  let image =
    Sdk.image_of_code ~config:small_config ~code:(Bytes.of_string "scrub test")
      ~data:(Bytes.of_string "static data") ()
  in
  let ok what = function Ok v -> v | Error m -> Alcotest.failf "%s: %s" what m in
  let enclave = ok "launch" (Sdk.launch platform image) in
  let session = ok "enter" (Sdk.enter platform ~enclave) in
  let heap = Session.heap_va session and stack = Session.stack_va session in
  let marker = Bytes.of_string "tenant secret" in
  Session.write session ~va:heap marker;
  Session.write session ~va:stack marker;
  (match Session.exit session with
  | Ok () -> ()
  | Error e -> Alcotest.failf "exit: %s" (Types.error_message e));
  Alcotest.(check bytes) "marker landed in the heap" marker
    (Bytes.sub (mee_page platform ~enclave ~va:heap) 0 (Bytes.length marker));
  let zeros = Bytes.make page_size '\000' in
  let retire_and_revive label =
    let stores = mee_stores platform in
    ok "retire" (Sdk.retire platform ~enclave);
    let stored = mee_stores platform - stores in
    (match ok "warm launch" (Sdk.warm_launch platform image) with
    | id, `Warm -> Alcotest.(check int) (label ^ ": same enclave revived") enclave id
    | _, `Cold -> Alcotest.failf "%s: warm pool missed" label);
    Alcotest.(check bytes) (label ^ ": heap page zeroed") zeros
      (mee_page platform ~enclave ~va:heap);
    Alcotest.(check bytes) (label ^ ": stack page zeroed") zeros
      (mee_page platform ~enclave ~va:stack);
    stored
  in
  (* The first retire really scrubs exactly the two written pages. *)
  Alcotest.(check int) "first retire stores the written pages" 2 (retire_and_revive "first");
  (* Nothing wrote since: the second retire's scrub is all skips. *)
  Alcotest.(check int) "second retire stores nothing" 0 (retire_and_revive "second");
  let report = Platform.check ~deep:true platform in
  if not (Hypertee_check.Invariant.ok report) then
    Alcotest.failf "deep sweep: %s" (Hypertee_check.Invariant.report_to_string report)

(* --- Staging-window residue: the staging window is plaintext host
   memory, so bytes a session left there must not reach the next
   session that gets the frames, cold or warm. --- *)

let staging_secret = Bytes.of_string "TENANT-A-SECRET"

let staging_head platform ~enclave =
  match
    Sdk.host_read_staging platform ~enclave ~off:0 ~len:(Bytes.length staging_secret)
  with
  | Ok b -> b
  | Error m -> Alcotest.failf "host_read_staging: %s" m

let write_secret platform ~enclave =
  match Sdk.host_write_staging platform ~enclave ~off:0 staging_secret with
  | Ok () -> ()
  | Error m -> Alcotest.failf "host_write_staging: %s" m

let test_staging_cleared_cold () =
  let platform = Platform.create ~seed:0x57A61L () in
  let ok what = function Ok v -> v | Error m -> Alcotest.failf "%s: %s" what m in
  let image tag =
    Sdk.image_of_code ~config:small_config ~code:(Bytes.of_string tag)
      ~data:(Bytes.of_string "data") ()
  in
  let a = ok "launch A" (Sdk.launch platform (image "tenant A")) in
  write_secret platform ~enclave:a;
  let frame_of enclave =
    match Platform.find_enclave platform enclave with
    | Some e -> List.hd e.Hypertee_ems.Enclave.staging_frames
    | None -> Alcotest.fail "enclave not found"
  in
  let a_frame = frame_of a in
  ok "destroy A" (Sdk.destroy platform ~enclave:a);
  let b = ok "launch B" (Sdk.launch platform (image "tenant B")) in
  Alcotest.(check int) "B reuses A's staging frame" a_frame (frame_of b);
  Alcotest.(check bytes) "B's staging starts zeroed"
    (Bytes.make (Bytes.length staging_secret) '\000')
    (staging_head platform ~enclave:b)

let test_staging_cleared_warm () =
  let platform = Platform.create ~seed:0x57A62L () in
  let ok what = function Ok v -> v | Error m -> Alcotest.failf "%s: %s" what m in
  let image =
    Sdk.image_of_code ~config:small_config ~code:(Bytes.of_string "warm staging")
      ~data:(Bytes.of_string "data") ()
  in
  let enclave = ok "launch" (Sdk.launch platform image) in
  write_secret platform ~enclave;
  ok "retire" (Sdk.retire platform ~enclave);
  (match ok "warm launch" (Sdk.warm_launch platform image) with
  | id, `Warm -> Alcotest.(check int) "same enclave revived" enclave id
  | _, `Cold -> Alcotest.fail "warm pool missed");
  Alcotest.(check bytes) "revived staging starts zeroed"
    (Bytes.make (Bytes.length staging_secret) '\000')
    (staging_head platform ~enclave)

(* --- Closed-loop smoke run of the cloud driver: a tiny tenant fleet
   must complete sessions, hit the warm pool, and leave the platform
   clean under the deep sweep and the oracle. --- *)

let test_cloud_closed_smoke () =
  let spec = { Tenants.default_spec with Tenants.tenants = 2; images = 2 } in
  let point =
    Cloud.run_closed ~seed:0x51103L ~spec ~shards:2 ~tenants:2 ~sessions_per_tenant:4 ()
  in
  Alcotest.(check int) "no invariant violations" 0 point.Cloud.cl_violations;
  Alcotest.(check int) "no oracle divergences" 0 point.Cloud.cl_divergences;
  Alcotest.(check bool) "sessions completed" true (point.Cloud.cl_completed > 0);
  Alcotest.(check bool) "warm pool was hit" true (point.Cloud.cl_warm_hits >= 1);
  Alcotest.(check bool) "throughput positive" true (point.Cloud.cl_throughput_per_s > 0.0)

let suite =
  [
    ( "cloud",
      [
        prop_admission_caps;
        prop_warm_measurement_identical;
        Alcotest.test_case "ERETIRE scrubs heap and stack, skipped or not" `Quick
          test_retire_scrubs_heap_and_stack;
        Alcotest.test_case "EDESTROY clears the staging window" `Quick test_staging_cleared_cold;
        Alcotest.test_case "ERETIRE clears the staging window" `Quick test_staging_cleared_warm;
        Alcotest.test_case "closed-loop smoke: clean, warm hits, progress" `Quick
          test_cloud_closed_smoke;
      ] );
  ]
