(* Self-tests of the benchmark: its modelled output is a pure function
   of the seed, shed sessions miss the latency limit, and every
   session's ledger sums to its latency. Small inputs keep them fast. *)

open Perfbench
module Platform = Hypertee.Platform

let small_mix ~seed =
  Bench.Open
    (Gen.open_loop ~seed ~popularity:(Gen.zipf_catalog ~images:4 ~s:1.1)
       ~ladder:[ (200.0, 30); (2000.0, 30) ])

let small_echo ~seed =
  Bench.Closed
    (Gen.echo_sessions ~seed ~catalog:(Gen.echo_catalog ~images:4) ~sessions:4 ~messages:3)

let pass ?admission workload ~seed inputs =
  let st = Bench.setup workload ~seed ~traced:false ~inputs in
  Option.iter
    (fun (rate_per_s, burst) -> Platform.set_admission st.Bench.platform ~rate_per_s ~burst)
    admission;
  Bench.run_pass workload st ~deadline_ns:infinity

let modelled workload (p : Bench.pass) =
  List.filter_map
    (fun (m : Bench.metric) ->
      if m.Bench.clock = "modelled" then Some (m.Bench.name, m.Bench.value) else None)
    (Bench.end_to_end workload ~setups:[] ~peak_heap_words:0 ~first:p
       ~passes:[ Bench.host_sample workload p ])

let determinism workload inputs () =
  let a = pass workload ~seed:7L (inputs ~seed:7L) in
  let b = pass workload ~seed:7L (inputs ~seed:7L) in
  Alcotest.(check string) "hash repeats" a.Bench.hash b.Bench.hash;
  Alcotest.(check (list (pair string (float 0.0)))) "modelled metrics repeat" (modelled workload a)
    (modelled workload b);
  let c = pass workload ~seed:8L (inputs ~seed:8L) in
  Alcotest.(check bool) "another seed moves the hash" true (a.Bench.hash <> c.Bench.hash);
  Alcotest.(check bool)
    "another seed moves the model" true
    (modelled workload a <> modelled workload c)

(* A bucket of one token a second sheds almost every opening call. *)
let shed_misses_limit () =
  let ladder = [ (500.0, 40) ] in
  let popularity = Gen.zipf_catalog ~images:4 ~s:1.1 in
  let inputs = Bench.Open (Gen.open_loop ~seed:3L ~popularity ~ladder) in
  let p = pass Bench.Tenant_mix ~seed:3L ~admission:(1.0, 1) inputs in
  let r = match p.Bench.raw with Bench.Open_result r -> r | Bench.Closed_result _ -> assert false in
  let shed =
    Array.fold_left
      (fun n s -> if s.Tenant.outcome = Tenant.Shed then n + 1 else n)
      0 r.Tenant.sessions
  in
  Alcotest.(check bool) "sessions were shed" true (shed > 1);
  Alcotest.(check bool) "shed sessions count as failed" true (p.Bench.failed >= shed);
  match Bench.rungs ~ladder r with
  | [ rung ] ->
    Alcotest.(check (float 0.0)) "p99 counts the shed as missing" infinity rung.Bench.p99_ns;
    Alcotest.(check bool) "the rung misses the SLO" false rung.Bench.passes
  | _ -> Alcotest.fail "one rung expected"

(* Above the bucket's rate with a one-token burst, sessions both queue
   and retry, so all four ledger parts are exercised. *)
let ledger_sums () =
  let p = pass Bench.Tenant_mix ~seed:5L ~admission:(20000.0, 1) (small_mix ~seed:5L) in
  let r = match p.Bench.raw with Bench.Open_result r -> r | Bench.Closed_result _ -> assert false in
  let total f =
    Array.fold_left
      (fun a s -> if s.Tenant.outcome = Tenant.Completed then a +. f s.Tenant.ledger else a)
      0.0 r.Tenant.sessions
  in
  Alcotest.(check bool) "gate time" true (total (fun l -> l.Tenant.gate_ns) > 0.0);
  Alcotest.(check bool) "service time" true (total (fun l -> l.Tenant.service_ns) > 0.0);
  Alcotest.(check bool) "queue wait" true (total (fun l -> l.Tenant.wait_ns) > 0.0);
  Alcotest.(check bool) "retry gaps" true (total (fun l -> l.Tenant.retry_ns) > 0.0);
  (* [run_pass] already asserted the sums; a broken ledger must fail. *)
  let s =
    List.find (fun s -> s.Tenant.outcome = Tenant.Completed) (Array.to_list r.Tenant.sessions)
  in
  s.Tenant.ledger.Tenant.wait_ns <- s.Tenant.ledger.Tenant.wait_ns +. 1000.0;
  match Bench.check_ledgers r with
  | () -> Alcotest.fail "a ledger off by 1 us passed"
  | exception Bench.Incorrect _ -> ()

let () =
  Alcotest.run "perfbench"
    [
      ( "perfbench",
        [
          Alcotest.test_case "tenant model repeats per seed" `Quick
            (determinism Bench.Tenant_mix small_mix);
          Alcotest.test_case "echo model repeats per seed" `Quick
            (determinism Bench.Channel_echo small_echo);
          Alcotest.test_case "shed session misses the limit" `Quick shed_misses_limit;
          Alcotest.test_case "ledger sums to latency" `Quick ledger_sums;
        ] );
    ]
