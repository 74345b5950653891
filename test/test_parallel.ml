(* Tests for running platforms on domains: the worker pool behind
   [Exec.map], the execution-mode switch, domain-safe observability,
   module scratch that fanned-out platforms share, and — the headline
   property — that fanning a sweep's platforms over domains gives
   exactly the values [List.map] gives. *)

open Hypertee
module Pool = Hypertee_util.Domain_pool
module Exec = Hypertee_sim.Exec
module Config = Hypertee_arch.Config
module Metrics = Hypertee_obs.Metrics
module Trace = Hypertee_obs.Trace
module Scale = Hypertee_experiments.Scale
module Chaos = Hypertee_experiments.Chaos
module Cloud = Hypertee_experiments.Cloud
module Tenants = Hypertee_workloads.Tenants
module Types = Hypertee_ems.Types
module Emcall = Hypertee_cs.Emcall
module Invariant = Hypertee_check.Invariant

let check = Alcotest.check

(* {2 Domain pool} *)

let test_pool_map_order () =
  let xs = Array.init 257 Fun.id in
  check Alcotest.(array int) "order and values preserved"
    (Array.map (fun x -> (x * 2) + 1) xs)
    (Pool.map (Pool.shared ~domains:2) (fun x -> (x * 2) + 1) xs)

let test_pool_exception_propagates () =
  let ran = Atomic.make 0 in
  (try
     ignore
       (Pool.map (Pool.shared ~domains:2)
          (fun i ->
            Atomic.incr ran;
            if i = 5 then failwith "job 5 exploded")
          (Array.init 8 Fun.id));
     Alcotest.fail "exception was swallowed"
   with Failure m -> check Alcotest.string "original exception" "job 5 exploded" m);
  (* The barrier still waited for every job, failure included. *)
  check Alcotest.int "all jobs ran before re-raise" 8 (Atomic.get ran)

let test_pool_nested_inline () =
  let pool = Pool.shared ~domains:2 in
  (* A job mapping over its own pool must not deadlock: the nested
     batch runs inline on the domain that runs the job. *)
  let sums =
    Pool.map pool
      (fun i -> Array.fold_left ( + ) 0 (Pool.map pool (fun j -> i * j) (Array.init 3 Fun.id)))
      (Array.init 4 Fun.id)
  in
  check Alcotest.(array int) "nested maps all ran" [| 0; 3; 6; 9 |] sums

let test_pool_sequential_degenerate () =
  (* A one-domain pool spawns nothing: application is strictly in
     input order on the caller. *)
  let log = ref [] in
  ignore (Pool.map (Pool.shared ~domains:1) (fun i -> log := i :: !log) (Array.init 5 Fun.id));
  check Alcotest.(list int) "input order" [ 4; 3; 2; 1; 0 ] !log

(* {2 Execution mode} *)

let test_exec_strings () =
  check Alcotest.(option string) "deterministic round trip" (Some "deterministic")
    (Option.map Exec.to_string (Exec.of_string "deterministic"));
  (match Exec.of_string "parallel:4" with
  | Some (Exec.Parallel { domains }) -> check Alcotest.int "parallel:4" 4 domains
  | _ -> Alcotest.fail "parallel:4 did not parse");
  (match Exec.of_string "parallel" with
  | Some (Exec.Parallel { domains }) ->
    check Alcotest.bool "bare parallel picks host parallelism" true (domains >= 1)
  | _ -> Alcotest.fail "parallel did not parse");
  check Alcotest.bool "junk rejected" true (Exec.of_string "sideways" = None);
  check Alcotest.bool "1 is deterministic" true (Exec.of_string "1" = Some Exec.Deterministic);
  (* The environment alone decides the mode; unset (or unparsable)
     means deterministic. Either way [map] is [List.map]'s value. *)
  let expected =
    Option.value ~default:Exec.Deterministic
      (Option.bind (Sys.getenv_opt Exec.env_var) Exec.of_string)
  in
  check Alcotest.bool "mode follows the environment" true (Exec.default_mode () = expected);
  let xs = List.init 9 Fun.id in
  check Alcotest.(list int) "map keeps input order" (List.map succ xs) (Exec.map succ xs)

let test_platform_rejects_domains () =
  List.iter
    (fun domains ->
      match Platform.create ~config:{ Config.default with Config.domains } () with
      | _ -> Alcotest.failf "Config.domains = %d accepted" domains
      | exception Failure _ -> ())
    [ 0; 2; 4 ];
  check Alcotest.bool "a platform is deterministic" true
    (Platform.exec_mode (Platform.create ()) = Exec.Deterministic)

(* {2 Domain-safe observability} *)

let test_metrics_concurrent_counters () =
  let registry = Metrics.create () in
  let c = Metrics.counter registry "test.hits" in
  let g = Metrics.gauge registry "test.level" in
  let workers =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Metrics.incr c
            done;
            Metrics.set_gauge g (float_of_int d)))
  in
  Array.iter Domain.join workers;
  check Alcotest.int "no lost increments" 4000 (Metrics.counter_value c);
  check Alcotest.bool "gauge holds one of the writes" true
    (let v = Metrics.gauge_value g in
     v >= 0. && v <= 3.)

let test_trace_merges_domain_stores () =
  let tracer = Trace.create () in
  Trace.install tracer;
  Fun.protect
    ~finally:(fun () -> Trace.uninstall ())
    (fun () ->
      let per_domain = 50 in
      let workers =
        Array.init 3 (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to per_domain - 1 do
                  ignore
                    (Trace.emit ~track:(d + 1) ~cat:Trace.Other
                       ~name:(Printf.sprintf "d%d" d)
                       ~start_ns:(float_of_int i) ~dur_ns:1. ())
                done))
      in
      (* The submitting domain records too. *)
      for i = 0 to per_domain - 1 do
        ignore (Trace.emit ~cat:Trace.Other ~name:"main" ~start_ns:(float_of_int i)
                  ~dur_ns:1. ())
      done;
      Array.iter Domain.join workers;
      check Alcotest.int "all stores merged at export" (4 * per_domain)
        (Trace.span_count tracer);
      check Alcotest.int "nothing dropped" 0 (Trace.dropped tracer);
      (* The export path sees every domain's spans. *)
      let names =
        Trace.spans tracer
        |> List.map (fun s -> s.Trace.name)
        |> List.sort_uniq compare
      in
      check Alcotest.(list string) "every domain represented"
        [ "d0"; "d1"; "d2"; "main" ] names)

(* {2 One platform per domain} *)

(* The headline property: each sweep point builds and drives its own
   platform, so running the points on two domains returns exactly the
   values the sequential sweep returns — modelled timings, verdicts
   and counters included. *)
let test_fanout_equals_sequential () =
  let pool = Pool.shared ~domains:2 in
  let same name f xs =
    check Alcotest.bool name true
      (Array.to_list (Pool.map pool f (Array.of_list xs)) = List.map f xs)
  in
  same "scale points"
    (fun (cs_cores, shards, batch, ops) ->
      Scale.run_point ~seed:(Int64.of_int (0x9A11E7 + ops)) ~cs_cores ~shards ~batch ~ops ())
    [ (1, 1, 1, 8); (2, 2, 2, 16); (4, 4, 4, 24); (3, 2, 4, 12) ];
  let spec = { Tenants.default_spec with Tenants.tenants = 4; images = 4 } in
  same "cloud closed loop at 1/2/4 shards"
    (fun shards ->
      Cloud.run_closed ~seed:0xFA40L ~spec ~shards ~tenants:(2 * shards) ~sessions_per_tenant:2 ())
    [ 1; 2; 4 ];
  same "chaos fault rates"
    (fun fault_rate -> Chaos.run_point ~seed:0xFA41L ~fault_rate ~ops:60)
    Chaos.default_rates

(* Batched traffic across a full kill/recover cycle of every shard:
   the surviving shards' doorbells drain while one shard is down,
   recovery brings the fleet back, and the deep invariant sweep at
   the end is clean. *)
let test_parallel_batch_survives_restarts () =
  let shards = 4 in
  let config = { Config.default with Config.ems_shards = shards } in
  let platform = Platform.create ~seed:0xBA7C4L ~config () in
  let enclaves =
    List.filter_map
      (fun r ->
        match r with
        | Ok (Types.Ok_created { enclave }, _) -> Some enclave
        | _ -> None)
      (Platform.invoke_batch platform
         (List.init 8 (fun _ ->
              (Emcall.Os_kernel, Types.Create { config = Types.default_config }))))
  in
  check Alcotest.int "fleet created in one batch" 8 (List.length enclaves);
  for victim = 0 to shards - 1 do
    Platform.kill_shard platform victim;
    (* Traffic for the survivors is still served. *)
    let alive =
      List.filter (fun id -> Platform.shard_of_enclave platform id <> victim) enclaves
    in
    let results =
      Platform.invoke_batch platform
        (List.map (fun id -> (Emcall.User_host, Types.Alloc { enclave = id; pages = 1 })) alive)
    in
    List.iter
      (fun r ->
        match r with
        | Ok (Types.Ok_alloc _, _) -> ()
        | _ -> Alcotest.fail "surviving shard failed during outage")
      results;
    let recovery = Platform.recover_shard platform victim in
    check Alcotest.int
      (Printf.sprintf "shard %d replay clean" victim)
      0 recovery.Platform.mismatches;
    (* Full-fleet batch after recovery: everyone answers. *)
    let results =
      Platform.invoke_batch platform
        (List.map
           (fun id -> (Emcall.User_host, Types.Alloc { enclave = id; pages = 1 }))
           enclaves)
    in
    List.iter
      (fun r ->
        match r with
        | Ok (Types.Ok_alloc _, _) -> ()
        | _ -> Alcotest.fail "post-recovery batch failed")
      results
  done;
  let report = Platform.check ~deep:true platform in
  check Alcotest.bool "deep invariant sweep clean" true (Invariant.ok report)

(* Two platforms on two domains, each launching and destroying its
   own distinct images: every EADD must stage, measure and encrypt its
   page in scratch that no other domain's EADD touches. *)
let test_eadd_staging_per_domain () =
  let launches d () =
    let platform = Platform.create ~seed:(Int64.of_int (0xEADD + d)) () in
    let failures = ref 0 in
    for i = 0 to 39 do
      let code = Bytes.make 4096 (Char.chr ((d * 64) + i)) in
      let image = Sdk.image_of_code ~code ~data:(Bytes.of_string (Printf.sprintf "d%d-%d" d i)) () in
      match Sdk.launch platform image with
      | Ok enclave -> ignore (Sdk.destroy platform ~enclave)
      | Error _ -> incr failures
    done;
    !failures
  in
  let workers = Array.init 2 (fun d -> Domain.spawn (launches d)) in
  check Alcotest.(array int) "no launch failures on either domain" [| 0; 0 |]
    (Array.map Domain.join workers)

let suite =
  [
    ( "parallel.pool",
      [
        Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
        Alcotest.test_case "exceptions propagate after barrier" `Quick
          test_pool_exception_propagates;
        Alcotest.test_case "nested submission runs inline" `Quick test_pool_nested_inline;
        Alcotest.test_case "single-domain pool is sequential" `Quick
          test_pool_sequential_degenerate;
      ] );
    ( "parallel.exec",
      [
        Alcotest.test_case "mode parsing and resolution" `Quick test_exec_strings;
        Alcotest.test_case "platform rejects domains <> 1" `Quick test_platform_rejects_domains;
      ] );
    ( "parallel.obs",
      [
        Alcotest.test_case "counters survive domain contention" `Quick
          test_metrics_concurrent_counters;
        Alcotest.test_case "trace merges per-domain stores" `Quick
          test_trace_merges_domain_stores;
      ] );
    ( "parallel.equivalence",
      [
        Alcotest.test_case "platforms fanned over domains == List.map" `Quick
          test_fanout_equals_sequential;
        Alcotest.test_case "batched traffic across shard restarts" `Quick
          test_parallel_batch_survives_restarts;
        Alcotest.test_case "EADD staging is per-domain" `Quick test_eadd_staging_per_domain;
      ] );
  ]
