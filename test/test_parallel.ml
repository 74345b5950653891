(* Tests for the domain-parallel execution machinery: the worker
   pool, the execution-mode switch, the MEE bulk pipelines,
   domain-safe observability, and — the headline
   property — that Parallel mode is observationally identical to
   Deterministic mode at the same seed. *)

open Hypertee
module Pool = Hypertee_util.Domain_pool
module Exec = Hypertee_sim.Exec
module Mee = Hypertee_arch.Mem_encryption
module Phys_mem = Hypertee_arch.Phys_mem
module Config = Hypertee_arch.Config
module Metrics = Hypertee_obs.Metrics
module Trace = Hypertee_obs.Trace
module Scale = Hypertee_experiments.Scale
module Chaos = Hypertee_experiments.Chaos
module Types = Hypertee_ems.Types
module Emcall = Hypertee_cs.Emcall
module Invariant = Hypertee_check.Invariant

let check = Alcotest.check
let prop = QCheck_alcotest.to_alcotest ~speed_level:`Quick

(* {2 Domain pool} *)

let with_pool domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_pool_map_order () =
  with_pool 4 (fun pool ->
      let xs = Array.init 257 Fun.id in
      let ys = Pool.map pool (fun x -> (x * 2) + 1) xs in
      check Alcotest.(array int) "order and values preserved"
        (Array.map (fun x -> (x * 2) + 1) xs)
        ys;
      check Alcotest.int "size includes submitter" 4 (Pool.size pool))

let test_pool_exception_propagates () =
  with_pool 3 (fun pool ->
      let ran = Atomic.make 0 in
      let jobs =
        Array.init 8 (fun i () ->
            Atomic.incr ran;
            if i = 5 then failwith "job 5 exploded")
      in
      (try
         Pool.run_all pool jobs;
         Alcotest.fail "exception was swallowed"
       with Failure m -> check Alcotest.string "original exception" "job 5 exploded" m);
      (* The barrier still waited for every job, failure included. *)
      check Alcotest.int "all jobs ran before re-raise" 8 (Atomic.get ran))

let test_pool_nested_inline () =
  with_pool 4 (fun pool ->
      let inner_total = Atomic.make 0 in
      let jobs =
        Array.init 4 (fun _ () ->
            (* A job submitting to its own pool must not deadlock: the
               nested batch runs inline on this worker. *)
            Pool.run_all pool (Array.init 3 (fun _ () -> Atomic.incr inner_total)))
      in
      Pool.run_all pool jobs;
      check Alcotest.int "nested jobs all ran" 12 (Atomic.get inner_total))

let test_pool_sequential_degenerate () =
  with_pool 1 (fun pool ->
      check Alcotest.int "no workers" 1 (Pool.size pool);
      (* Inline execution is strictly submission-ordered. *)
      let log = ref [] in
      Pool.run_all pool (Array.init 5 (fun i () -> log := i :: !log));
      check Alcotest.(list int) "submission order" [ 4; 3; 2; 1; 0 ] !log)

let test_pool_usable_after_shutdown () =
  let pool = Pool.create ~domains:4 in
  Pool.shutdown pool;
  let hits = Atomic.make 0 in
  Pool.run_all pool (Array.init 6 (fun _ () -> Atomic.incr hits));
  check Alcotest.int "submitter drains everything itself" 6 (Atomic.get hits)

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
  check Alcotest.int "deterministic is one domain" 1 (Exec.domains Exec.Deterministic);
  check Alcotest.int "parallel carries its width" 3
    (Exec.domains (Exec.Parallel { domains = 3 }));
  (* resolve honours the request when the environment is silent; under
     the HYPERTEE_EXEC matrix the override wins by design. *)
  match Sys.getenv_opt Exec.env_var with
  | None ->
    check Alcotest.bool "request honoured" true
      (Exec.resolve ~requested:Exec.Deterministic = Exec.Deterministic)
  | Some s ->
    check Alcotest.bool "env override wins" true
      (Exec.resolve ~requested:Exec.Deterministic = Option.get (Exec.of_string s))

(* {2 MEE bulk pipelines} *)

let page_of i = Bytes.init 4096 (fun j -> Char.chr ((i + (7 * j)) land 0xff))

let test_mee_bulk_matches_scalar () =
  let key = Bytes.init 16 (fun i -> Char.chr (0x40 + i)) in
  let mk () =
    let mee = Mee.create ~slots:4 () in
    Mee.program mee ~key_id:1 key;
    (mee, Phys_mem.create ~frames:8)
  in
  let mee_par, mem_par = mk () in
  let mee_seq, mem_seq = mk () in
  with_pool 4 (fun pool ->
      Mee.set_pool mee_par pool;
      let pages = Array.init 6 (fun i -> (i, page_of i)) in
      Mee.write_pages mee_par mem_par ~key_id:1 pages;
      Array.iter (fun (frame, data) -> Mee.write_page mee_seq mem_seq ~key_id:1 ~frame data)
        pages;
      for frame = 0 to 5 do
        check Alcotest.bytes
          (Printf.sprintf "frame %d ciphertext identical" frame)
          (Phys_mem.read mem_seq ~frame)
          (Phys_mem.read mem_par ~frame)
      done;
      let back = Mee.read_pages mee_par mem_par ~key_id:1 (Array.init 6 Fun.id) in
      Array.iteri
        (fun i plain ->
          check Alcotest.bytes (Printf.sprintf "page %d round trip" i) (page_of i) plain)
        back)

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

(* {2 Mode equivalence at the platform level} *)

(* The tentpole property: a scale-sweep point run with a parallel
   platform (4 domains fanning per-shard doorbell drains and MEE
   pipelines) is indistinguishable from the deterministic reference —
   same responses, same modelled timings, and a clean invariant sweep
   at the end. *)
let scale_equivalence_prop =
  QCheck.Test.make ~name:"Scale point: Parallel(4) == Deterministic" ~count:6
    QCheck.(
      tup4 (int_range 1 4) (int_range 1 4) (int_range 1 4) (int_range 4 24))
    (fun (cs_cores, shards, batch, ops) ->
      let seed = Int64.of_int (0x9A11E7 + (cs_cores * 1009) + (shards * 131) + ops) in
      let reference = Scale.run_point ~seed ~cs_cores ~shards ~batch ~ops () in
      let parallel = Scale.run_point ~seed ~domains:4 ~cs_cores ~shards ~batch ~ops () in
      reference.Scale.invariant_violations = 0
      && parallel.Scale.invariant_violations = 0
      && reference = parallel)

let test_rolling_restart_parallel () =
  let report = Chaos.rolling_restart ~seed:0xD0A1A5L ~ops:90 ~shards:3 ~domains:4 () in
  check Alcotest.bool "parallel rolling restart clean" true (Chaos.restart_clean report)

(* Batched traffic through a parallel platform across a full
   kill/recover cycle of every shard: the pool fans the surviving
   shards' doorbell drains while one shard is down, recovery brings
   the fleet back, and the deep invariant sweep at the end is clean. *)
let test_parallel_batch_survives_restarts () =
  let shards = 4 in
  let config = { Config.default with Config.ems_shards = shards; Config.domains = 4 } in
  let platform = Platform.create ~seed:0xBA7C4L ~config () in
  Fun.protect
    ~finally:(fun () -> Platform.shutdown platform)
    (fun () ->
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
        (* Traffic for the survivors still fans out concurrently. *)
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
      check Alcotest.bool "deep invariant sweep clean" true (Invariant.ok report))

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
        Alcotest.test_case "usable after shutdown" `Quick test_pool_usable_after_shutdown;
      ] );
    ( "parallel.exec",
      [ Alcotest.test_case "mode parsing and resolution" `Quick test_exec_strings ] );
    ( "parallel.mee",
      [ Alcotest.test_case "bulk pipeline == scalar loop" `Quick test_mee_bulk_matches_scalar ] );
    ( "parallel.obs",
      [
        Alcotest.test_case "counters survive domain contention" `Quick
          test_metrics_concurrent_counters;
        Alcotest.test_case "trace merges per-domain stores" `Quick
          test_trace_merges_domain_stores;
      ] );
    ( "parallel.equivalence",
      [
        prop scale_equivalence_prop;
        Alcotest.test_case "rolling restart under parallel mode" `Quick
          test_rolling_restart_parallel;
        Alcotest.test_case "batched traffic across shard restarts" `Quick
          test_parallel_batch_survives_restarts;
      ] );
  ]
