module Platform = Hypertee.Platform
module Emcall = Hypertee_cs.Emcall
module Types = Hypertee_ems.Types
module Config = Hypertee_arch.Config
module Cost = Hypertee_ems.Cost

type point = {
  cs_cores : int;
  shards : int;
  batch : int;
  ops : int;
  ok : int;
  overhead_ns : float;
  mean_latency_ns : float;
  ems_busy_ns : float;
  throughput_mops : float;
  invariant_violations : int;
}

let default_batches = [ 1; 2; 4; 8; 16 ]
let default_shards = [ 1; 2; 4; 8 ]
let default_ops = 256

(* One grid point: a fresh platform with [shards] EMS instances and
   one enclave per CS core; [ops] EALLOC primitives issued in groups
   of [batch], spread round-robin over the enclaves (i.e. over the
   CS cores), each group delivered through one [Platform.invoke_batch]
   doorbell round. *)
let run_point ~seed ?(domains = 1) ~cs_cores ~shards ~batch ~ops () =
  if cs_cores < 1 || shards < 1 || batch < 1 || ops < 1 then
    invalid_arg "Scale.run_point: all parameters must be >= 1";
  let config = { Config.default with Config.cs_cores; ems_shards = shards; domains } in
  let platform = Platform.create ~seed ~config () in
  (* Fleet setup: ECREATE round-robins across shards inside the gate,
     and each shard assigns ids from its own residue class, so the
     fleet lands evenly. *)
  let enclaves =
    List.filter_map
      (fun _ ->
        match
          Platform.invoke platform ~caller:Emcall.Os_kernel
            (Types.Create { config = Types.default_config })
        with
        | Ok (Types.Ok_created { enclave }) -> Some enclave
        | _ -> None)
      (List.init cs_cores Fun.id)
  in
  let fleet = Array.of_list enclaves in
  if Array.length fleet = 0 then failwith "Scale.run_point: no enclave could be created";
  let alloc_request i =
    (Emcall.User_host, Types.Alloc { enclave = fleet.(i mod Array.length fleet); pages = 1 })
  in
  (* The EMS-side makespan model: within one doorbell round each
     shard serves its slice of the batch back-to-back and pays the
     shared transport round (fabric hops + doorbell + watchdog
     sweep) once; shards run in parallel, so the round costs the
     *maximum* shard busy time. Aggregate throughput is served
     primitives over the summed round makespans. *)
  let shared_ns = Config.doorbell_shared_ns config.Config.transport in
  let service_ns request = Cost.service_ns (Platform.Internals.cost platform) request in
  let ok = ref 0 in
  let latency_sum = ref 0.0 in
  let busy_ns = ref 0.0 in
  let issued = ref 0 in
  while !issued < ops do
    let k = Stdlib.min batch (ops - !issued) in
    let requests = List.init k (fun j -> alloc_request (!issued + j)) in
    let per_shard = Array.make shards 0.0 in
    List.iter
      (fun (_, request) ->
        let s =
          match request with
          | Types.Alloc { enclave; _ } -> Platform.shard_of_enclave platform enclave
          | _ -> 0
        in
        per_shard.(s) <- per_shard.(s) +. service_ns request)
      requests;
    let round_ns =
      Array.fold_left
        (fun acc busy -> if busy > 0.0 then Stdlib.max acc (busy +. shared_ns) else acc)
        0.0 per_shard
    in
    busy_ns := !busy_ns +. round_ns;
    List.iter
      (function
        | Ok (Types.Err _, _) | Error _ -> ()
        | Ok (_, latency) ->
          incr ok;
          latency_sum := !latency_sum +. latency)
      (Platform.invoke_batch platform requests);
    issued := !issued + k
  done;
  let invariant_violations =
    List.length (Platform.check platform).Hypertee_check.Invariant.violations
  in
  let overhead_ns = Platform.batch_overhead_ns platform ~batch in
  Platform.shutdown platform;
  {
    cs_cores;
    shards;
    batch;
    ops;
    ok = !ok;
    overhead_ns;
    mean_latency_ns = (if !ok = 0 then 0.0 else !latency_sum /. float_of_int !ok);
    ems_busy_ns = !busy_ns;
    throughput_mops =
      (if !busy_ns <= 0.0 then 0.0 else float_of_int !ok /. (!busy_ns /. 1e3));
    invariant_violations;
  }

(* The two published sweeps: batching amortization at one shard, and
   shard scaling at a fixed batch size. *)
let batch_sweep ~seed ?(domains = 1) ?(cs_cores = 8) ?(ops = default_ops) () =
  List.map
    (fun batch -> run_point ~seed ~domains ~cs_cores ~shards:1 ~batch ~ops ())
    default_batches

let shard_sweep ~seed ?(domains = 1) ?(cs_cores = 8) ?(batch = 8) ?(ops = default_ops) () =
  List.map
    (fun shards -> run_point ~seed ~domains ~cs_cores ~shards ~batch ~ops ())
    default_shards

let run ~seed ?(domains = 1) ?(ops = default_ops) () =
  (batch_sweep ~seed ~domains ~ops (), shard_sweep ~seed ~domains ~ops ())

let point_row p =
  [
    string_of_int p.cs_cores;
    string_of_int p.shards;
    string_of_int p.batch;
    Printf.sprintf "%d/%d" p.ok p.ops;
    Hypertee_util.Table.fmt_f ~digits:1 p.overhead_ns;
    Hypertee_util.Table.fmt_f ~digits:2 (p.mean_latency_ns /. 1e3);
    Hypertee_util.Table.fmt_f ~digits:3 p.throughput_mops;
    string_of_int p.invariant_violations;
  ]

let headers =
  [ "CS cores"; "shards"; "batch"; "served"; "gate+transport (ns/call)"; "mean rtt (us)";
    "Mops/s"; "inv" ]

let aligns = Hypertee_util.Table.[ Right; Right; Right; Right; Right; Right; Right; Right ]

let print ?out (batch_points, shard_points) =
  let say fmt =
    match out with
    | None -> Printf.printf fmt
    | Some ch -> Printf.fprintf ch fmt
  in
  say "batching amortization (1 shard): shared doorbell round splits over the batch\n";
  Hypertee_util.Table.print ?out ~headers ~aligns (List.map point_row batch_points);
  say "EMS shard scaling (batch=8): affinity-routed shards serve in parallel\n";
  Hypertee_util.Table.print ?out ~headers ~aligns (List.map point_row shard_points)

(* --- hot-shard rebalancing via live migration --- *)

type rebalance_report = {
  shards : int;
  fleet : int;
  migrated : int;
  migration_failures : int;
  rebalance_ops : int;
  busy_before_ns : float;
  busy_after_ns : float;
  speedup : float;
  hot_share_before : float;
  hot_share_after : float;
  rebalance_violations : int;
}

let rebalance ?(seed = 0x5EBA1A4CEL) ?(batch = 8) ?(ops = 192) () =
  if batch < 1 || ops < 1 then invalid_arg "Scale.rebalance: batch and ops must be >= 1";
  let shards = 4 in
  let config = { Config.default with Config.cs_cores = 8; ems_shards = shards } in
  let platform = Platform.create ~seed ~config () in
  let invoke caller request = Platform.invoke platform ~caller request in
  (* Build the skew: spawn a fleet across all shards, then destroy
     everything not homed on shard 0, leaving one hot shard serving
     the whole population while three shards idle. *)
  let created =
    List.filter_map
      (fun _ ->
        match invoke Emcall.Os_kernel (Types.Create { config = Types.default_config }) with
        | Ok (Types.Ok_created { enclave }) -> Some enclave
        | _ -> None)
      (List.init (8 * shards) Fun.id)
  in
  let kept, extra =
    List.partition (fun e -> Platform.shard_of_enclave platform e = 0) created
  in
  List.iter (fun e -> ignore (invoke Emcall.Os_kernel (Types.Destroy { enclave = e }))) extra;
  (* One measured page each: migration requires a finalized identity. *)
  let page = Bytes.make Hypertee_util.Units.page_size '\x5a' in
  List.iter
    (fun e ->
      ignore
        (invoke Emcall.Os_kernel
           (Types.Add { enclave = e; vpn = 0x100; data = page; executable = false }));
      ignore (invoke Emcall.Os_kernel (Types.Measure { enclave = e })))
    kept;
  let fleet = Array.of_list kept in
  if Array.length fleet < 2 then failwith "Scale.rebalance: hot shard fleet too small";
  (* Same makespan model as [run_point]: per doorbell round each
     involved shard pays its busy slice plus the shared transport
     round, rounds cost the maximum over shards. The per-shard busy
     attribution goes through [Platform.shard_of_enclave], which
     follows migration route overrides — so the "after" pass sees the
     rebalanced placement with no further plumbing. *)
  let shared_ns = Config.doorbell_shared_ns config.Config.transport in
  let service_ns request = Cost.service_ns (Platform.Internals.cost platform) request in
  let measure_pass () =
    let per_shard_total = Array.make shards 0.0 in
    let busy = ref 0.0 in
    let issued = ref 0 in
    while !issued < ops do
      let k = Stdlib.min batch (ops - !issued) in
      let requests =
        List.init k (fun j ->
            let e = fleet.((!issued + j) mod Array.length fleet) in
            (Emcall.User_enclave e, Types.Alloc { enclave = e; pages = 1 }))
      in
      let per_shard = Array.make shards 0.0 in
      List.iter
        (fun (_, request) ->
          let s =
            match request with
            | Types.Alloc { enclave; _ } -> Platform.shard_of_enclave platform enclave
            | _ -> 0
          in
          per_shard.(s) <- per_shard.(s) +. service_ns request)
        requests;
      Array.iteri (fun s b -> per_shard_total.(s) <- per_shard_total.(s) +. b) per_shard;
      let round_ns =
        Array.fold_left
          (fun acc b -> if b > 0.0 then Stdlib.max acc (b +. shared_ns) else acc)
          0.0 per_shard
      in
      busy := !busy +. round_ns;
      List.iter (fun r -> ignore r) (Platform.invoke_batch platform requests);
      issued := !issued + k
    done;
    let total = Array.fold_left ( +. ) 0.0 per_shard_total in
    let hottest = Array.fold_left Stdlib.max 0.0 per_shard_total in
    (!busy, if total <= 0.0 then 0.0 else hottest /. total)
  in
  let busy_before_ns, hot_share_before = measure_pass () in
  (* Spread three quarters of the hot fleet over the idle shards, two
     per shard, keeping ids (live migration, not re-creation). *)
  let to_move = Array.length fleet - (Array.length fleet / 4) in
  let migrated = ref 0 in
  let failures = ref 0 in
  Array.iteri
    (fun i e ->
      if i < to_move then
        match Platform.migrate platform ~enclave:e ~target:(1 + (i mod (shards - 1))) with
        | Platform.Migrated -> incr migrated
        | Platform.Migration_aborted _ | Platform.Migration_crashed _ -> incr failures)
    fleet;
  let busy_after_ns, hot_share_after = measure_pass () in
  {
    shards;
    fleet = Array.length fleet;
    migrated = !migrated;
    migration_failures = !failures;
    rebalance_ops = ops;
    busy_before_ns;
    busy_after_ns;
    speedup = (if busy_after_ns <= 0.0 then 0.0 else busy_before_ns /. busy_after_ns);
    hot_share_before;
    hot_share_after;
    rebalance_violations =
      List.length (Platform.check platform).Hypertee_check.Invariant.violations;
  }

let print_rebalance ?out r =
  let say fmt =
    match out with
    | None -> Printf.printf fmt
    | Some ch -> Printf.fprintf ch fmt
  in
  say
    "hot-shard rebalancing: %d enclaves on shard 0 of %d, %d live-migrated out (%d failed)\n"
    r.fleet r.shards r.migrated r.migration_failures;
  let row label busy share =
    [ label;
      Hypertee_util.Table.fmt_f ~digits:1 (busy /. 1e3);
      Hypertee_util.Table.fmt_f ~digits:2 (100.0 *. share) ]
  in
  Hypertee_util.Table.print ?out
    ~headers:[ "placement"; "makespan (us)"; "hot-shard share (%)" ]
    ~aligns:Hypertee_util.Table.[ Left; Right; Right ]
    [
      row "before" r.busy_before_ns r.hot_share_before;
      row "after" r.busy_after_ns r.hot_share_after;
    ];
  say "rebalance speedup: %.2fx, invariant violations: %d\n" r.speedup
    r.rebalance_violations
