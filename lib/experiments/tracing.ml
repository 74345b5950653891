module Trace = Hypertee_obs.Trace
module Metrics = Hypertee_obs.Metrics
module Platform = Hypertee.Platform
module Emcall = Hypertee_cs.Emcall
module Types = Hypertee_ems.Types
module Config = Hypertee_arch.Config

type target = Fig6 | Fig7 | Chaos | Scale | Channel

let target_names = [ "fig6"; "fig7"; "chaos"; "scale"; "channel" ]

let target_of_string s =
  match String.lowercase_ascii s with
  | "fig6" -> Some Fig6
  | "fig7" -> Some Fig7
  | "chaos" -> Some Chaos
  | "scale" -> Some Scale
  | "channel" -> Some Channel
  | _ -> None

let target_name = function
  | Fig6 -> "fig6"
  | Fig7 -> "fig7"
  | Chaos -> "chaos"
  | Scale -> "scale"
  | Channel -> "channel"

(* Traced workload sizes: big enough for a structured timeline, small
   enough that the JSON stays loadable in a browser tab. *)
let fig6_requests ~quick = if quick then 512 else 4096
let chaos_ops ~quick = if quick then 300 else 2000
let scale_ops ~quick = if quick then 64 else 256
let fig7_cap ~quick = if quick then 8 else 64
let channel_messages ~quick = if quick then 40 else 400

(* Fig. 7 itself is analytic (the perf model attributes overhead per
   workload); its traced counterpart replays each rv8 profile's
   enclave primitive sequence — create, page loads, measurement,
   the profile's EALLOC traffic, teardown — through the real
   platform, so the trace shows the same primitives the figure
   charges for. [cap] bounds per-profile page loads and allocs. *)
let run_fig7 ~seed ~cap =
  let module Profile = Hypertee_workloads.Profile in
  let platform = Platform.create ~seed () in
  List.iter
    (fun p ->
      match
        Platform.invoke platform ~caller:Emcall.Os_kernel
          (Types.Create { config = Profile.enclave_config p })
      with
      | Ok (Types.Ok_created { enclave }) ->
        let data = Bytes.make 64 'w' in
        for i = 0 to Stdlib.min cap (Profile.load_pages p) - 1 do
          ignore
            (Platform.invoke platform ~caller:Emcall.Os_kernel
               (Types.Add { enclave; vpn = 0x100 + i; data; executable = i < 2 }))
        done;
        ignore
          (Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Measure { enclave }));
        List.iter
          (fun (pages, times) ->
            for _ = 1 to Stdlib.min cap times do
              ignore
                (Platform.invoke platform ~caller:Emcall.User_host
                   (Types.Alloc { enclave; pages }))
            done)
          p.Profile.dynamic_allocs;
        ignore
          (Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Destroy { enclave }))
      | _ -> ())
    Hypertee_workloads.Rv8.suite;
  (* The traced workload must leave a consistent platform behind. *)
  let report = Platform.check platform in
  if not (Hypertee_check.Invariant.ok report) then
    failwith ("Tracing.run_fig7: " ^ Hypertee_check.Invariant.report_to_string report)

(* Traced attested-channel session (docs/PROTOCOL.md): a host client
   ECHOPENs to a measured enclave on a two-shard platform, runs the
   three-flight handshake, streams [messages] records with rekeys
   along the way, and closes. The trace shows the handshake flights
   ("chan:hs:*" markers on the channel category) interleaved with the
   gate and EMS spans serving them. *)
let run_channel ~seed ~messages =
  let module Secure_channel = Hypertee.Secure_channel in
  let config = { Config.default with Config.ems_shards = 2 } in
  let platform = Platform.create ~seed ~config () in
  let enclave =
    match
      Platform.invoke platform ~caller:Emcall.Os_kernel
        (Types.Create { config = Types.default_config })
    with
    | Ok (Types.Ok_created { enclave }) ->
      let data = Bytes.make 64 's' in
      for i = 0 to 3 do
        ignore
          (Platform.invoke platform ~caller:Emcall.Os_kernel
             (Types.Add { enclave; vpn = 0x100 + i; data; executable = i < 2 }))
      done;
      ignore (Platform.invoke platform ~caller:Emcall.Os_kernel (Types.Measure { enclave }));
      enclave
    | _ -> failwith "Tracing.run_channel: enclave setup failed"
  in
  (match Secure_channel.establish platform ~listener:enclave ~rekey_after:32 () with
  | Error e -> failwith ("Tracing.run_channel: " ^ e)
  | Ok (client, server) ->
    for i = 1 to messages do
      let payload = Bytes.make (64 + (i mod 512)) (Char.chr (0x40 + (i mod 26))) in
      (match Secure_channel.send client payload with
      | Ok () -> ()
      | Error e -> failwith ("Tracing.run_channel: send: " ^ e));
      match Secure_channel.recv server with
      | Ok _ -> ()
      | Error e -> failwith ("Tracing.run_channel: recv: " ^ e)
    done;
    (match Secure_channel.close client with
    | Ok () -> ()
    | Error e -> failwith ("Tracing.run_channel: close: " ^ e));
    ignore (Secure_channel.recv server);
    ignore (Secure_channel.close server));
  let report = Platform.check platform in
  if not (Hypertee_check.Invariant.ok report) then
    failwith ("Tracing.run_channel: " ^ Hypertee_check.Invariant.report_to_string report)

let run_target ~seed ~quick = function
  | Fig6 ->
    ignore
      (Fig6.run ~seed ~cs_cores:4 ~ems_cores:2 ~ems_kind:Config.Medium
         ~requests:(fig6_requests ~quick))
  | Fig7 -> run_fig7 ~seed ~cap:(fig7_cap ~quick)
  | Chaos ->
    ignore (Chaos.run_point ~seed ~fault_rate:0.05 ~ops:(chaos_ops ~quick))
  | Scale ->
    ignore (Scale.run_point ~seed ~cs_cores:4 ~shards:2 ~batch:4 ~ops:(scale_ops ~quick) ())
  | Channel -> run_channel ~seed ~messages:(channel_messages ~quick)

let run ?(out = stdout) ?(quick = false) ?(seed = 0x7ACEL) ?(path = "trace.json") target =
  let tracer = Trace.create () in
  Trace.install tracer;
  Fun.protect
    ~finally:(fun () -> Trace.uninstall ())
    (fun () -> run_target ~seed ~quick target);
  Trace.write_chrome_json tracer ~path;
  Printf.fprintf out "traced %s (seed=%Ld%s): %d span(s), %d dropped -> %s\n"
    (target_name target) seed
    (if quick then ", quick" else "")
    (Trace.span_count tracer) (Trace.dropped tracer) path;
  output_string out (Trace.render_summary tracer);
  tracer

(* A mixed management workload against a sharded platform, reported
   through the metrics registry: the one-stop "what did the platform
   do" view (every subsystem publishes under its prefix). *)
let metrics ?(out = stdout) ~seed ~ops () =
  let config = { Config.default with Config.ems_shards = 2 } in
  let platform = Platform.create ~seed ~config () in
  let enclaves =
    List.filter_map
      (fun _ ->
        match
          Platform.invoke platform ~caller:Emcall.Os_kernel
            (Types.Create { config = Types.default_config })
        with
        | Ok (Types.Ok_created { enclave }) -> Some enclave
        | _ -> None)
      (List.init 4 Fun.id)
  in
  let fleet = Array.of_list enclaves in
  let n = Array.length fleet in
  if n = 0 then failwith "Tracing.metrics: no enclave could be created";
  let latencies = Hypertee_util.Stats.create () in
  for i = 0 to ops - 1 do
    let enclave = fleet.(i mod n) in
    let caller, request =
      match i mod 5 with
      | 0 | 1 -> (Emcall.User_host, Types.Alloc { enclave; pages = 2 })
      | 2 -> (Emcall.Os_kernel, Types.Measure { enclave })
      | 3 -> (Emcall.User_enclave enclave, Types.Attest { enclave; user_data = Bytes.empty })
      | _ -> (Emcall.Os_kernel, Types.Writeback { pages_hint = 4 })
    in
    match Platform.invoke_timed platform ~caller request with
    | Ok (_, latency) -> Hypertee_util.Stats.add latencies latency
    | Error _ -> ()
  done;
  let registry = Metrics.create () in
  Platform.publish_metrics platform registry;
  let h = Metrics.histogram registry ~help:"modelled EMCall round trips (ns)" "emcall.latency_ns" in
  Array.iter (Metrics.observe h) (Hypertee_util.Stats.samples latencies);
  Printf.fprintf out "platform metrics after %d mixed primitives on %d shard(s), seed=%Ld\n"
    ops (Platform.shard_count platform) seed;
  output_string out (Metrics.render registry);
  let report = Platform.check platform in
  if not (Hypertee_check.Invariant.ok report) then
    failwith ("Tracing.metrics: " ^ Hypertee_check.Invariant.report_to_string report);
  registry
