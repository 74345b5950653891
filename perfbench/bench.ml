(* The three workloads, their passes, and the metrics they report.

   A run sets the platform up, runs one full deterministic pass, then
   repeats the pass on fresh platforms until the host budget is spent
   (those passes stop admitting sessions at the deadline). Modelled
   metrics come from the first pass; host throughput comes from
   fixed-size slices of every pass. A traced run instead runs one
   untraced and one traced full pass: the traced one gives the
   per-layer metrics, the pair gives the tracing overhead. *)

module Platform = Hypertee.Platform
module Config = Hypertee_arch.Config
module Oracle = Hypertee_check.Oracle
module Invariant = Hypertee_check.Invariant
module Metrics = Hypertee_obs.Metrics
module Exec = Hypertee_sim.Exec

type workload = Tenant_mix | Tenant_cold | Channel_echo

let workloads =
  [ ("tenant-mix", Tenant_mix); ("tenant-cold", Tenant_cold); ("channel-echo", Channel_echo) ]

let workload_name w = fst (List.find (fun (_, x) -> x = w) workloads)

(* --- workload definitions -------------------------------------------- *)

let config = { Config.default with Config.ems_shards = 2; domains = 1 }

(* The gate's token bucket, frozen for both tenant workloads: about 750
   warm sessions/s of 13 calls each. Its burst absorbs the call bursts
   a queue releases after a cold launch has held a shard. *)
let admission_rate = 9750.0
let admission_burst = 256

(* tenant-mix climbs from light load (the first two rungs fill the warm
   pool) through the nominal rung, where session latency is reported,
   into shedding. The top two rungs sit far enough above the bucket
   (20% and 60%) that its 256-token burst cannot hide their overload. *)
let mix_ladder =
  [
    (100.0, 200); (200.0, 300); (300.0, 4000); (400.0, 300); (500.0, 300); (600.0, 300);
    (900.0, 300); (1200.0, 300);
  ]

let mix_nominal = 2

(* tenant-cold offers about half the 2-shard cold capacity: a cold
   session holds its shard for ~8.2 ms (EATTEST's RSA signature is
   8.1 ms of it), so two shards serve ~240 cold sessions/s. *)
let cold_rate = 120.0
let cold_sessions = 2000

(* channel-echo: sessions cycle over 4 images; 80 messages of 1-6 KiB
   are ~330 records a direction, past the 256-record rekey. *)
let echo_images = 4
let echo_sessions = 48
let echo_messages = 80

(* 25 ms is about 3x one unloaded cold session. *)
let slo_limit_ns = 25e6

(* A rung's queues grow when its last third of sessions waited this
   much longer than its first third. *)
let growth_limit_ns = slo_limit_ns /. 5.0

(* Host slices: completed sessions per slice. *)
let slice = function Tenant_mix | Tenant_cold -> 50 | Channel_echo -> 4

(* --- set-up ------------------------------------------------------------ *)

type inputs = Open of Gen.session list | Closed of Gen.echo_session list

let generate workload ~seed =
  match workload with
  | Tenant_mix ->
    Open (Gen.open_loop ~seed ~popularity:(Gen.zipf_catalog ~images:4 ~s:1.1) ~ladder:mix_ladder)
  | Tenant_cold ->
    Open
      (Gen.open_loop ~seed ~popularity:(Gen.Distinct { catalog = seed })
         ~ladder:[ (cold_rate, cold_sessions) ])
  | Channel_echo ->
    Closed
      (Gen.echo_sessions ~seed ~catalog:(Gen.echo_catalog ~images:echo_images)
         ~sessions:echo_sessions ~messages:echo_messages)

(* Host time of one set-up: input generation, then platform creation. *)
type setup_time = { generate_ns : float; create_ns : float }

type setup = {
  inputs : inputs;
  platform : Platform.t;
  probe : Probe.t;
  oracle : Oracle.t;
  time : setup_time;
}

exception Incorrect of string

(* [inputs] replaces the generated ones (the self-tests run small
   workloads). *)
let setup ?inputs workload ~seed ~traced =
  let t0 = Probe.now_ns () in
  let inputs = match inputs with Some i -> i | None -> generate workload ~seed in
  let t1 = Probe.now_ns () in
  let platform = Platform.create ~seed ~config () in
  if Platform.exec_mode platform <> Exec.Deterministic then
    raise (Incorrect "the platform is not in deterministic single-domain mode");
  (match workload with
  | Tenant_mix | Tenant_cold ->
    Platform.set_admission platform ~rate_per_s:admission_rate ~burst:admission_burst
  | Channel_echo -> ());
  let probe = Probe.create ~traced ~cost:(Probe.cost_model config) in
  let oracle = Probe.attach probe platform in
  let t2 = Probe.now_ns () in
  { inputs; platform; probe; oracle; time = { generate_ns = t1 -. t0; create_ns = t2 -. t1 } }

(* --- one pass ------------------------------------------------------------ *)

type raw = Open_result of Tenant.result | Closed_result of Echo.result

type pass = {
  raw : raw;
  full : bool;  (** no session skipped by the deadline *)
  hash : string;  (** digest of the modelled per-session latency stream *)
  attempted : int;
  failed : int;
  host_ns : float;
  sweep_ns : float;
  counters : Metrics.t;
  probe : Probe.t;
}

(* Sessions whose latencies the session percentiles describe. *)
let measured_tenant workload (r : Tenant.result) =
  List.filter
    (fun (s : Tenant.session) ->
      s.Tenant.outcome = Tenant.Completed
      && (workload <> Tenant_mix || s.Tenant.gen.Gen.rung = mix_nominal))
    (Array.to_list r.Tenant.sessions)

let completed_echo (r : Echo.result) =
  List.filter
    (fun (s : Echo.session) -> s.Echo.outcome = `Completed)
    (Array.to_list r.Echo.sessions)

let echo_modelled_ns (r : Echo.result) =
  Array.fold_left (fun a (s : Echo.session) -> a +. s.Echo.modelled_ns) 0.0 r.Echo.sessions

let check_ledgers (r : Tenant.result) =
  Array.iter
    (fun (s : Tenant.session) ->
      if s.Tenant.outcome = Tenant.Completed then begin
        let l = Tenant.latency s and sum = Tenant.ledger_sum s.Tenant.ledger in
        if Float.abs (l -. sum) > 1e-6 *. Float.max 1.0 l then
          raise
            (Incorrect
               (Printf.sprintf "session %d: ledger parts sum to %.3f ns, latency is %.3f ns"
                  s.Tenant.gen.Gen.sid sum l))
      end)
    r.Tenant.sessions

(* One record per session (id, outcome, modelled latency), then the
   echo latencies; [outcome] returns the tag and whether the session
   failed, or [None] for one the deadline skipped. *)
let digest_sessions h ~id ~outcome ~latency sessions echoes =
  let full = ref true and attempted = ref 0 and failed = ref 0 in
  Array.iter
    (fun s ->
      Buffer.add_int32_le h (Int32.of_int (id s));
      match outcome s with
      | None ->
        full := false;
        Buffer.add_char h '-'
      | Some (tag, is_failure) ->
        incr attempted;
        if is_failure then incr failed;
        Buffer.add_char h tag;
        Buffer.add_int64_le h (Int64.bits_of_float (latency s)))
    sessions;
  Array.iter (fun x -> Buffer.add_int64_le h (Int64.bits_of_float x)) echoes;
  (!full, !attempted, !failed)

let run_pass workload (st : setup) ~deadline_ns =
  let probe = st.probe and slice = slice workload in
  let raw =
    match st.inputs with
    | Open arrivals ->
      Open_result
        (Tenant.run ~platform:st.platform ~probe ~admission_rate ~deadline_ns ~slice arrivals)
    | Closed plan -> Closed_result (Echo.run ~platform:st.platform ~probe ~deadline_ns ~slice plan)
  in
  let violation, host_ns =
    match raw with
    | Open_result r -> (r.Tenant.violation, r.Tenant.host_ns)
    | Closed_result r -> (r.Echo.violation, r.Echo.host_ns)
  in
  Option.iter (fun v -> raise (Incorrect v)) violation;
  let t0 = Probe.now_ns () in
  let report = Platform.check ~deep:true st.platform in
  let sweep_ns = Probe.now_ns () -. t0 in
  (match report.Invariant.violations with
  | [] -> ()
  | v :: _ as all ->
    raise
      (Incorrect
         (Format.asprintf "%d invariant violation(s), first: %a" (List.length all)
            Invariant.pp_violation v)));
  if Oracle.divergence_count st.oracle > 0 then
    raise (Incorrect ("differential oracle diverged: " ^ Oracle.summary st.oracle));
  let counters = Metrics.create () in
  Platform.publish_metrics st.platform counters;
  Platform.detach_oracle st.platform;
  Platform.shutdown st.platform;
  let h = Buffer.create 65536 in
  let full, attempted, failed =
    match raw with
    | Open_result r ->
      check_ledgers r;
      digest_sessions h r.Tenant.sessions r.Tenant.echoes
        ~id:(fun (s : Tenant.session) -> s.Tenant.gen.Gen.sid)
        ~latency:Tenant.latency
        ~outcome:(fun (s : Tenant.session) ->
          match s.Tenant.outcome with
          | Tenant.Skipped -> None
          | Tenant.Completed -> Some ('C', false)
          | Tenant.Shed -> Some ('S', true)
          | Tenant.Failed _ | Tenant.Pending -> Some ('F', true))
    | Closed_result r ->
      digest_sessions h r.Echo.sessions r.Echo.echoes
        ~id:(fun (s : Echo.session) -> s.Echo.gen.Gen.esid)
        ~latency:(fun (s : Echo.session) -> s.Echo.modelled_ns)
        ~outcome:(fun (s : Echo.session) ->
          match s.Echo.outcome with
          | `Skipped -> None
          | `Completed -> Some ('C', false)
          | `Failed _ -> Some ('F', true))
  in
  {
    raw;
    full;
    hash = Digest.to_hex (Digest.string (Buffer.contents h));
    attempted;
    failed;
    host_ns;
    sweep_ns;
    counters;
    probe;
  }

(* --- metrics ------------------------------------------------------------- *)

type metric = {
  name : string;
  value : float;
  unit : string;
  clock : string;  (** "modelled" (repeats exactly per seed) or "host" *)
  n : string;  (** the sample count behind the figure *)
}

let metric ?(n = "") name clock unit value = { name; value; unit; clock; n }
let median a = Probe.percentile (Probe.sorted_of_list (Array.to_list a)) 50.0
let ms ns = ns /. 1e6
let sum l = List.fold_left ( +. ) 0.0 l
let mean_of = function [] -> 0.0 | l -> sum l /. float_of_int (List.length l)
let per_call total calls = if calls = 0 then 0.0 else total /. float_of_int calls
let ratio a b = if b = 0.0 then 0.0 else a /. b

type rung = {
  rate : float;
  sessions : int;
  failed_sessions : int;
  p99_ns : float;  (** failed sessions rank as infinite *)
  growth_ns : float;  (** mean wait, last third minus first third *)
  passes : bool;
}

let rungs ~ladder (r : Tenant.result) =
  let completed (s : Tenant.session) = s.Tenant.outcome = Tenant.Completed in
  List.mapi
    (fun k (rate, _) ->
      let ss =
        List.filter
          (fun (s : Tenant.session) ->
            s.Tenant.gen.Gen.rung = k && s.Tenant.outcome <> Tenant.Skipped)
          (Array.to_list r.Tenant.sessions)
      in
      let n = List.length ss and third = List.length ss / 3 in
      let lat = List.map (fun s -> if completed s then Tenant.latency s else infinity) ss in
      let p99 = Probe.percentile (Probe.sorted_of_list lat) 99.0 in
      let wait l =
        mean_of
          (List.filter_map
             (fun s -> if completed s then Some s.Tenant.ledger.Tenant.wait_ns else None)
             l)
      in
      let growth =
        wait (List.filteri (fun i _ -> i >= n - third) ss)
        -. wait (List.filteri (fun i _ -> i < third) ss)
      in
      {
        rate;
        sessions = n;
        failed_sessions = List.length (List.filter (fun s -> not (completed s)) ss);
        p99_ns = p99;
        growth_ns = growth;
        passes = n > 0 && p99 <= slo_limit_ns && growth <= growth_limit_ns;
      })
    ladder

(* The highest ladder rate that met the limit without a growing queue. *)
let slo_rate rungs =
  List.fold_left (fun acc r -> if r.passes then Float.max acc r.rate else acc) 0.0 rungs

let pct_metrics prefix sorted =
  let n = Printf.sprintf "n=%d" (Array.length sorted) in
  [
    metric ~n (prefix ^ "_p50_ms") "modelled" "ms" (ms (Probe.percentile sorted 50.0));
    metric ~n (prefix ^ "_p99_ms") "modelled" "ms" (ms (Probe.percentile sorted 99.0));
  ]

(* What a pass leaves for the host metrics once its platform is gone:
   per-slice rates. Tenant-mix keeps only its nominal rung's slices, so
   every slice does the same kind of work (past the knee, cold launches
   cost ten times the host time of a warm session). Tenant sessions move
   too few bytes for a per-slice MB/s, so [mb_per_s] is empty for them. *)
type host_sample = { sessions_per_s : float array; mb_per_s : float array; sample_full : bool }

let host_sample workload p =
  match p.raw with
  | Open_result r ->
    let rung = if workload = Tenant_mix then mix_nominal else 0 in
    let slices = List.filter (fun x -> x.Tenant.rung = rung) (Array.to_list r.Tenant.slices) in
    {
      sessions_per_s = Array.of_list (List.map (fun x -> x.Tenant.sessions_per_s) slices);
      mb_per_s = [||];
      sample_full = p.full;
    }
  | Closed_result r ->
    { sessions_per_s = r.Echo.session_slices; mb_per_s = r.Echo.slices; sample_full = p.full }

(* Host throughput is the 10th percentile of the slice rates. The shared
   host runs the same code at two speeds up to ~1.8x apart, in phases
   lasting seconds; the low percentile follows the usual, slower phase,
   where a median jumps whenever a run catches a long fast one. *)
let host_rate slices = Probe.percentile (Probe.sorted_of_list (Array.to_list slices)) 10.0

(* Every workload reports every end-to-end metric. A name the workload
   has no ladder for takes the workload's own reading: [slo_rate_per_s]
   is the session rate a single-rate open loop or a closed loop
   sustained in modelled time, and a tenant session's "echo" is one
   64-byte compute round (ECHSEND + ECHRECV). *)
let end_to_end workload ~(setups : setup_time list) ~peak_heap_words ~(first : pass)
    ~(passes : host_sample list) =
  let setup_ns = Array.of_list (List.map (fun s -> s.generate_ns +. s.create_ns) setups) in
  let slices = Array.concat (List.map (fun p -> p.sessions_per_s) passes) in
  let mb = Array.concat (List.map (fun p -> p.mb_per_s) passes) in
  let latencies, slo, echoes, mb_per_s =
    match first.raw with
    | Open_result r ->
      let measured = measured_tenant workload r in
      (* Payload per host second: the session rate times the measured
         sessions' mean payload (64 bytes a compute round). *)
      let bytes_per_session =
        64.0 *. mean_of (List.map (fun s -> float_of_int s.Tenant.gen.Gen.ops) measured)
      in
      let slo =
        if workload = Tenant_mix then slo_rate (rungs ~ladder:mix_ladder r)
        else
          let first_arrival =
            Array.fold_left
              (fun a (s : Tenant.session) -> Float.min a s.Tenant.gen.Gen.arrival_ns)
              infinity r.Tenant.sessions
          in
          let last_finish =
            List.fold_left (fun a s -> Float.max a s.Tenant.finish_ns) 0.0 measured
          in
          float_of_int (List.length measured) /. ((last_finish -. first_arrival) /. 1e9)
      in
      ( List.map Tenant.latency measured,
        slo,
        r.Tenant.echoes,
        host_rate slices *. bytes_per_session /. 1e6 )
    | Closed_result r ->
      let measured = completed_echo r in
      ( List.map (fun (s : Echo.session) -> s.Echo.modelled_ns) measured,
        float_of_int (List.length measured) /. (echo_modelled_ns r /. 1e9),
        r.Echo.echoes,
        host_rate mb )
  in
  let slice_n n per what = Printf.sprintf "n=%d slices of %d %s" n per what in
  [
    metric ~n:(Printf.sprintf "n=%d setups" (Array.length setup_ns)) "setup_s" "host" "s"
      (median setup_ns /. 1e9);
    metric
      ~n:(slice_n (Array.length slices) (slice workload) "sessions")
      "host_sessions_per_s" "host" "1/s" (host_rate slices);
    metric "host_peak_heap_mb" "host" "MB"
      (float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1048576.0);
    metric ~n:(Printf.sprintf "n=%d attempted" first.attempted) "ok_frac" "modelled" "fraction"
      (float_of_int (first.attempted - first.failed) /. float_of_int first.attempted);
  ]
  @ pct_metrics "session" (Probe.sorted_of_list latencies)
  @ [
      metric
        ~n:
          (if workload = Tenant_mix then Printf.sprintf "n=%d rungs" (List.length mix_ladder)
           else Printf.sprintf "n=%d sessions" (List.length latencies))
        "slo_rate_per_s" "modelled" "1/s" slo;
      metric
        ~n:
          (match workload with
          | Channel_echo -> slice_n (Array.length mb) Echo.slice_messages "echoes"
          | Tenant_mix | Tenant_cold -> slice_n (Array.length slices) (slice workload) "sessions")
        "host_mb_per_s" "host" "MB/s" mb_per_s;
    ]
  @ pct_metrics "echo" echoes

(* --- per-layer metrics, from the traced pass ----------------------------- *)

let ems_ops =
  [
    "EWARM"; "ECREATE"; "EADD"; "EMEAS"; "EATTEST"; "ECHOPEN"; "ECHACC"; "ECHSEND"; "ECHRECV";
    "ECHCLOSE"; "ERETIRE"; "EDESTROY";
  ]

type agg = { calls : int; self_ns : float; self_words : float; total_ns : float }

let no_calls = { calls = 0; self_ns = 0.0; self_words = 0.0; total_ns = 0.0 }

(* Spans grouped by name: count, self time, self allocation, total. *)
let aggregate spans =
  let self_ns, self_w = Probe.self_times spans in
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i (s : Probe.span) ->
      let a = Option.value (Hashtbl.find_opt tbl s.Probe.name) ~default:no_calls in
      Hashtbl.replace tbl s.Probe.name
        {
          calls = a.calls + 1;
          self_ns = a.self_ns +. self_ns.(i);
          self_words = a.self_words +. self_w.(i);
          total_ns = a.total_ns +. Probe.duration s;
        })
    spans;
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:no_calls

let per_layer workload ~(untraced : pass) ~(traced : pass) ~(setups : setup_time list) =
  let spans = Probe.spans traced.probe in
  let agg = aggregate spans in
  let counter name = float_of_int (Metrics.counter_value (Metrics.counter traced.counters name)) in
  let probe = traced.probe in
  let ems =
    List.concat_map
      (fun op ->
        let a = agg ("ems." ^ op) in
        let n = Printf.sprintf "n=%d calls" a.calls in
        [
          metric ("ems." ^ op ^ ".calls") "modelled" "count" (float_of_int a.calls);
          metric ~n ("ems." ^ op ^ ".host_us") "host" "us" (per_call a.self_ns a.calls /. 1e3);
          metric ~n ("ems." ^ op ^ ".alloc_kw") "host" "kw" (per_call a.self_words a.calls /. 1e3);
        ])
      ems_ops
  in
  let service_per_session, warm_hits, warm_attempts, busy, waits, events, echo_bytes =
    match traced.raw with
    | Open_result r ->
      let ledgers = List.map (fun s -> s.Tenant.ledger) (measured_tenant workload r) in
      ( mean_of (List.map (fun l -> l.Tenant.service_ns) ledgers),
        r.Tenant.warm_hits,
        r.Tenant.warm_attempts,
        r.Tenant.busy_frac,
        Probe.sorted_of_list (List.map (fun l -> l.Tenant.wait_ns) ledgers),
        r.Tenant.events,
        0 )
    | Closed_result r ->
      ( mean_of (List.map (fun (s : Echo.session) -> s.Echo.service_ns) (completed_echo r)),
        r.Echo.warm_hits,
        r.Echo.warm_attempts,
        ratio probe.Probe.service_ns (float_of_int config.Config.ems_shards *. echo_modelled_ns r),
        [| 0.0 |],
        0,
        r.Echo.echo_bytes )
  in
  (* Each echoed byte crosses the channel twice and enclave memory once
     each way. *)
  let kib = float_of_int echo_bytes /. 1024.0 in
  let per_kib name kib = ratio ((agg name).self_ns /. 1e3) kib in
  let loads = counter "mee.loads" +. counter "mee.range_loads" in
  let sessions = float_of_int traced.attempted in
  let top_level =
    sum
      (List.filter_map
         (fun (s : Probe.span) -> if s.Probe.parent = 0 then Some (Probe.duration s) else None)
         (Array.to_list spans))
  in
  let establish = agg "core.establish" and oracle = agg "check.oracle" in
  let setup_n = Printf.sprintf "n=%d setups" (List.length setups) in
  let median_of f = median (Array.of_list (List.map f setups)) in
  ems
  @ [
      metric "ems.service_ms_per_session" "modelled" "ms" (ms service_per_session);
      metric
        ~n:(Printf.sprintf "n=%d calls" probe.Probe.completed)
        "cs.gate_us_per_call" "modelled" "us"
        (per_call (probe.Probe.latency_ns -. probe.Probe.service_ns) probe.Probe.completed /. 1e3);
      metric
        ~n:(Printf.sprintf "n=%d EWARM" warm_attempts)
        "ems.warm_hit_frac" "modelled" "fraction"
        (ratio (float_of_int warm_hits) (float_of_int warm_attempts));
      metric "ems.shard_busy_frac" "modelled" "fraction" busy;
      metric
        ~n:(Printf.sprintf "n=%d" (Array.length waits))
        "sim.queue_wait_p50_ms" "modelled" "ms"
        (ms (Probe.percentile waits 50.0));
      metric
        ~n:(Printf.sprintf "n=%d" (Array.length waits))
        "sim.queue_wait_p99_ms" "modelled" "ms"
        (ms (Probe.percentile waits 99.0));
      metric
        ~n:(Printf.sprintf "n=%d requests" probe.Probe.observed)
        "cs.shed_frac" "modelled" "fraction"
        (ratio (counter "emcall.shed") (float_of_int probe.Probe.observed));
      metric "cs.retries" "modelled" "count" (counter "emcall.retries");
      metric "cs.timeouts" "modelled" "count" (counter "emcall.timeouts");
      metric "channel.send.host_us_per_kib" "host" "us/KiB" (per_kib "channel.send" (2.0 *. kib));
      metric "channel.recv.host_us_per_kib" "host" "us/KiB" (per_kib "channel.recv" (2.0 *. kib));
      metric
        ~n:(Printf.sprintf "n=%d" establish.calls)
        "core.establish.host_ms" "host" "ms"
        (per_call establish.self_ns establish.calls /. 1e6);
      metric "arch.session_write.host_us_per_kib" "host" "us/KiB"
        (per_kib "arch.session_write" kib);
      metric "arch.session_read.host_us_per_kib" "host" "us/KiB" (per_kib "arch.session_read" kib);
      metric "arch.mee.stores_per_session" "modelled" "count"
        (ratio (counter "mee.stores") sessions);
      metric "arch.mee.loads_per_session" "modelled" "count" (ratio loads sessions);
      metric "arch.mee.mac_cache_hit_frac" "modelled" "fraction"
        (ratio (counter "mee.mac_cache_hits") loads);
      metric
        ~n:(Printf.sprintf "n=%d calls" oracle.calls)
        "check.oracle.host_us_per_call" "host" "us"
        (per_call oracle.total_ns oracle.calls /. 1e3);
      metric "check.sweep.host_ms" "host" "ms" (ms traced.sweep_ns);
      metric "sim.host_frac" "host" "fraction" (ratio (traced.host_ns -. top_level) traced.host_ns);
      metric "sim.events" "modelled" "count" (float_of_int events);
      metric ~n:setup_n "core.platform_create.host_ms" "host" "ms"
        (ms (median_of (fun s -> s.create_ns)));
      metric ~n:setup_n "workloads.generate.host_ms" "host" "ms"
        (ms (median_of (fun s -> s.generate_ns)));
      (* untraced / traced throughput - 1, over the same sessions *)
      metric "obs.trace_overhead_frac" "host" "fraction"
        ((traced.host_ns /. untraced.host_ns) -. 1.0);
    ]

(* --- a run --------------------------------------------------------------- *)

type outcome = {
  first : pass;
  passes : host_sample list;  (** every untraced pass, the first included *)
  traced_pass : pass option;
  setups : setup_time list;
  peak_heap_words : int;  (** top of the major heap once the first pass ended *)
}

let min_setups = 5

let run workload ~seed ~seconds ~traced =
  let setups = ref [] in
  let fresh ~traced =
    let st = setup workload ~seed ~traced in
    setups := st.time :: !setups;
    st
  in
  let same_model (a : pass) (b : pass) =
    if a.hash <> b.hash then
      raise (Incorrect (Printf.sprintf "two full passes of one seed differ: %s, %s" a.hash b.hash))
  in
  let first_setup = fresh ~traced:false in
  let deadline_ns = Probe.now_ns () +. (float_of_int seconds *. 1e9) in
  let first = run_pass workload first_setup ~deadline_ns:infinity in
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let passes, traced_pass =
    if traced then begin
      let b = run_pass workload (fresh ~traced:true) ~deadline_ns:infinity in
      same_model first b;
      ([ host_sample workload first ], Some b)
    end
    else begin
      let rec more acc =
        if Probe.now_ns () >= deadline_ns then List.rev acc
        else begin
          let p = run_pass workload (fresh ~traced:false) ~deadline_ns in
          if p.full then same_model first p;
          more (host_sample workload p :: acc)
        end
      in
      (more [ host_sample workload first ], None)
    end
  in
  (* Set-up time is a median over at least [min_setups] set-ups. *)
  while List.length !setups < min_setups do
    Platform.shutdown (fresh ~traced:false).platform
  done;
  { first; passes; traced_pass; setups = List.rev !setups; peak_heap_words }
