module Platform = Hypertee.Platform
module Sdk = Hypertee.Sdk
module Emcall = Hypertee_cs.Emcall
module Types = Hypertee_ems.Types
module Config = Hypertee_arch.Config
module Engine = Hypertee_sim.Engine
module Resource = Hypertee_sim.Resource
module Xrng = Hypertee_util.Xrng
module Stats = Hypertee_util.Stats
module Table = Hypertee_util.Table
module Tenants = Hypertee_workloads.Tenants
module Oracle = Hypertee_check.Oracle
module Invariant = Hypertee_check.Invariant

(* Enclave-as-a-service load driver (the cloud experiment).

   A tenant fleet (Tenants) offers sessions to the platform; each
   session is the full service lifecycle issued as real EMCalls:

     EWARM (warm-pool hit) | ECREATE + EADD* + EMEAS + EATTEST (miss)
     -> ECHOPEN + ECHACC + ops x (ECHSEND + ECHRECV) + ECHCLOSE
     -> ERETIRE

   Timing is a per-shard FCFS single-server queue in virtual time: a
   discrete-event engine orders every call across overlapping
   sessions, [Platform.invoke_timed]'s modelled round trip is the
   service time, and session latency is completion minus arrival.
   Admission control (the gate's token bucket) runs on the same
   virtual clock, so the whole sweep is deterministic given the seed.

   Every point ends with a deep invariant sweep and the differential
   oracle's verdict — the churn the sweep generates (thousands of
   create/park/revive/destroy cycles) is exactly the load the warm
   pool and teardown paths must survive leak-free. *)

let session_config =
  {
    Types.code_pages = 1;
    data_pages = 1;
    heap_pages = 4;
    stack_pages = 1;
    shared_pages = 1;
  }

let catalog spec =
  Array.init spec.Tenants.images (fun k ->
      let code, data = Tenants.image_bytes ~image:k in
      Sdk.image_of_code ~config:session_config ~code ~data ())

(* --- one simulated platform under one offered load ----------------- *)

type sim = {
  platform : Platform.t;
  engine : Engine.t;
  resources : Resource.t array;
  shards : int;
  images : Sdk.image array;
  admission_rate : float option;  (* requests/s, for retry pacing *)
  mutable last_adm_ns : float;
  mutable rr : int;  (* queue-model shard guess for enclave-less calls *)
  latencies : Stats.t;
  cold_latencies : Stats.t;
  warm_latencies : Stats.t;
  mutable calls : int;
  mutable completed : int;
  mutable shed_sessions : int;
  mutable degraded : int;
  mutable warm_hits : int;
  mutable cold_launches : int;
}

let make_sim ~seed ~shards ~admission ~spec () =
  let config = { Config.default with Config.ems_shards = shards } in
  let platform = Platform.create ~seed ~config () in
  let oracle = Platform.attach_oracle platform in
  Option.iter
    (fun rate -> Platform.set_admission platform ~rate_per_s:rate ~burst:64)
    admission;
  let engine = Engine.create () in
  ( {
      platform;
      engine;
      resources = Array.init shards (fun _ -> Resource.create engine ~servers:1);
      shards;
      images = catalog spec;
      admission_rate = admission;
      last_adm_ns = 0.0;
      rr = 0;
      latencies = Stats.create ();
      cold_latencies = Stats.create ();
      warm_latencies = Stats.create ();
      calls = 0;
      completed = 0;
      shed_sessions = 0;
      degraded = 0;
      warm_hits = 0;
      cold_launches = 0;
    },
    oracle )

(* The gate's bucket refills on this virtual clock; events fire in
   time order, so the advance is always non-negative. *)
let sync_admission sim =
  let now = Engine.now sim.engine in
  if now > sim.last_adm_ns then begin
    Platform.advance_admission_ns sim.platform (now -. sim.last_adm_ns);
    sim.last_adm_ns <- now
  end

(* Queue-model shard of a request: enclaves and channels follow the
   gate's residue routing; enclave-less calls (ECREATE, EWARM misses)
   are approximated by the driver's own round-robin. *)
let model_shard sim request =
  match request with
  | Types.Chan_send { chan; _ } | Types.Chan_recv { chan } | Types.Chan_close { chan } ->
    (chan - 1) mod sim.shards
  | Types.Warm_create { measurement } -> Types.warm_home ~shards:sim.shards measurement
  | Types.Add { enclave; _ }
  | Types.Measure { enclave }
  | Types.Attest { enclave; _ }
  | Types.Chan_open { listener = enclave }
  | Types.Chan_accept { enclave; _ }
  | Types.Retire { enclave } ->
    Platform.shard_of_enclave sim.platform enclave
  | _ ->
    sim.rr <- sim.rr + 1;
    (sim.rr - 1) mod sim.shards

(* Pacing for a mid-session EBUSY retry: roughly one token's refill
   time. Sessions that are shed on their *first* call give up
   instead (the client never got a foot in the door). *)
let retry_gap_ns sim =
  match sim.admission_rate with Some r when r > 0.0 -> 1e9 /. r | _ -> 1e6

let max_busy_retries = 64

(* Issue one EMCall through the modelled queue: execute it against
   the real platform (mutating state and learning the modelled
   service time), then occupy the serving shard's FCFS slot for that
   long; [k] continues the session at completion time. *)
let rec issue sim ?(retries = 0) ~caller ~request ~on_shed ~on_degraded k =
  sync_admission sim;
  match Platform.invoke_timed sim.platform ~caller request with
  | Error Emcall.Busy ->
    if retries >= max_busy_retries then on_degraded ()
    else if retries = 0 && on_shed () then ()
    else
      Engine.after sim.engine ~delay:(retry_gap_ns sim) (fun _ ->
          issue sim ~retries:(retries + 1) ~caller ~request ~on_shed ~on_degraded k)
  | Error (Emcall.Cross_privilege | Emcall.Mailbox_full | Emcall.Timeout) -> on_degraded ()
  | Ok (response, latency_ns) ->
    sim.calls <- sim.calls + 1;
    let shard = model_shard sim request in
    Resource.submit sim.resources.(shard) ~service_ns:latency_ns
      ~on_done:(fun ~queued_ns:_ ~total_ns:_ -> k response)

(* --- the session ---------------------------------------------------- *)

(* What a tenant does with a launched enclave: a cold enclave attests
   its fresh identity once; then the host opens a channel, streams
   [ops] request segments that the enclave endpoint drains one by
   one, closes the channel and retires the enclave to the warm pool. *)
let serve (s : Tenants.session) (id, kind) =
  let host = Emcall.User_host and self = Emcall.User_enclave id in
  let rec compute ~chan ~left =
    if left = 0 then
      Sdk.expect host (Types.Chan_close { chan }) (function
        | Types.Ok_unit ->
          Some
            (Sdk.expect Emcall.Os_kernel (Types.Retire { enclave = id }) (function
              | Types.Ok_unit -> Some (Sdk.Done kind)
              | _ -> None))
        | _ -> None)
    else
      let seg = Bytes.make 64 (Char.chr (0x30 + (left land 0x3f))) in
      Sdk.expect host (Types.Chan_send { chan; seg }) (function
        | Types.Ok_unit ->
          Some
            (Sdk.expect self (Types.Chan_recv { chan }) (function
              | Types.Ok_seg _ -> Some (compute ~chan ~left:(left - 1))
              | _ -> None))
        | _ -> None)
  in
  let channel =
    Sdk.expect host (Types.Chan_open { listener = id }) (function
      | Types.Ok_chan { chan; _ } ->
        Some
          (Sdk.expect self (Types.Chan_accept { enclave = id; chan }) (function
            | Types.Ok_chan _ -> Some (compute ~chan ~left:(Stdlib.max 1 s.Tenants.ops))
            | _ -> None))
      | _ -> None)
  in
  match kind with
  | `Warm -> channel
  | `Cold ->
    Sdk.expect self (Types.Attest { enclave = id; user_data = Bytes.of_string "cloud" })
      (function Types.Ok_attest _ -> Some channel | _ -> None)

(* The timed-queue interpreter: each call goes through [issue]. A
   cold launch counts when its ECREATE is issued and a warm hit when
   EWARM hands back an enclave. Only the opening call (EWARM) may shed
   the session; a session that fails or degrades after it owns an
   enclave destroys it, best effort, so an abandoned session cannot
   pin its enclave forever (a shed destroy just leaves it for the
   platform's own pressure paths). *)
let start_session sim (s : Tenants.session) ~on_finished =
  let image = sim.images.(s.Tenants.image mod Array.length sim.images) in
  let finish kind =
    let latency = Engine.now sim.engine -. s.Tenants.arrival_ns in
    Stats.add sim.latencies latency;
    (match kind with
    | `Warm -> Stats.add sim.warm_latencies latency
    | `Cold -> Stats.add sim.cold_latencies latency);
    sim.completed <- sim.completed + 1;
    on_finished ()
  in
  let degraded owned () =
    sim.degraded <- sim.degraded + 1;
    Option.iter
      (fun enclave ->
        ignore (Platform.invoke sim.platform ~caller:Emcall.Os_kernel (Types.Destroy { enclave })))
      owned;
    on_finished ()
  in
  let shed_opening () =
    sim.shed_sessions <- sim.shed_sessions + 1;
    on_finished ();
    true
  in
  let rec drive ~on_shed owned = function
    | Sdk.Done kind -> finish kind
    | Sdk.Fail _ -> degraded owned ()
    | Sdk.Created (id, next) -> drive ~on_shed (Some id) next
    | Sdk.Call (caller, request, k) ->
      (match request with
      | Types.Create _ -> sim.cold_launches <- sim.cold_launches + 1
      | _ -> ());
      issue sim ~caller ~request ~on_shed ~on_degraded:(degraded owned) (fun response ->
          (match (request, response) with
          | Types.Warm_create _, Types.Ok_created _ -> sim.warm_hits <- sim.warm_hits + 1
          | _ -> ());
          drive ~on_shed:(fun () -> false) owned (k response))
  in
  drive ~on_shed:shed_opening None (Sdk.bind (Sdk.warm_launch_steps image) (serve s))

(* --- end-of-run verdict -------------------------------------------- *)

type verdict = { violations : int; divergences : int; report : Invariant.report }

let finish_sim sim oracle =
  let report = Platform.check ~deep:true sim.platform in
  let verdict =
    {
      violations = List.length report.Invariant.violations;
      divergences = Oracle.divergence_count oracle;
      report;
    }
  in
  Platform.detach_oracle sim.platform;
  verdict

(* --- open-loop sweep ----------------------------------------------- *)

type point = {
  shards : int;
  offered_mult : float;
  offered_per_s : float;
  sessions_offered : int;
  completed : int;
  shed_sessions : int;
  degraded : int;
  warm_hits : int;
  cold_launches : int;
  calls : int;
  shed_requests : int;
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  mean_ms : float;
  violations : int;
  divergences : int;
}

let pct stats p = if Stats.count stats = 0 then 0.0 else Stats.percentile stats p
let ms ns = ns /. 1e6

let run_open ~seed ~spec ~shards ~rate_per_s ~sessions ~admission () =
  let sim, oracle = make_sim ~seed ~shards ~admission ~spec () in
  let arrivals =
    Tenants.open_arrivals ~seed:(Int64.add seed 0x7EAL) ~spec ~rate_per_s ~sessions
  in
  List.iter
    (fun s ->
      Engine.at sim.engine ~time:s.Tenants.arrival_ns (fun _ ->
          start_session sim s ~on_finished:(fun () -> ())))
    arrivals;
  ignore (Engine.run sim.engine);
  let shed_requests = Platform.shed_count sim.platform in
  let verdict = finish_sim sim oracle in
  (sim, shed_requests, verdict)

let point_of_run ~offered_mult ~rate_per_s ~sessions
    ((sim : sim), shed_requests, (verdict : verdict)) =
  {
    shards = sim.shards;
    offered_mult;
    offered_per_s = rate_per_s;
    sessions_offered = sessions;
    completed = sim.completed;
    shed_sessions = sim.shed_sessions;
    degraded = sim.degraded;
    warm_hits = sim.warm_hits;
    cold_launches = sim.cold_launches;
    calls = sim.calls;
    shed_requests;
    p50_ms = ms (pct sim.latencies 50.0);
    p99_ms = ms (pct sim.latencies 99.0);
    p999_ms = ms (pct sim.latencies 99.9);
    mean_ms = ms (if Stats.count sim.latencies = 0 then 0.0 else Stats.mean sim.latencies);
    violations = verdict.violations;
    divergences = verdict.divergences;
  }

(* Calibration: a trickle of sessions on one shard, no admission —
   the cold-session latency anchors the offered-load axis, the mean
   calls-per-session sizes the request-level admission bucket. *)
type calibration = {
  base_cold_ns : float;
  base_warm_ns : float;
  ops_per_session : float;
}

let calibrate ~seed ~spec () =
  let sim, oracle = make_sim ~seed ~shards:1 ~admission:None ~spec () in
  let arrivals =
    Tenants.open_arrivals ~seed:(Int64.add seed 0xCA1L) ~spec ~rate_per_s:2.0 ~sessions:8
  in
  List.iter
    (fun s ->
      Engine.at sim.engine ~time:s.Tenants.arrival_ns (fun _ ->
          start_session sim s ~on_finished:(fun () -> ())))
    arrivals;
  ignore (Engine.run sim.engine);
  let verdict = finish_sim sim oracle in
  if verdict.violations > 0 || verdict.divergences > 0 then
    failwith "Cloud.calibrate: platform failed its own sweep on the calibration run";
  let mean_or stats fallback = if Stats.count stats = 0 then fallback else Stats.mean stats in
  let base_cold = mean_or sim.cold_latencies 8e6 in
  {
    base_cold_ns = base_cold;
    base_warm_ns = mean_or sim.warm_latencies base_cold;
    ops_per_session =
      (if sim.completed = 0 then 12.0 else float_of_int sim.calls /. float_of_int sim.completed);
  }

type curve = { curve_shards : int; points : point list; knee_mult : float option }

(* Saturation knee: the highest offered multiplier whose p99 stays
   within [slo_factor] of the lightest point's p99. *)
let slo_factor = 4.0

let knee_of points =
  match points with
  | [] -> None
  | lightest :: _ ->
    let budget = slo_factor *. Stdlib.max lightest.p99_ms 1e-6 in
    List.fold_left
      (fun acc p -> if p.p99_ms <= budget && p.completed > 0 then Some p.offered_mult else acc)
      None points

(* --- closed loop ---------------------------------------------------- *)

type closed_point = {
  cl_shards : int;
  cl_tenants : int;
  cl_sessions : int;
  cl_completed : int;
  cl_degraded : int;
  cl_warm_hits : int;
  cl_p99_ms : float;
  cl_throughput_per_s : float;
  cl_violations : int;
  cl_divergences : int;
}

let run_closed ~seed ~spec ~shards ~tenants ~sessions_per_tenant () =
  let sim, oracle = make_sim ~seed ~shards ~admission:None ~spec () in
  let rng = Xrng.create (Int64.add seed 0xC10L) in
  let cdf = Tenants.popularity_cdf spec in
  let rec tenant_loop remaining () =
    if remaining > 0 then begin
      let s = Tenants.fresh_session rng spec cdf ~arrival_ns:(Engine.now sim.engine) in
      start_session sim s ~on_finished:(fun () ->
          Engine.after sim.engine ~delay:(Tenants.think_ns rng spec) (fun _ ->
              tenant_loop (remaining - 1) ()))
    end
  in
  for t = 0 to tenants - 1 do
    (* Staggered starts so the herd does not arrive in lockstep. *)
    Engine.after sim.engine
      ~delay:(float_of_int t *. 20_000.0)
      (fun _ -> tenant_loop sessions_per_tenant ())
  done;
  let total_ns = Engine.run sim.engine in
  let verdict = finish_sim sim oracle in
  {
    cl_shards = shards;
    cl_tenants = tenants;
    cl_sessions = tenants * sessions_per_tenant;
    cl_completed = sim.completed;
    cl_degraded = sim.degraded;
    cl_warm_hits = sim.warm_hits;
    cl_p99_ms = ms (pct sim.latencies 99.0);
    cl_throughput_per_s =
      (if total_ns <= 0.0 then 0.0 else float_of_int sim.completed /. (total_ns /. 1e9));
    cl_violations = verdict.violations;
    cl_divergences = verdict.divergences;
  }

(* --- the experiment ------------------------------------------------- *)

type outcome = {
  calibration : calibration;
  curves : curve list;
  closed : closed_point list;
}

let default_shard_counts = [ 1; 2; 4 ]
let default_mults = [ 0.2; 0.5; 0.8; 1.0; 1.3; 1.6 ]
let quick_mults = [ 0.3; 0.8; 1.5 ]

let run ~seed ?(quick = false) ?(shard_counts = default_shard_counts) () =
  let spec = Tenants.default_spec in
  let sessions = if quick then 48 else 160 in
  let mults = if quick then quick_mults else default_mults in
  let cal = calibrate ~seed ~spec () in
  let capacity shards = float_of_int shards *. (1e9 /. cal.base_cold_ns) in
  (* Every grid point, open or closed loop, is its own platform, so
     [Exec.map] may fan them over domains once calibration has fixed
     the load axis. *)
  let grid =
    List.concat_map (fun shards -> List.map (fun mult -> (shards, mult)) mults) shard_counts
  in
  let open_points =
    Hypertee_sim.Exec.map
      (fun (shards, mult) ->
        let cap = capacity shards in
        let rate = mult *. cap in
        (* Admission sized to roughly what the platform can serve:
           overload beyond it sheds as Busy instead of queueing. *)
        let admission = Some (1.3 *. cap *. cal.ops_per_session) in
        point_of_run ~offered_mult:mult ~rate_per_s:rate ~sessions
          (run_open ~seed ~spec ~shards ~rate_per_s:rate ~sessions ~admission ()))
      grid
  in
  let per_curve = List.length mults in
  let curves =
    List.mapi
      (fun i shards ->
        let points = List.filteri (fun j _ -> j / per_curve = i) open_points in
        { curve_shards = shards; points; knee_mult = knee_of points })
      shard_counts
  in
  let closed =
    Hypertee_sim.Exec.map
      (fun shards ->
        run_closed ~seed ~spec ~shards ~tenants:(4 * shards)
          ~sessions_per_tenant:(if quick then 4 else 10) ())
      shard_counts
  in
  { calibration = cal; curves; closed }

(* --- rendering ------------------------------------------------------ *)

let headers =
  [
    "shards"; "load"; "offered/s"; "done"; "shed"; "warm"; "p50 ms"; "p99 ms"; "p99.9 ms";
    "inv"; "orc";
  ]

let point_row p =
  [
    string_of_int p.shards;
    Printf.sprintf "%.1fx" p.offered_mult;
    Table.fmt_f ~digits:1 p.offered_per_s;
    Printf.sprintf "%d/%d" p.completed p.sessions_offered;
    string_of_int p.shed_sessions;
    Printf.sprintf "%d/%d" p.warm_hits (p.warm_hits + p.cold_launches);
    Table.fmt_f ~digits:2 p.p50_ms;
    Table.fmt_f ~digits:2 p.p99_ms;
    Table.fmt_f ~digits:2 p.p999_ms;
    string_of_int p.violations;
    string_of_int p.divergences;
  ]

let print ?(out = stdout) outcome =
  Printf.fprintf out
    "cloud: cold session %.2f ms, warm session %.2f ms, %.1f EMCalls/session\n"
    (ms outcome.calibration.base_cold_ns)
    (ms outcome.calibration.base_warm_ns)
    outcome.calibration.ops_per_session;
  let rows = List.concat_map (fun c -> List.map point_row c.points) outcome.curves in
  Table.print ~out ~headers rows;
  List.iter
    (fun c ->
      Printf.fprintf out "  %d shard(s): knee at %s offered load\n" c.curve_shards
        (match c.knee_mult with Some m -> Printf.sprintf "%.1fx" m | None -> "none (saturated)"))
    outcome.curves;
  List.iter
    (fun cp ->
      Printf.fprintf out
        "  closed loop, %d shard(s) x %d tenants: %d/%d sessions, %.1f/s, p99 %.2f ms, warm %d, inv %d, orc %d\n"
        cp.cl_shards cp.cl_tenants cp.cl_completed cp.cl_sessions cp.cl_throughput_per_s
        cp.cl_p99_ms cp.cl_warm_hits cp.cl_violations cp.cl_divergences)
    outcome.closed

let json_of_outcome outcome =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"calibration\": {\"cold_ns\": %.1f, \"warm_ns\": %.1f, \"ops_per_session\": %.2f},\n"
       outcome.calibration.base_cold_ns outcome.calibration.base_warm_ns
       outcome.calibration.ops_per_session);
  Buffer.add_string b "  \"curves\": [\n";
  let curve_strings =
    List.map
      (fun c ->
        let pts =
          List.map
            (fun p ->
              Printf.sprintf
                "      {\"offered_mult\": %.3f, \"offered_per_s\": %.3f, \"sessions\": %d, \
                 \"completed\": %d, \"shed_sessions\": %d, \"shed_requests\": %d, \
                 \"degraded\": %d, \"warm_hits\": %d, \"cold_launches\": %d, \"p50_ms\": %.4f, \
                 \"p99_ms\": %.4f, \"p999_ms\": %.4f, \"violations\": %d, \"divergences\": %d}"
                p.offered_mult p.offered_per_s p.sessions_offered p.completed p.shed_sessions
                p.shed_requests p.degraded p.warm_hits p.cold_launches p.p50_ms p.p99_ms
                p.p999_ms p.violations p.divergences)
            c.points
        in
        Printf.sprintf "    {\"shards\": %d, \"knee_mult\": %s, \"points\": [\n%s\n    ]}"
          c.curve_shards
          (match c.knee_mult with Some m -> Printf.sprintf "%.3f" m | None -> "null")
          (String.concat ",\n" pts))
      outcome.curves
  in
  Buffer.add_string b (String.concat ",\n" curve_strings);
  Buffer.add_string b "\n  ],\n  \"closed\": [\n";
  let closed_strings =
    List.map
      (fun cp ->
        Printf.sprintf
          "    {\"shards\": %d, \"tenants\": %d, \"sessions\": %d, \"completed\": %d, \
           \"degraded\": %d, \"warm_hits\": %d, \"p99_ms\": %.4f, \"throughput_per_s\": %.3f, \
           \"violations\": %d, \"divergences\": %d}"
          cp.cl_shards cp.cl_tenants cp.cl_sessions cp.cl_completed cp.cl_degraded
          cp.cl_warm_hits cp.cl_p99_ms cp.cl_throughput_per_s cp.cl_violations cp.cl_divergences)
      outcome.closed
  in
  Buffer.add_string b (String.concat ",\n" closed_strings);
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

(* Green iff every point of every sweep ended with a clean platform. *)
let clean outcome =
  List.for_all
    (fun c -> List.for_all (fun p -> p.violations = 0 && p.divergences = 0) c.points)
    outcome.curves
  && List.for_all (fun cp -> cp.cl_violations = 0 && cp.cl_divergences = 0) outcome.closed
