module Types = Hypertee_ems.Types
module Emcall = Hypertee_cs.Emcall
module Fault = Hypertee_faults.Fault
module Platform = Hypertee.Platform
module Xrng = Hypertee_util.Xrng
module Stats = Hypertee_util.Stats
module Oracle = Hypertee_check.Oracle

type point = {
  fault_rate : float;
  ops : int;
  ok : int;
  degraded : int;
  timeouts : int;
  success_rate : float;
  p50_ns : float;
  p99_ns : float;
  injected : int;
  recovered : int;
  enclaves_killed : int;
  retries : int;
  invariant_violations : int;
}

let default_rates = [ 0.0; 0.01; 0.02; 0.05; 0.1; 0.2 ]

(* Workload state per live enclave: the launch pipeline (EADD pages,
   then EMEAS) followed by steady-state management traffic. *)
type enclave_state = {
  id : Types.enclave_id;
  mutable added : int;
  mutable measured : bool;
  mutable regions : (int * int) list; (* (base_vpn, pages) from EALLOC *)
}

let launch_adds = 2
let fleet_target = 3

let page_data i = Bytes.make 64 (Char.chr (Char.code 'a' + (i mod 26)))

(* One iteration = exactly one EMCall. Picks the next sensible
   primitive for the current fleet state; the point of the sweep is
   that the *platform* keeps its promises, so the workload itself is
   always semantically valid against the state the workload believes
   in — divergence (a fault killed an enclave under us) lands in the
   [degraded] bucket and the bookkeeping resyncs. *)
let next_request rng fleet =
  match List.find_opt (fun e -> not e.measured) !fleet with
  | Some e when e.added < launch_adds ->
    ( Emcall.Os_kernel,
      Types.Add
        { enclave = e.id; vpn = 0x100 + e.added; data = page_data e.added; executable = true },
      `Added e )
  | Some e -> (Emcall.Os_kernel, Types.Measure { enclave = e.id }, `Measured e)
  | None ->
    if List.length !fleet < fleet_target then
      (Emcall.Os_kernel, Types.Create { config = Types.default_config }, `Created)
    else begin
      let arr = Array.of_list !fleet in
      let e = arr.(Xrng.int rng (Array.length arr)) in
      match Xrng.int rng 10 with
      | 0 | 1 | 2 -> (Emcall.User_enclave e.id, Types.Alloc { enclave = e.id; pages = 2 }, `Alloced e)
      | 3 | 4 -> (
        match e.regions with
        | (base_vpn, pages) :: _ ->
          (Emcall.User_enclave e.id, Types.Free { enclave = e.id; vpn = base_vpn; pages }, `Freed e)
        | [] -> (Emcall.User_enclave e.id, Types.Alloc { enclave = e.id; pages = 2 }, `Alloced e))
      | 5 | 6 ->
        ( Emcall.User_enclave e.id,
          Types.Attest { enclave = e.id; user_data = Bytes.of_string "chaos" },
          `Noop )
      | 7 ->
        (* Big enough to drain the EMS pool and force eviction of
           enclave heap pages — the path that decrypts lines through
           the encryption engine, where injected bit flips land.
           Evicted pages are unmapped until faulted back in, so stop
           trusting earlier EALLOC regions for the Free arm. *)
        List.iter (fun e -> e.regions <- []) !fleet;
        (Emcall.Os_kernel, Types.Writeback { pages_hint = 48 }, `Noop)
      | 8 -> (Emcall.Os_kernel, Types.Destroy { enclave = e.id }, `Destroyed e)
      | _ ->
        List.iter (fun e -> e.regions <- []) !fleet;
        (Emcall.Os_kernel, Types.Writeback { pages_hint = 8 }, `Noop)
    end

let drop fleet id = fleet := List.filter (fun e -> e.id <> id) !fleet

let run_point ~seed ~fault_rate ~ops =
  let faults = Fault.uniform ~seed:(Int64.add seed 0x5EEDL) ~rate:fault_rate () in
  let platform = Platform.create ~seed ~faults () in
  let rng = Xrng.create (Int64.add seed 17L) in
  let fleet = ref [] in
  let ok = ref 0 and degraded = ref 0 and timeouts = ref 0 in
  let latencies = Stats.create () in
  for _ = 1 to ops do
    let caller, request, effect = next_request rng fleet in
    match Platform.invoke_timed platform ~caller request with
    | Ok (Types.Err err, _) ->
      incr degraded;
      (* Resync the workload's view: an enclave the platform no
         longer serves (integrity-terminated, or its state diverged
         after a lost/killed operation) leaves the fleet. *)
      (match (err, effect) with
      | (Types.No_such_enclave | Types.Integrity_failure _), (`Added e | `Measured e | `Alloced e | `Freed e | `Destroyed e)
        ->
        drop fleet e.id
      | _ -> ())
    | Ok (response, latency_ns) -> (
      incr ok;
      Stats.add latencies latency_ns;
      match (effect, response) with
      | `Created, Types.Ok_created { enclave } ->
        fleet := { id = enclave; added = 0; measured = false; regions = [] } :: !fleet
      | `Added e, _ -> e.added <- e.added + 1
      | `Measured e, _ -> e.measured <- true
      | `Alloced e, Types.Ok_alloc { base_vpn; pages } -> e.regions <- (base_vpn, pages) :: e.regions
      | `Freed e, _ -> e.regions <- (match e.regions with [] -> [] | _ :: tl -> tl)
      | `Destroyed e, _ -> drop fleet e.id
      | _ -> ())
    | Error Emcall.Timeout -> (
      incr timeouts;
      (* The outcome of a timed-out primitive is unknown; drop the
         target so later ops do not cascade on stale bookkeeping. *)
      match effect with
      | `Added e | `Measured e | `Alloced e | `Freed e | `Destroyed e -> drop fleet e.id
      | `Created | `Noop -> ())
    | Error (Emcall.Cross_privilege | Emcall.Mailbox_full | Emcall.Busy) -> incr degraded
  done;
  let audit = Hypertee_ems.Runtime.audit (Platform.Internals.runtime platform) in
  let events = Hypertee_ems.Audit.fault_events audit in
  let recovered = List.length (List.filter (fun e -> e.Hypertee_ems.Audit.recovered) events) in
  let enclaves_killed =
    List.length
      (List.filter (fun e -> e.Hypertee_ems.Audit.site = "memory-integrity") events)
  in
  let injected =
    match Platform.Internals.faults platform with Some inj -> Fault.total_fired inj | None -> 0
  in
  let pct p = if Stats.count latencies = 0 then 0.0 else Stats.percentile latencies p in
  {
    fault_rate;
    ops;
    ok = !ok;
    degraded = !degraded;
    timeouts = !timeouts;
    success_rate = float_of_int !ok /. float_of_int (Stdlib.max 1 ops);
    p50_ns = pct 50.0;
    p99_ns = pct 99.0;
    injected;
    recovered;
    enclaves_killed;
    retries = Emcall.retries (Platform.Internals.emcall platform);
    (* Availability is not enough: the survived platform must also
       still be *consistent*. *)
    invariant_violations =
      List.length (Platform.check platform).Hypertee_check.Invariant.violations;
  }

let run ~seed ~ops =
  Hypertee_sim.Exec.map (fun fault_rate -> run_point ~seed ~fault_rate ~ops) default_rates

(* --- Rolling restart: kill and recover every EMS shard ------------- *)

type restart_round = {
  shard_killed : int;
  outage_ops : int;
  outage_timeouts : int;  (** requests that hit the dead shard *)
  outage_errors : int;
  replayed : int;
  replay_mismatches : int;
  lost_enclaves : int;
  migration : string option;  (** post-recovery live-migration outcome *)
  round_violations : int;
  round_divergences : int;  (** oracle divergences accrued this round *)
}

type restart_report = {
  shards : int;
  total_ops : int;
  rounds : restart_round list;
  total_lost : int;
  recovered_events : int;  (** recovered fault events across every shard's audit *)
  recovery_sites : (string * int) list;  (** recovered events by audit site *)
  oracle_observed : int;
  oracle_divergences : int;
  final_violations : int;
}

let restart_default_ops = 400

let live_ids platform =
  Array.fold_left
    (fun acc rt -> Hypertee_ems.Runtime.live_enclaves rt @ acc)
    []
    (Platform.Internals.runtimes platform)
  |> List.sort_uniq compare

let rolling_restart ?(seed = 0xC4A05CADEL) ?(ops = restart_default_ops) ?(shards = 3) () =
  if shards < 2 then invalid_arg "Chaos.rolling_restart: need at least 2 shards";
  let config = { Hypertee_arch.Config.default with Hypertee_arch.Config.ems_shards = shards } in
  (* No fault plan: the only "fault" is the shard crash itself, so
     every timeout and recovery event in the report is attributable
     to the restart. *)
  let platform = Platform.create ~seed ~config () in
  let oracle = Platform.attach_oracle platform in
  let rng = Xrng.create (Int64.add seed 29L) in
  let fleet = ref [] in
  let timeouts = ref 0 and errors = ref 0 in
  (* Enclaves for which we issued EDESTROY, successfully or with an
     unknown (timed-out) outcome — excused from the lost-enclave
     accounting, because the destroy may legitimately land when the
     recovered shard drains its backlog. *)
  let destroy_issued : (Types.enclave_id, unit) Hashtbl.t = Hashtbl.create 16 in
  let step () =
    let caller, request, effect = next_request rng fleet in
    (match effect with
    | `Destroyed e -> Hashtbl.replace destroy_issued e.id ()
    | _ -> ());
    match Platform.invoke_timed platform ~caller request with
    | Ok (Types.Err err, _) -> (
      incr errors;
      match (err, effect) with
      | ( (Types.No_such_enclave | Types.Integrity_failure _),
          (`Added e | `Measured e | `Alloced e | `Freed e | `Destroyed e) ) ->
        drop fleet e.id
      | _ -> ())
    | Ok (response, _) -> (
      match (effect, response) with
      | `Created, Types.Ok_created { enclave } ->
        fleet := { id = enclave; added = 0; measured = false; regions = [] } :: !fleet
      | `Added e, _ -> e.added <- e.added + 1
      | `Measured e, _ -> e.measured <- true
      | `Alloced e, Types.Ok_alloc { base_vpn; pages } ->
        e.regions <- (base_vpn, pages) :: e.regions
      | `Freed e, _ -> e.regions <- (match e.regions with [] -> [] | _ :: tl -> tl)
      | `Destroyed e, _ -> drop fleet e.id
      | _ -> ())
    | Error Emcall.Timeout -> (
      incr timeouts;
      match effect with
      | `Added e | `Measured e | `Alloced e | `Freed e | `Destroyed e -> drop fleet e.id
      | `Created | `Noop -> ())
    | Error (Emcall.Cross_privilege | Emcall.Mailbox_full | Emcall.Busy) -> incr errors
  in
  let run_phase n =
    for _ = 1 to n do
      step ()
    done
  in
  let steady = Stdlib.max 20 (ops / (shards + 1)) in
  let outage_ops = Stdlib.max 10 (ops / (5 * shards)) in
  let issued = ref 0 in
  let divergences_seen = ref 0 in
  let total_lost = ref 0 in
  let rounds =
    List.init shards (fun s ->
        (* Steady traffic, then the crash. *)
        run_phase steady;
        issued := !issued + steady;
        let pre = live_ids platform in
        Platform.kill_shard platform s;
        let t0 = !timeouts and e0 = !errors in
        run_phase outage_ops;
        issued := !issued + outage_ops;
        let recovery = Platform.recover_shard platform s in
        (* Every enclave alive before the crash must still be alive —
           reconstructed by journal replay if it lived on the dead
           shard — unless we ourselves asked for its destruction. *)
        let survivors = live_ids platform in
        let lost =
          List.filter
            (fun id ->
              (not (Hashtbl.mem destroy_issued id)) && not (List.mem id survivors))
            pre
        in
        total_lost := !total_lost + List.length lost;
        (* Post-recovery rebalance: live-migrate one idle enclave off
           the recovered shard's successor ring. *)
        let migration =
          let candidate =
            List.find_opt
              (fun e ->
                e.measured
                &&
                let s = Platform.shard_of_enclave platform e.id in
                match
                  Hypertee_ems.Runtime.find_enclave
                    (Platform.Internals.runtime_of_shard platform s)
                    e.id
                with
                | Some enc ->
                  enc.Hypertee_ems.Enclave.state = Hypertee_ems.Enclave.Measured
                  && enc.Hypertee_ems.Enclave.attached_shms = []
                | None -> false)
              !fleet
          in
          Option.map
            (fun e ->
              let target = (Platform.shard_of_enclave platform e.id + 1) mod shards in
              match Platform.migrate platform ~enclave:e.id ~target with
              | Platform.Migrated -> Printf.sprintf "enclave %d -> shard %d" e.id target
              | Platform.Migration_aborted reason -> "aborted: " ^ reason
              | Platform.Migration_crashed { after; _ } ->
                "crashed after " ^ Platform.migration_phase_name after)
            candidate
        in
        let report = Platform.check platform in
        let diverged_now = Oracle.divergence_count oracle in
        let round_divergences = diverged_now - !divergences_seen in
        divergences_seen := diverged_now;
        {
          shard_killed = s;
          outage_ops;
          outage_timeouts = !timeouts - t0;
          outage_errors = !errors - e0;
          replayed = recovery.Platform.replayed;
          replay_mismatches = recovery.Platform.mismatches;
          lost_enclaves = List.length lost;
          migration;
          round_violations = List.length report.Hypertee_check.Invariant.violations;
          round_divergences;
        })
  in
  (* Tail traffic over the fully recovered platform, then the
     end-of-run sweeps. *)
  run_phase steady;
  issued := !issued + steady;
  let final = Platform.check ~deep:true platform in
  Platform.detach_oracle platform;
  let events =
    Array.fold_left
      (fun acc rt ->
        List.filter
          (fun ev -> ev.Hypertee_ems.Audit.recovered)
          (Hypertee_ems.Audit.fault_events (Hypertee_ems.Runtime.audit rt))
        @ acc)
      []
      (Platform.Internals.runtimes platform)
  in
  let recovery_sites =
    List.sort_uniq compare (List.map (fun ev -> ev.Hypertee_ems.Audit.site) events)
    |> List.map (fun site ->
           (site, List.length (List.filter (fun ev -> ev.Hypertee_ems.Audit.site = site) events)))
  in
  {
    shards;
    total_ops = !issued;
    rounds;
    total_lost = !total_lost;
    recovered_events = List.length events;
    recovery_sites;
    oracle_observed = Oracle.observed oracle;
    oracle_divergences = Oracle.divergence_count oracle;
    final_violations = List.length final.Hypertee_check.Invariant.violations;
  }

let restart_clean r =
  r.total_lost = 0 && r.oracle_divergences = 0 && r.final_violations = 0
  && List.for_all (fun round -> round.round_violations = 0 && round.replay_mismatches = 0) r.rounds

let print_restart ?(out = stdout) r =
  Printf.fprintf out
    "rolling restart: %d shard(s) killed and recovered in turn, %d ops (no fault plan)\n"
    r.shards r.total_ops;
  Hypertee_util.Table.print ~out
    ~headers:
      [ "killed"; "outage ops"; "timeouts"; "errors"; "replayed"; "mismatch"; "lost";
        "inv"; "oracle div"; "post-recovery migration" ]
    ~aligns:
      Hypertee_util.Table.
        [ Right; Right; Right; Right; Right; Right; Right; Right; Right; Left ]
    (List.map
       (fun round ->
         [
           Printf.sprintf "shard %d" round.shard_killed;
           string_of_int round.outage_ops;
           string_of_int round.outage_timeouts;
           string_of_int round.outage_errors;
           string_of_int round.replayed;
           string_of_int round.replay_mismatches;
           string_of_int round.lost_enclaves;
           string_of_int round.round_violations;
           string_of_int round.round_divergences;
           (match round.migration with Some m -> m | None -> "-");
         ])
       r.rounds);
  Printf.fprintf out "recovered fault events: %d (%s)\n" r.recovered_events
    (String.concat ", "
       (List.map (fun (site, n) -> Printf.sprintf "%s: %d" site n) r.recovery_sites));
  Printf.fprintf out "oracle: %d observed, %d divergence(s); lost enclaves: %d\n"
    r.oracle_observed r.oracle_divergences r.total_lost;
  Printf.fprintf out "end-of-run deep invariant sweep: %d violation(s)\n" r.final_violations;
  Printf.fprintf out "rolling restart %s\n" (if restart_clean r then "PASSED" else "FAILED")

(* The one rendering of a sweep; callers that capture output pass
   their own channel. *)
let print ?(out = stdout) points =
  Hypertee_util.Table.print ~out
    ~headers:
      [ "fault rate"; "ops"; "success"; "degraded"; "timeouts"; "killed"; "p50 (us)";
        "p99 (us)"; "injected"; "recovered"; "retries"; "inv" ]
    ~aligns:
      Hypertee_util.Table.
        [ Right; Right; Right; Right; Right; Right; Right; Right; Right; Right; Right; Right ]
    (List.map
       (fun p ->
         [
           Printf.sprintf "%.2f" p.fault_rate;
           string_of_int p.ops;
           Hypertee_util.Table.pct (p.success_rate *. 100.0);
           string_of_int p.degraded;
           string_of_int p.timeouts;
           string_of_int p.enclaves_killed;
           Hypertee_util.Table.fmt_f ~digits:1 (p.p50_ns /. 1e3);
           Hypertee_util.Table.fmt_f ~digits:1 (p.p99_ns /. 1e3);
           string_of_int p.injected;
           string_of_int p.recovered;
           string_of_int p.retries;
           string_of_int p.invariant_violations;
         ])
       points)
