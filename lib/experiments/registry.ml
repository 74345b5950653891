(* The experiment registry: every run the CLI offers, as one list.

   The paper printers below regenerate each table and figure of the
   paper's evaluation (Sec. VII). Absolute times come from the
   simulator's calibrated models; the claim being reproduced is the
   *shape* — who wins, by what factor, where the crossovers are —
   which each printer states as paper-vs-measured. The entries after
   them wrap the robustness, cloud, verification and host-timing
   experiments behind the same record, so one CLI, one [all] sweep
   and the tests all read the same list. *)

module Config = Hypertee_arch.Config
module Types = Hypertee_ems.Types
module Table = Hypertee_util.Table
module Runner = Hypertee_workloads.Runner
module Profile = Hypertee_workloads.Profile
module Conformance = Hypertee_channel.Conformance

type clock = Modelled | Host
type extra = Deep | Baseline

type params = {
  seed : int64;
  quick : bool;
  size : int;
  deep : bool;
  baseline : string option;
}

type 'a spec = {
  name : string;
  doc : string;
  clock : clock;
  seed : int64 option;
  sizes : (int * int) option;
  extras : extra list;
  run : params -> out_channel -> 'a;
  write : (string * (string -> 'a -> unit)) option;
  clean : 'a -> bool;
}

type t = Entry : 'a spec -> t

let section oc title = Printf.fprintf oc "\n=== %s ===\n" title
let note oc fmt = Printf.fprintf oc (fmt ^^ "\n")

(* ------------------------------------------------------------------ *)
(* Paper tables and figures *)

let table1 oc =
  section oc "Table I: security risks of management-task vs enclave attacks";
  Table.print ~out:oc
    ~headers:[ "Security Threats"; "Attack Management Tasks"; "Attack Enclaves" ]
    (Hypertee.Security.table_i_rows ());
  note oc "paper: management attacks compromise C+I+A; enclave attacks only C. [matches]"

let table2 oc =
  section oc "Table II: HyperTEE primitives";
  Table.print ~out:oc
    ~headers:[ "Primitive"; "Priv."; "Semantics" ]
    (List.map
       (fun op ->
         [
           Types.opcode_name op;
           (match Types.required_privilege op with Types.Os -> "OS" | Types.User -> "User");
           Types.opcode_semantics op;
         ])
       Types.all_opcodes)

let show_core (c : Config.core) =
  [
    c.Config.name;
    (match c.Config.pipeline with Config.In_order -> "In-order" | Config.Out_of_order -> "OoO");
    Printf.sprintf "%d/%d" c.Config.fetch_width c.Config.decode_width;
    Printf.sprintf "%d/%d/%d" c.Config.issue_mem c.Config.issue_int c.Config.issue_fp;
    string_of_int c.Config.btb_entries;
    (if c.Config.rob_entries = 0 then "-" else string_of_int c.Config.rob_entries);
    Printf.sprintf "%d/%d/%d" c.Config.itlb_entries c.Config.dtlb_entries c.Config.l2_tlb_entries;
    Printf.sprintf "%d/%dKB" c.Config.l1i_kb c.Config.l1d_kb;
    Printf.sprintf "%dKB" c.Config.l2_kb;
    Printf.sprintf "%.2fGHz" c.Config.clock_ghz;
  ]

let table3 oc =
  section oc "Table III: prototype parameters";
  Table.print ~out:oc
    ~headers:[ "Core"; "Pipeline"; "Fetch/Dec"; "Mem/Int/Fp"; "BTB"; "ROB"; "TLB I/D/L2"; "L1 I/D"; "L2"; "Clock" ]
    (List.map show_core [ Config.cs_core; Config.ems_weak; Config.ems_medium; Config.ems_strong ]);
  let eng = Hypertee_crypto.Engine.default_hardware in
  note oc "Crypto engine: AES %.2f Gbps, SHA-256 %.1f Gbps, RSA sign %.0f ops/s, verify %.0f ops/s"
    (4096.0 *. 8.0 /. (Hypertee_crypto.Engine.aes_ns eng ~bytes:4096 -. 200.0))
    (4096.0 *. 8.0 /. (Hypertee_crypto.Engine.sha256_ns eng ~bytes:4096 -. 200.0))
    (1e9 /. Hypertee_crypto.Engine.rsa_sign_ns eng)
    (1e9 /. Hypertee_crypto.Engine.rsa_verify_ns eng);
  let g = Config.gemmini in
  note oc "Gemmini: %dx%d PEs, %d KB global buffer, %d KB accumulator"
    g.Config.pe_rows g.Config.pe_cols g.Config.global_buffer_kb g.Config.accumulator_kb

(* ------------------------------------------------------------------ *)

let fig6 ~seed ~requests oc =
  section oc "Fig. 6: SLO for concurrent primitive requests (DES simulation)";
  note oc "each row: p99 latency as a multiple of the non-enclave baseline; smaller is better";
  List.iter
    (fun (cs_cores, ems_configs) ->
      let rows =
        List.map
          (fun (ems_cores, kind) ->
            let c =
              Fig6.run ~seed ~cs_cores ~ems_cores ~ems_kind:kind
                ~requests
            in
            let frac_at x =
              match List.find_opt (fun (m, _) -> m >= x) c.Fig6.points with
              | Some (_, f) -> f *. 100.0
              | None -> 100.0
            in
            [
              string_of_int cs_cores;
              Printf.sprintf "%dx %s" ems_cores (Config.ems_kind_name kind);
              Table.fmt_f ~digits:2 c.Fig6.p99_multiplier;
              Table.pct (frac_at 2.0);
              Table.pct (frac_at 4.0);
              Table.pct (frac_at 8.0);
            ])
          ems_configs
      in
      Table.print ~out:oc
        ~headers:[ "CS cores"; "EMS config"; "p99 (x baseline)"; "<=2x"; "<=4x"; "<=8x" ]
        ~aligns:[ Table.Right; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
        rows)
    Fig6.paper_grid;
  note oc "paper: 1 in-order core suffices for <=4 CS cores; 2 in-order for 16;";
  note oc "       dual OoO ~= quad OoO for 32/64 CS cores. [check the rows above]"

let fig7 oc =
  section oc "Fig. 7: enclave overhead under different EMS core configurations";
  let kinds = [ Config.Weak; Config.Medium; Config.Strong ] in
  let rows =
    List.map
      (fun p ->
        p.Profile.name
        :: List.map
             (fun kind ->
               let r = Runner.run_enclave p ~ems_kind:kind ~crypto_engine:true () in
               Table.pct r.Runner.overhead_pct)
             kinds)
      Hypertee_workloads.Rv8.suite
  in
  let averages =
    "AVERAGE"
    :: List.map
         (fun kind ->
           let total =
             List.fold_left
               (fun acc p ->
                 acc +. (Runner.run_enclave p ~ems_kind:kind ~crypto_engine:true ()).Runner.overhead_pct)
               0.0 Hypertee_workloads.Rv8.suite
           in
           Table.pct (total /. 8.0))
         kinds
  in
  Table.print ~out:oc ~headers:[ "benchmark"; "weak"; "medium"; "strong" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    (rows @ [ averages ]);
  note oc "paper averages: weak 5.7%%, medium 2.0%%, strong 1.9%% (medium ~= strong)"

let table4 oc =
  section oc "Table IV: primitive execution time vs Host-Native (crypto engine off/on)";
  let row p =
    let sw = Runner.run_enclave p ~ems_kind:Config.Medium ~crypto_engine:false () in
    let hw = Runner.run_enclave p ~ems_kind:Config.Medium ~crypto_engine:true () in
    [
      p.Profile.name;
      Table.pct sw.Runner.primitives_pct;
      Table.pct sw.Runner.emeas_pct;
      Table.pct hw.Runner.primitives_pct;
      Printf.sprintf "%.2f%%" hw.Runner.emeas_pct;
    ]
  in
  let rows = List.map row Hypertee_workloads.Rv8.suite in
  let avg f =
    List.fold_left (fun acc p -> acc +. f p) 0.0 Hypertee_workloads.Rv8.suite /. 8.0
  in
  let averages =
    [
      "Average";
      Table.pct (avg (fun p -> (Runner.run_enclave p ~ems_kind:Config.Medium ~crypto_engine:false ()).Runner.primitives_pct));
      Table.pct (avg (fun p -> (Runner.run_enclave p ~ems_kind:Config.Medium ~crypto_engine:false ()).Runner.emeas_pct));
      Table.pct (avg (fun p -> (Runner.run_enclave p ~ems_kind:Config.Medium ~crypto_engine:true ()).Runner.primitives_pct));
      Printf.sprintf "%.2f%%" (avg (fun p -> (Runner.run_enclave p ~ems_kind:Config.Medium ~crypto_engine:true ()).Runner.emeas_pct));
    ]
  in
  Table.print ~out:oc
    ~headers:[ "benchmark"; "NoCrypto All"; "NoCrypto EMEAS"; "Crypto All"; "Crypto EMEAS" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    (rows @ [ averages ]);
  note oc "paper averages: 10.4%% / 7.8%% / 2.5%% / 0.10%%"

let fig8a ~seed oc =
  section oc "Fig. 8a: EALLOC vs malloc latency";
  let rows = Fig8a.run ~seed ~ems_kind:Config.Medium () in
  Table.print ~out:oc
    ~headers:[ "size"; "malloc (us)"; "EALLOC (us)"; "overhead" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    (List.map
       (fun r ->
         [
           Hypertee_util.Units.show_bytes r.Fig8a.size_bytes;
           Table.fmt_f ~digits:1 (r.Fig8a.malloc_ns /. 1e3);
           Table.fmt_f ~digits:1 (r.Fig8a.ealloc_ns /. 1e3);
           Table.pct r.Fig8a.overhead_pct;
         ])
       rows);
  note oc "paper: overhead 6.3%% (128 KiB) rising to 49.7%% (2 MiB)"

let fig8b oc =
  section oc "Fig. 8b: MemStream latency with memory encryption + integrity";
  let rows =
    List.map
      (fun size ->
        let r = Hypertee_workloads.Memstream.run ~size_bytes:size ~latency:Config.default_latency in
        [
          Hypertee_util.Units.show_bytes size;
          string_of_int r.Hypertee_workloads.Memstream.l2_misses;
          Table.fmt_f ~digits:2 (r.Hypertee_workloads.Memstream.cycles_plain /. 1e6);
          Table.fmt_f ~digits:2 (r.Hypertee_workloads.Memstream.cycles_encrypted /. 1e6);
          Table.pct r.Hypertee_workloads.Memstream.overhead_pct;
        ])
      Hypertee_workloads.Memstream.paper_sizes
  in
  Table.print ~out:oc
    ~headers:[ "size"; "LLC misses"; "plain (Mcyc)"; "encrypted (Mcyc)"; "overhead" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    rows;
  note oc "paper: average 3.1%% on the worst-case streaming workload"

let fig9 oc =
  section oc "Fig. 9: all enclave memory management on wolfSSL";
  let p = Hypertee_workloads.Rv8.wolfssl in
  let native =
    Hypertee_arch.Perf_model.run Config.cs_core Config.default_latency
      ~instructions:p.Profile.instructions ~behavior:p.Profile.behavior
      ~scenario:Hypertee_arch.Perf_model.native
  in
  let encrypted =
    Hypertee_arch.Perf_model.run Config.cs_core Config.default_latency
      ~instructions:p.Profile.instructions ~behavior:p.Profile.behavior
      ~scenario:Hypertee_arch.Perf_model.m_encrypt
  in
  (* Allocation cost relative to the malloc the native run pays. *)
  let cost = Hypertee.Platform.Internals.cost (Hypertee.Platform.create ()) in
  let alloc_delta =
    List.fold_left
      (fun acc (pages, times) ->
        let ealloc = Hypertee_ems.Cost.alloc_ns cost ~pages +. 670.0 in
        let malloc = 25_000.0 +. (float_of_int pages *. 700.0) in
        acc +. (float_of_int times *. Float.max 0.0 (ealloc -. malloc)))
      0.0 p.Profile.dynamic_allocs
  in
  let flush_cost =
    (* pool-batch bitmap flushes during the run *)
    let flushes = Fig11.flushes_per_billion_instructions () *. p.Profile.instructions /. 1e9 in
    flushes *. Hypertee_arch.Perf_model.tlb_refill_cycles Config.cs_core Config.default_latency
    /. Config.cs_core.Config.clock_ghz
  in
  let total = encrypted.Hypertee_arch.Perf_model.time_ns +. alloc_delta +. flush_cost in
  let overhead = (total /. native.Hypertee_arch.Perf_model.time_ns -. 1.0) *. 100.0 in
  Table.print ~out:oc
    ~headers:[ "scenario"; "time (ms)"; "overhead" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right ]
    [
      [ "Host-Native"; Table.fmt_f ~digits:2 (native.Hypertee_arch.Perf_model.time_ns /. 1e6); "-" ];
      [ "Enclave (encryption+integrity)";
        Table.fmt_f ~digits:2 (encrypted.Hypertee_arch.Perf_model.time_ns /. 1e6);
        Table.pct ((encrypted.Hypertee_arch.Perf_model.time_ns /. native.Hypertee_arch.Perf_model.time_ns -. 1.0) *. 100.0) ];
      [ "Enclave (all memory management)"; Table.fmt_f ~digits:2 (total /. 1e6); Table.pct overhead ];
    ];
  note oc "paper: 0.9%% overall for wolfSSL"

let fig10 oc =
  section oc "Fig. 10: bitmap checking on non-enclave SPEC CPU2017";
  let rows =
    List.map
      (fun p ->
        let r = Runner.run_host_bitmap p in
        [ p.Profile.name; Table.pct r.Runner.overhead_pct ])
      Hypertee_workloads.Spec2017.suite
  in
  let avg =
    List.fold_left
      (fun acc p -> acc +. (Runner.run_host_bitmap p).Runner.overhead_pct)
      0.0 Hypertee_workloads.Spec2017.suite
    /. 10.0
  in
  Table.print ~out:oc ~headers:[ "benchmark"; "overhead" ]
    ~aligns:[ Table.Left; Table.Right ]
    (rows @ [ [ "AVERAGE"; Table.pct avg ] ]);
  note oc "paper: average 1.9%%; xalancbmk_r worst at 4.6%% (TLB-miss heavy)"

let fig11 oc =
  section oc "Fig. 11: TLB-flush overhead on enclaves (miniz) vs context-switch rate";
  let rows = Fig11.run () in
  let headers =
    "memory"
    :: List.map (fun f -> Printf.sprintf "%.0f Hz" f) Fig11.paper_frequencies
  in
  let by_size =
    List.map
      (fun mb ->
        Printf.sprintf "%d MiB" mb
        :: List.filter_map
             (fun r ->
               if r.Fig11.memory_mb = mb then
                 Some (Table.pct r.Fig11.overhead_pct)
               else None)
             rows)
      Fig11.paper_sizes_mb
  in
  Table.print ~out:oc ~headers ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ] by_size;
  note oc "paper: <= 1.81%% at 32 MiB / 400 Hz; bitmap updates cause %.1f full flushes"
    (Fig11.flushes_per_billion_instructions ());
  note oc "per billion instructions (paper: 16.72)"

let fig12 oc =
  section oc "Fig. 12: enclave communication (DNN on Gemmini; NIC)";
  let rows =
    List.map
      (fun net ->
        let r = Hypertee_accel.Comm_scenario.run_dnn net in
        [
          r.Hypertee_accel.Comm_scenario.network;
          Table.fmt_f ~digits:1 (r.Hypertee_accel.Comm_scenario.conventional_total_ns /. 1e6);
          Table.fmt_f ~digits:1 (r.Hypertee_accel.Comm_scenario.hypertee_total_ns /. 1e6);
          Table.pct r.Hypertee_accel.Comm_scenario.crypto_share_pct;
          Table.speedup r.Hypertee_accel.Comm_scenario.speedup;
        ])
      Hypertee_workloads.Dnn.all
  in
  let nic = Hypertee_accel.Comm_scenario.run_nic ~packets:100_000 ~payload_bytes:1500 in
  let nic_row =
    [
      "NIC (100k x 1500B)";
      Table.fmt_f ~digits:1 (nic.Hypertee_accel.Comm_scenario.conventional_total_ns /. 1e6);
      Table.fmt_f ~digits:1 (nic.Hypertee_accel.Comm_scenario.hypertee_total_ns /. 1e6);
      Table.pct nic.Hypertee_accel.Comm_scenario.crypto_share_pct;
      Table.speedup nic.Hypertee_accel.Comm_scenario.speedup;
    ]
  in
  Table.print ~out:oc
    ~headers:[ "workload"; "conventional (ms)"; "HyperTEE (ms)"; "sw-crypto share"; "speedup" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    (rows @ [ nic_row ]);
  note oc "paper: ResNet50 >4.0x (crypto >74.7%%), MobileNet >3.3x, MLPs >27.7x, NIC ~50x (>98%%)"

let table5 oc =
  section oc "Table V: EMS area overhead (TSMC 7nm model)";
  let rows =
    List.map
      (fun (r : Hypertee_arch.Area.report) ->
        [
          string_of_int r.Hypertee_arch.Area.cs_cores;
          Printf.sprintf "%.0f mm2" r.Hypertee_arch.Area.cs_area_mm2;
          Printf.sprintf "%d %s" r.Hypertee_arch.Area.ems_cores
            (Config.ems_kind_name r.Hypertee_arch.Area.ems_kind);
          Printf.sprintf "%.2f mm2" r.Hypertee_arch.Area.ems_area_mm2;
          Printf.sprintf "%.2f%%" r.Hypertee_arch.Area.overhead_pct;
        ])
      (Hypertee_arch.Area.table_v ())
  in
  Table.print ~out:oc
    ~headers:[ "CS cores"; "CS area"; "EMS cores"; "EMS area"; "overhead" ]
    ~aligns:[ Table.Right; Table.Right; Table.Left; Table.Right; Table.Right ]
    rows;
  note oc "paper: 0.97%% / 0.46%% / 0.34%% / 0.49%% / 0.25%% — always < 1%%"

let table6 oc =
  section oc "Table VI: defense capability against management-task attacks";
  Table.print ~out:oc
    ~headers:("TEE" :: List.map Hypertee.Security.attack_name Hypertee.Security.all_attacks)
    (Hypertee.Security.table_vi_rows ());
  (* Each cell is also re-derived by executing the mechanism probe
     (Table6_probe); verify live. *)
  let mismatches = ref 0 in
  List.iter
    (fun tee ->
      List.iter
        (fun attack ->
          if
            Table6_probe.derived_capability tee attack
            <> Hypertee.Security.defends tee attack
          then incr mismatches)
        Hypertee.Security.all_attacks)
    Hypertee.Security.all_tees;
  note oc "probed all 45 cells by executing each design's mechanisms: %d mismatch(es)" !mismatches;
  note oc "paper: HyperTEE defends all five classes; others partially or not at all";
  !mismatches

(* ------------------------------------------------------------------ *)

let ablations oc =
  section oc "Ablations: what each design choice buys";
  let module A = Ablations in
  let p = A.pool () in
  Table.print ~out:oc
    ~headers:[ "design"; "OS-visible events"; "mean EALLOC (us)" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right ]
    [
      [ Printf.sprintf "memory pool (per %d allocs)" p.A.allocations;
        string_of_int p.A.os_events_with_pool;
        Table.fmt_f ~digits:1 (p.A.latency_with_pool_ns /. 1e3) ];
      [ "no pool (SGX-like demand)";
        string_of_int p.A.os_events_without_pool;
        Table.fmt_f ~digits:1 (p.A.latency_without_pool_ns /. 1e3) ];
    ];
  let th = A.threshold () in
  note oc "refill-threshold randomization (%d refills observed):" th.A.refills_observed;
  note oc "  fixed threshold  : inter-refill stddev %.2f allocations (predictable)"
    th.A.fixed_interval_stddev;
  note oc "  randomized       : inter-refill stddev %.2f allocations" th.A.randomized_interval_stddev;
  let iso = A.isolation () in
  Table.print ~out:oc
    ~headers:[ "isolation scheme"; "regions supported (of needed)" ]
    [
      [ Printf.sprintf "range registers (%d pairs)" iso.A.range_registers;
        Printf.sprintf "%d of %d" iso.A.range_scheme_supported iso.A.fragmented_regions ];
      [ "HyperTEE bitmap"; Printf.sprintf "%d of %d" iso.A.bitmap_supported iso.A.fragmented_regions ];
    ];
  let sw = A.swap () in
  note oc "EWB victim selection (%d reclamation trials):" sw.A.trials;
  note oc "  randomized pool-backed : attacker observed the victim fault %d time(s)"
    sw.A.victim_faults_randomized;
  note oc "  direct victim swapping : attacker observed the victim fault %d time(s)"
    sw.A.victim_faults_direct

(* ------------------------------------------------------------------ *)
(* Robustness, cloud, verification and host-timing runs *)

let chaos (p : params) oc =
  section oc "Chaos: availability SLO under injected platform faults";
  note oc "uniform fault plan over all sites (drop/dup/corrupt/stall/crash/flip/...);";
  note oc "ops=%d, seed=%Ld; recovery = EMCall retry + EMS watchdog + containment" p.size p.seed;
  let points = Chaos.run ~seed:p.seed ~ops:p.size in
  Chaos.print ~out:oc points;
  note oc "expect: success monotonically degrades with the rate; the platform itself";
  note oc "        never crashes or hangs — faults cost latency and killed enclaves";
  points

let scale (p : params) oc =
  section oc "Scale: CS cores x EMS shards x doorbell batch size";
  note oc "EALLOC fleet workload; one doorbell drains a batch through the EMS scheduler;";
  note oc "ops=%d per point, seed=%Ld; throughput = served / modelled EMS makespan" p.size p.seed;
  let points = Scale.run ~seed:p.seed ~ops:p.size () in
  Scale.print ~out:oc points;
  note oc "expect: per-call overhead strictly falls as the batch grows;";
  note oc "        aggregate Mops/s rises with the shard count";
  points

let cloud (p : params) oc =
  section oc "Cloud: enclave-as-a-service SLO curves (warm pool + admission control)";
  note oc "open-loop tenant sessions (EWARM|cold launch -> attest -> channel ops -> ERETIRE);";
  note oc "per-shard FCFS queue in virtual time; seed=%Ld; every point ends with a deep" p.seed;
  note oc "invariant sweep and the differential oracle's verdict";
  let outcome = Cloud.run ~seed:p.seed ~quick:p.quick () in
  Cloud.print ~out:oc outcome;
  outcome

let restart (p : params) oc =
  section oc "Rolling restart: every EMS shard killed and cold-restarted under traffic";
  note oc "ops=%d, seed=%Ld; journal replay, then a live migration and an invariant sweep" p.size
    p.seed;
  let report = Chaos.rolling_restart ~seed:p.seed ~ops:p.size () in
  Chaos.print_restart ~out:oc report;
  report

let rebalance (p : params) oc =
  section oc "Rebalance: hot-shard live migration payoff";
  note oc "4 shards, whole fleet homed on shard 0; ops=%d per pass, seed=%Ld" p.size p.seed;
  let report = Scale.rebalance ~seed:p.seed ~ops:p.size () in
  Scale.print_rebalance ~out:oc report;
  report

(* Explorer scenarios scale with the replay: 12 at the CI size of 600
   calls, 24 at the full 1200. *)
let check (p : params) oc =
  Verify.run ~deep:p.deep ~calls:p.size ~seeds:(p.size / 50) ~out:oc ()

let conformance _ oc =
  let outcomes = Conformance.run () in
  output_string oc (Conformance.render outcomes);
  outcomes

let metrics (p : params) oc = Tracing.metrics ~out:oc ~seed:p.seed ~ops:p.size ()

(* Allowed drop of a speedup-vs-reference ratio below the baseline
   before the guard fails, absorbing benchmark noise. *)
let tolerance_pct = 30.0

let perf (p : params) oc =
  section oc "Perf: wall-clock data plane (real elapsed time, not the timing models)";
  note oc "the speedup-vs-reference rows are the portable signal";
  (* Read the baseline before anything is written: the artifact and
     the baseline may be the same file. *)
  let baseline =
    match p.baseline with
    | Some path when Sys.file_exists path -> Some (path, Perf.load_baseline ~path)
    | Some path ->
      note oc "WARNING: baseline %s not found; skipping the perf regression guard" path;
      None
    | None -> None
  in
  let samples = Perf.run ~quick:p.quick () in
  Perf.print ~out:oc samples;
  let regressions =
    match baseline with
    | None -> []
    | Some (path, base) ->
      let regs = Perf.compare_to_baseline ~baseline:base ~tolerance_pct samples in
      if regs = [] then
        note oc "perf guard: speedup ratios within %.0f%% of %s" tolerance_pct path;
      List.iter
        (fun r ->
          note oc "perf guard: REGRESSION %s %s: %.2fx -> %.2fx (tolerance %.0f%%)"
            r.Perf.r_target r.Perf.r_metric r.Perf.r_baseline r.Perf.r_current tolerance_pct)
        regs;
      regs
  in
  (samples, regressions)

(* ------------------------------------------------------------------ *)
(* The list *)

let with_file path f =
  let ch = open_out path in
  Fun.protect ~finally:(fun () -> close_out ch) (fun () -> f ch)

let entry ?(clock = Modelled) ?seed ?sizes ?(extras = []) ?write ~clean name doc run =
  Entry { name; doc; clock; seed; sizes; extras; run; write; clean }

let always_clean () = true
let printer ?seed ?sizes name doc run = entry ?seed ?sizes ~clean:always_clean name doc run

(* An artifact written as the text [render] returns. *)
let text what render = (what, fun path x -> with_file path (fun ch -> output_string ch (render x)))


let paper =
  [
    printer "table1" "Table I: security risks of management-task vs enclave attacks"
      (fun _ -> table1);
    printer "table2" "Table II: the HyperTEE primitives" (fun _ -> table2);
    printer "table3" "Table III: prototype parameters" (fun _ -> table3);
    printer "fig6" ~seed:0x516L ~sizes:(2048, 16384)
      "Fig. 6: SLO for concurrent primitive requests (discrete-event simulation)"
      (fun (p : params) -> fig6 ~seed:p.seed ~requests:p.size);
    printer "fig7" "Fig. 7: enclave overhead per EMS core configuration" (fun _ -> fig7);
    printer "table4" "Table IV: primitive execution time vs Host-Native" (fun _ -> table4);
    printer "fig8a" ~seed:0x8AL "Fig. 8a: EALLOC vs malloc latency" (fun (p : params) ->
        fig8a ~seed:p.seed);
    printer "fig8b" "Fig. 8b: MemStream latency with memory encryption + integrity"
      (fun _ -> fig8b);
    printer "fig9" "Fig. 9: all enclave memory management on wolfSSL" (fun _ -> fig9);
    printer "fig10" "Fig. 10: bitmap checking on non-enclave SPEC CPU2017" (fun _ -> fig10);
    printer "fig11" "Fig. 11: TLB-flush overhead vs context-switch rate" (fun _ -> fig11);
    printer "fig12" "Fig. 12: enclave communication (DNN on Gemmini; NIC)" (fun _ -> fig12);
    printer "table5" "Table V: EMS area overhead" (fun _ -> table5);
    entry "table6" ~clean:(fun mismatches -> mismatches = 0)
      "Table VI: defense capability, each cell re-derived by a mechanism probe"
      (fun _ -> table6);
    printer "ablations" "Ablations: what each design choice buys" (fun _ -> ablations);
  ]

let all =
  paper
  @ [
      entry "chaos" ~seed:0xC4A05L ~sizes:(300, 2000)
        ~clean:(List.for_all (fun pt -> pt.Chaos.invariant_violations = 0))
        "Availability sweep under deterministic fault injection" chaos;
      entry "scale" ~seed:0x5CA1EL ~sizes:(64, Scale.default_ops)
        ~clean:(fun (batch, shards) ->
          List.for_all (fun pt -> pt.Scale.invariant_violations = 0) (batch @ shards))
        "Scalability sweep: CS cores x EMS shards x doorbell batch size" scale;
    ]

let entries =
  all
  @ [
      entry "cloud" ~seed:0x5EEDL ~clean:Cloud.clean
        ~write:(text "the SLO curves as JSON" Cloud.json_of_outcome)
        "Multi-tenant enclave-as-a-service sweep: SLO curves, admission control, warm pool"
        cloud;
      entry "restart" ~seed:0x5EEDL
        ~sizes:(Chaos.restart_default_ops, Chaos.restart_default_ops)
        ~clean:Chaos.restart_clean
        ~write:
          ( "the rolling-restart report",
            fun path r -> with_file path (fun ch -> Chaos.print_restart ~out:ch r) )
        "Rolling restart: kill and cold-restart every EMS shard under live traffic" restart;
      entry "rebalance" ~seed:0x5EBA1A4CEL ~sizes:(64, 192)
        ~clean:(fun r -> r.Scale.rebalance_violations = 0 && r.Scale.migration_failures = 0)
        "Hot-shard rebalancing by live migration" rebalance;
      entry "check" ~sizes:(600, 1200) ~extras:[ Deep ] ~clean:Fun.id
        "Invariant sweep plus EMCall replay against the differential oracle" check;
      entry "conformance" ~clean:Conformance.all_ok
        "Secure-channel protocol conformance vectors (docs/PROTOCOL.md section 7)" conformance;
      entry "metrics" ~seed:0x5EEDL ~sizes:(400, 400) ~clean:(fun _ -> true)
        ~write:(text "the registry as JSON" Hypertee_obs.Metrics.to_json)
        "Platform metrics registry after a mixed workload" metrics;
      entry "perf" ~clock:Host ~extras:[ Baseline ]
        ~clean:(fun (_, regressions) -> regressions = [])
        ~write:("the samples as JSON", fun path (samples, _) -> Perf.write_json ~path samples)
        "Wall-clock microbenchmarks of the crypto data plane" perf;
    ]

let params (Entry e) ?seed ?(deep = false) ?baseline ~quick () =
  let seed = match seed with Some s -> s | None -> Option.value e.seed ~default:0L in
  let size = match e.sizes with Some (q, f) -> if quick then q else f | None -> 0 in
  { seed; quick; size; deep; baseline }

let execute (Entry e) p ?out oc =
  let result = e.run p oc in
  (match (out, e.write) with
  | Some path, Some (what, write) ->
    write path result;
    Printf.fprintf oc "wrote %s to %s\n" what path
  | _ -> ());
  e.clean result
