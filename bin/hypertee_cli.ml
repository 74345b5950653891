(* hypertee: command-line front end for the simulator.

   Every experiment is an entry of Hypertee_experiments.Registry and
   gets a subcommand here: the paper's tables and figures (table1 ..
   table6, fig6 .. fig12, ablations), chaos, scale, cloud, restart,
   rebalance, check, conformance, metrics, perf and perf-parallel.
   [all] runs the deterministic sweep (paper entries, chaos, scale).
   Each entry's verdict sets the exit code. Five plain commands sit
   beside them:
     info                     platform and configuration summary
     demo                     run the full enclave-lifecycle demo
     attest                   run remote attestation end to end
     cost <primitive>         service-time breakdown on each EMS core
     trace <experiment>       traced run exported as Chrome trace_event JSON *)

open Cmdliner
module Types = Hypertee_ems.Types
module Config = Hypertee_arch.Config
module Table = Hypertee_util.Table
module Registry = Hypertee_experiments.Registry

let seed_arg default =
  let doc = "Deterministic seed." in
  Arg.(value & opt int64 default & info [ "seed" ] ~docv:"SEED" ~doc)

let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"CI-sized run.")
let out_info doc = Arg.info [ "out"; "o" ] ~docv:"FILE" ~doc

(* --- info --- *)

let info_cmd =
  let run seed =
    let platform = Hypertee.Platform.create ~seed () in
    let config = Hypertee.Platform.config platform in
    Printf.printf "HyperTEE platform (seed %#Lx)\n" seed;
    Printf.printf "  CS cores       : %d x %s\n" config.Config.cs_cores Config.cs_core.Config.name;
    Printf.printf "  EMS cores      : %d x %s\n" config.Config.ems_cores
      (Config.ems_core config.Config.ems_kind).Config.name;
    Printf.printf "  memory         : %d MiB CS + %d MiB EMS private\n" config.Config.memory_mb
      config.Config.ems_memory_mb;
    Printf.printf "  crypto engine  : %b\n" config.Config.crypto_engine;
    Printf.printf "  platform hash  : %s\n"
      (Hypertee_util.Bytes_ext.to_hex (Hypertee.Platform.platform_measurement platform));
    Printf.printf "  EK public      : %s...\n"
      (String.sub
         (Hypertee_util.Bytes_ext.to_hex
            (Hypertee_crypto.Rsa.public_to_bytes (Hypertee.Platform.ek_public platform)))
         0 32);
    0
  in
  Cmd.v (Cmd.info "info" ~doc:"Show the platform configuration")
    Term.(const run $ seed_arg 0x5EEDL)

(* --- demo --- *)

let demo_cmd =
  let run seed =
    let platform = Hypertee.Platform.create ~seed () in
    let image =
      Hypertee.Sdk.image_of_code ~code:(Bytes.of_string "demo enclave")
        ~data:(Bytes.of_string "demo data") ()
    in
    match Hypertee.Sdk.launch platform image with
    | Error m -> `Error (false, m)
    | Ok enclave -> (
      Printf.printf "enclave %d launched (measurement verified)\n" enclave;
      match Hypertee.Sdk.enter platform ~enclave with
      | Error m -> `Error (false, m)
      | Ok session ->
        Hypertee.Session.write session ~va:(Hypertee.Session.heap_va session)
          (Bytes.of_string "hello");
        Printf.printf "encrypted heap write/read: %S\n"
          (Bytes.to_string
             (Hypertee.Session.read session ~va:(Hypertee.Session.heap_va session) ~len:5));
        (match Hypertee.Session.alloc_timed session ~pages:4 with
        | Ok (va, latency_ns) ->
          Printf.printf "EALLOC -> va %#x (%.1f us round trip)\n" va (latency_ns /. 1e3)
        | Error e -> Printf.printf "EALLOC failed: %s\n" (Types.error_message e));
        (match Hypertee.Sdk.destroy platform ~enclave with
        | Ok () -> print_endline "enclave destroyed"
        | Error m -> Printf.printf "destroy failed: %s\n" m);
        `Ok 0)
  in
  Cmd.v (Cmd.info "demo" ~doc:"Run the enclave lifecycle demo")
    Term.(ret (const run $ seed_arg 0x5EEDL))

(* --- attest --- *)

let attest_cmd =
  let run seed =
    let platform = Hypertee.Platform.create ~seed () in
    let image = Hypertee.Sdk.image_of_code ~code:(Bytes.of_string "attested code") ~data:Bytes.empty () in
    match Hypertee.Sdk.launch platform image with
    | Error m -> `Error (false, m)
    | Ok enclave -> (
      match Hypertee.Sdk.enter platform ~enclave with
      | Error m -> `Error (false, m)
      | Ok session -> (
        let rng = Hypertee_util.Xrng.create (Int64.succ seed) in
        match
          Hypertee.Verifier.attest_enclave ~rng ~ek:(Hypertee.Platform.ek_public platform)
            ~ak:(Hypertee.Platform.ak_public platform)
            ~expected_measurement:(Hypertee.Sdk.expected_measurement image)
            session
        with
        | Ok outcome ->
          Printf.printf "attestation OK\n  enclave measurement: %s\n  shared session key : %s\n"
            (Hypertee_util.Bytes_ext.to_hex
               outcome.Hypertee.Verifier.quote.Hypertee_ems.Attest.enclave_measurement)
            (Hypertee_util.Bytes_ext.to_hex outcome.Hypertee.Verifier.session_key);
          `Ok 0
        | Error f -> `Error (false, Hypertee.Verifier.failure_message f)))
  in
  Cmd.v (Cmd.info "attest" ~doc:"Run remote attestation end to end")
    Term.(ret (const run $ seed_arg 0x5EEDL))

(* --- cost --- *)

let cost_cmd =
  let primitive_arg =
    let doc = "Primitive name (e.g. EALLOC, ECREATE, EATTEST)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PRIMITIVE" ~doc)
  in
  let pages_arg =
    let doc = "Page count for size-dependent primitives." in
    Arg.(value & opt int 16 & info [ "pages" ] ~docv:"N" ~doc)
  in
  let run name pages =
    let name = String.uppercase_ascii name in
    match List.find_opt (fun op -> Types.opcode_name op = name) Types.all_opcodes with
    | None -> `Error (false, "unknown primitive " ^ name)
    | Some op ->
      let request : Types.request =
        match op with
        | Types.ECREATE -> Types.Create { config = Types.default_config }
        | Types.EADD -> Types.Add { enclave = 1; vpn = 0; data = Bytes.create 4096; executable = false }
        | Types.EENTER -> Types.Enter { enclave = 1 }
        | Types.ERESUME -> Types.Resume { enclave = 1 }
        | Types.EEXIT -> Types.Exit { enclave = 1 }
        | Types.EDESTROY -> Types.Destroy { enclave = 1 }
        | Types.EALLOC -> Types.Alloc { enclave = 1; pages }
        | Types.EFREE -> Types.Free { enclave = 1; vpn = 0; pages }
        | Types.EWB -> Types.Writeback { pages_hint = pages }
        | Types.ESHMGET -> Types.Shmget { owner = 1; pages; max_perm = Types.Read_write }
        | Types.ESHMAT -> Types.Shmat { enclave = 1; shm = 1; requested_perm = Types.Read_write }
        | Types.ESHMDT -> Types.Shmdt { enclave = 1; shm = 1 }
        | Types.ESHMSHR -> Types.Shmshr { owner = 1; shm = 1; grantee = 2; perm = Types.Read_only }
        | Types.ESHMDES -> Types.Shmdes { owner = 1; shm = 1 }
        | Types.EMEAS -> Types.Measure { enclave = 1 }
        | Types.EATTEST -> Types.Attest { enclave = 1; user_data = Bytes.empty }
        | Types.ECHOPEN -> Types.Chan_open { listener = 1 }
        | Types.ECHACC -> Types.Chan_accept { enclave = 1; chan = 1 }
        | Types.ECHSEND -> Types.Chan_send { chan = 1; seg = Bytes.create 256 }
        | Types.ECHRECV -> Types.Chan_recv { chan = 1 }
        | Types.ECHCLOSE -> Types.Chan_close { chan = 1 }
        | Types.ERETIRE -> Types.Retire { enclave = 1 }
        | Types.EWARM -> Types.Warm_create { measurement = Bytes.create 32 }
      in
      let rows =
        List.concat_map
          (fun kind ->
            List.map
              (fun engine_on ->
                let engine =
                  if engine_on then Hypertee_crypto.Engine.default_hardware
                  else Hypertee_crypto.Engine.default_software
                in
                let cost = Hypertee_ems.Cost.create ~ems:(Config.ems_core kind) ~engine in
                [
                  Config.ems_kind_name kind;
                  (if engine_on then "hw" else "sw");
                  Hypertee_util.Units.show_ns (Hypertee_ems.Cost.service_ns cost request);
                ])
              [ true; false ])
          [ Config.Weak; Config.Medium; Config.Strong ]
      in
      Table.print ~headers:[ "EMS core"; "crypto"; "service time" ] rows;
      `Ok 0
  in
  Cmd.v (Cmd.info "cost" ~doc:"Service-time of a primitive on each EMS configuration")
    Term.(ret (const run $ primitive_arg $ pages_arg))

(* --- trace --- *)

let trace_cmd =
  let target_arg =
    let doc =
      "Experiment to trace: " ^ String.concat ", " Hypertee_experiments.Tracing.target_names ^ "."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let out_arg =
    Arg.(value & opt string "trace.json" & out_info "Where to write the Chrome trace_event JSON.")
  in
  let run seed target quick path =
    match Hypertee_experiments.Tracing.target_of_string target with
    | None ->
      `Error
        (false,
         Printf.sprintf "unknown experiment %S (one of: %s)" target
           (String.concat ", " Hypertee_experiments.Tracing.target_names))
    | Some t ->
      ignore (Hypertee_experiments.Tracing.run ~quick ~seed ~path t);
      Printf.printf "load %s in chrome://tracing or ui.perfetto.dev\n" path;
      `Ok 0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run an experiment under the span tracer and export Chrome trace_event JSON")
    Term.(ret (const run $ seed_arg 0x5EEDL $ target_arg $ quick_arg $ out_arg))

(* --- registry entries --- *)

let verdict name clean =
  if clean then 0
  else begin
    Printf.eprintf "%s: FAILED\n" name;
    1
  end

let deep_arg =
  Arg.(
    value & flag
    & info [ "deep" ] ~doc:"Also MAC-verify every mapped enclave and shared page.")

let baseline_arg =
  Arg.(
    value & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "Compare the fresh speedup-vs-reference ratios against the samples in $(docv) \
           (a previously written perf JSON) and fail if any fell more than 30%. Raw MB/s \
           is not gated: it is machine-dependent, the ratios are not.")

let entry_cmd (Registry.Entry e as entry) =
  let seed =
    match e.seed with Some s -> Term.(const Option.some $ seed_arg s) | None -> Term.const None
  in
  let out =
    match e.write with
    | Some (what, _) ->
      Arg.(value & opt (some string) None & out_info ("Also write " ^ what ^ " to $(docv)."))
    | None -> Term.const None
  in
  let extra x arg default = if List.mem x e.extras then arg else Term.const default in
  let run seed quick out deep baseline =
    let params = Registry.params entry ?seed ~deep ?baseline ~quick () in
    verdict e.name (Registry.execute entry params ?out stdout)
  in
  let doc =
    match e.sizes with
    | Some (quick, full) -> Printf.sprintf "%s (size %d, or %d with --quick)." e.doc full quick
    | None -> e.doc ^ "."
  in
  Cmd.v (Cmd.info e.name ~doc)
    Term.(
      const run $ seed $ quick_arg $ out $ extra Registry.Deep deep_arg false
      $ extra Registry.Baseline baseline_arg None)

let all_cmd =
  let run quick =
    List.fold_left
      (fun code (Registry.Entry e as entry) ->
        let clean = Registry.execute entry (Registry.params entry ~quick ()) stdout in
        Stdlib.max code (verdict e.name clean))
      0 Registry.all
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:"Run every paper table and figure, then chaos and scale; deterministic output.")
    Term.(const run $ quick_arg)

let () =
  let doc = "HyperTEE: a decoupled TEE architecture simulator (MICRO 2024 reproduction)" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default
          (Cmd.info "hypertee" ~version:"1.0.0" ~doc)
          ([ info_cmd; demo_cmd; attest_cmd; cost_cmd; trace_cmd; all_cmd ]
          @ List.map entry_cmd Registry.entries)))
