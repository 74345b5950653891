(* perfbench: the repository's benchmark.

     main.exe --workload tenant-mix|tenant-cold|channel-echo --seed N
              --seconds S --trace 0|1

   Prints the provenance, every metric of the workload by name with
   its unit, clock and sample count, and as the last line one JSON
   object: with --trace 0 the end-to-end metrics, with --trace 1 the
   per-layer metrics of a separate traced pass. A run that finds an
   invariant violation, an oracle divergence, a measurement or echo
   mismatch, a ledger that does not sum, or two passes of one seed
   that disagree, exits 1 and prints no metrics. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload tenant-mix|tenant-cold|channel-echo --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse argv =
  let rec go acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload =
    match List.assoc_opt (get "workload") Bench.workloads with Some w -> w | None -> usage ()
  in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  (workload, Int64.of_int (int "seed"), seconds, trace)

let finite_or_fail (m : Bench.metric) =
  if not (Float.is_finite m.Bench.value) then
    raise (Bench.Incorrect (Printf.sprintf "metric %s is not a finite number" m.Bench.name))

let print_metrics ms =
  Printf.printf "%-36s %22s  %-8s %-8s %s\n" "metric" "value" "unit" "clock" "samples";
  List.iter
    (fun (m : Bench.metric) ->
      Printf.printf "%-36s %22.9g  %-8s %-8s %s\n" m.Bench.name m.Bench.value m.Bench.unit
        m.Bench.clock m.Bench.n)
    ms

let json_line ~attempted ~failed ms =
  let fields =
    List.map
      (fun (m : Bench.metric) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.Bench.name m.Bench.value
          m.Bench.unit)
      ms
  in
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    attempted failed (String.concat ", " fields)

let print_provenance workload ~seed ~seconds ~traced (o : Bench.outcome) =
  let first = o.Bench.first in
  Printf.printf "perfbench %s seed=%Ld seconds=%d trace=%d nproc=%d ocaml=%s exec=%s shards=%d\n"
    (Bench.workload_name workload) seed seconds
    (if traced then 1 else 0)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (Hypertee_sim.Exec.to_string (Hypertee_sim.Exec.default_mode ()))
    Bench.config.Hypertee_arch.Config.ems_shards;
  Printf.printf "passes=%d (full %d) modelled_hash=%s attempted=%d failed=%d failed_frac=%.6f\n"
    (List.length o.Bench.passes)
    (List.length (List.filter (fun p -> p.Bench.sample_full) o.Bench.passes))
    first.Bench.hash first.Bench.attempted first.Bench.failed
    (float_of_int first.Bench.failed /. float_of_int first.Bench.attempted);
  match first.Bench.raw with
  | Bench.Open_result r when workload = Bench.Tenant_mix ->
    Printf.printf "%8s %6s %6s %12s %12s %s\n" "rate/s" "n" "failed" "p99_ms" "growth_ms"
      "meets SLO";
    List.iter
      (fun (g : Bench.rung) ->
        Printf.printf "%8.0f %6d %6d %12.4f %12.4f %b\n" g.Bench.rate g.Bench.sessions
          g.Bench.failed_sessions (g.Bench.p99_ns /. 1e6) (g.Bench.growth_ns /. 1e6) g.Bench.passes)
      (Bench.rungs ~ladder:Bench.mix_ladder r)
  | Bench.Closed_result r ->
    Printf.printf "records sealed by clients=%d rekeys=%d over %d completed sessions\n"
      r.Echo.records r.Echo.rekeys
      (first.Bench.attempted - first.Bench.failed)
  | Bench.Open_result _ -> ()

let () =
  let workload, seed, seconds, traced = parse Sys.argv in
  let name = Bench.workload_name workload in
  (* HYPERTEE_EXEC=parallel would run a different program than the one
     measured here. *)
  (match Hypertee_sim.Exec.default_mode () with
  | Hypertee_sim.Exec.Deterministic -> ()
  | mode ->
    Printf.eprintf "perfbench: refusing to run in %s mode; unset %s\n"
      (Hypertee_sim.Exec.to_string mode) Hypertee_sim.Exec.env_var;
    exit 1);
  match
    let o = Bench.run workload ~seed ~seconds ~traced in
    let e2e =
      Bench.end_to_end workload ~setups:o.Bench.setups ~peak_heap_words:o.Bench.peak_heap_words
        ~first:o.Bench.first ~passes:o.Bench.passes
    in
    let layers =
      Option.map
        (fun traced ->
          Bench.per_layer workload ~untraced:o.Bench.first ~traced ~setups:o.Bench.setups)
        o.Bench.traced_pass
    in
    List.iter finite_or_fail (e2e @ Option.value layers ~default:[]);
    (o, e2e, layers)
  with
  | exception Bench.Incorrect reason ->
    Printf.eprintf "perfbench: %s seed %Ld: INCORRECT: %s\n" name seed reason;
    exit 1
  | o, e2e, layers ->
    print_provenance workload ~seed ~seconds ~traced o;
    print_metrics (e2e @ Option.value layers ~default:[]);
    Option.iter
      (fun (p : Bench.pass) ->
        let path = Printf.sprintf "perfbench/out/spans-%s.tsv" name in
        (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
        Probe.write_spans p.Bench.probe path;
        Printf.printf "spans: %d written to %s\n" p.Bench.probe.Probe.count path)
      o.Bench.traced_pass;
    print_endline
      (json_line ~attempted:o.Bench.first.Bench.attempted ~failed:o.Bench.first.Bench.failed
         (Option.value layers ~default:e2e))
