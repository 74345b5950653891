(* Wall-clock comparison of deterministic single-domain execution
   against the domain-parallel mode.

   Like Perf, this harness measures real elapsed time, not modelled
   time: the parallel mode changes no modelled number by construction
   (the equivalence tests assert bit-identical results), so wall
   clock is the only axis on which it can win. Three measurements:

   - the scale-sweep grid point makespan with the platform's doorbell
     drains fanned over worker domains vs run inline;
   - MEE bulk page encryption ([write_pages]) with and without a
     worker pool;
   - MEE bulk page decryption ([read_pages]) likewise.

   The speedup ratios are the portable signal; on a single-hardware-
   thread host they sit near (or slightly below, from barrier costs)
   1.0x, which the JSON records honestly alongside the host block
   [Perf.write_json] emits, so a reader can tell the two cases
   apart. *)

module Pool = Hypertee_util.Domain_pool
module Mee = Hypertee_arch.Mem_encryption
module Phys_mem = Hypertee_arch.Phys_mem

let page_size = Hypertee_util.Units.page_size

let sample ~target ~metric ~value ~unit_ ~runs =
  { Perf.target; metric; value; unit_; runs }

let speedup ~target ~baseline ~parallel ~runs =
  sample ~target ~metric:"speedup-vs-sequential" ~value:(baseline /. parallel) ~unit_:"x"
    ~runs

let run ?(quick = false) ?domains () =
  let domains =
    match domains with Some d -> Stdlib.max 1 d | None -> Pool.recommended_domains ()
  in
  let min_time = if quick then 0.05 else 0.25 in
  let samples = ref [] in
  let push s = samples := s :: !samples in
  (* Seconds per call and calls timed, on Perf's monotonic timer. *)
  let seconds f =
    let ns, runs = Perf.time_ns ~min_time f in
    (ns /. 1e9, runs)
  in
  (* Scale grid point: [shards] independent EMS instances behind one
     gate, each doorbell round's per-shard drains fanned over the
     pool. The MEE pipelines of enclave setup ride the same pool. *)
  let ops = if quick then 96 else 384 in
  let seed = 0x9A4A11E1L in
  let point ~domains () =
    let p =
      Scale.run_point ~seed ~domains ~cs_cores:8 ~shards:4 ~batch:8 ~ops ()
    in
    if p.Scale.invariant_violations <> 0 then
      failwith "Parallel_bench: invariant violations in scale point";
    if p.Scale.ok <> ops then failwith "Parallel_bench: scale point dropped requests"
  in
  let seq_s, seq_runs = seconds (point ~domains:1) in
  let par_s, par_runs = seconds (point ~domains) in
  push
    (sample ~target:"scale-point/domains=1" ~metric:"wall-clock" ~value:seq_s ~unit_:"s"
       ~runs:seq_runs);
  push
    (sample
       ~target:(Printf.sprintf "scale-point/domains=%d" domains)
       ~metric:"wall-clock" ~value:par_s ~unit_:"s" ~runs:par_runs);
  push (speedup ~target:"scale-point" ~baseline:seq_s ~parallel:par_s ~runs:par_runs);
  (* MEE bulk pipelines: encrypt+MAC (and verify+decrypt) a batch of
     pages per call, sequentially vs fanned over a pool. *)
  let pages = if quick then 48 else 192 in
  let batch =
    Array.init pages (fun i ->
        (i, Bytes.init page_size (fun j -> Char.chr ((i + (13 * j)) land 0xff))))
  in
  let frames = Array.map fst batch in
  let bytes = pages * page_size in
  let make_engine ~pool =
    let mee = Mee.create ~slots:4 () in
    Mee.program mee ~key_id:1 (Bytes.init 16 (fun i -> Char.chr (0x60 + i)));
    Option.iter (Mee.set_pool mee) pool;
    (mee, Phys_mem.create ~frames:pages)
  in
  let pool = if domains > 1 then Some (Pool.create ~domains) else None in
  Fun.protect
    ~finally:(fun () -> Option.iter Pool.shutdown pool)
    (fun () ->
      let mee_seq, mem_seq = make_engine ~pool:None in
      let mee_par, mem_par = make_engine ~pool in
      let bench_rw name mee mem =
        let write_s, write_runs =
          seconds (fun () -> Mee.write_pages mee mem ~key_id:1 batch)
        in
        (* Cold reads flush the verified-line cache each rep so every
           page really re-runs the MAC; hot reads ride the cache
           (AES-only) — the spread is what the cache buys in bulk. *)
        let read_s, read_runs =
          seconds (fun () ->
              Mee.flush_mac_cache mee;
              ignore (Mee.read_pages mee mem ~key_id:1 frames))
        in
        let read_hot_s, read_hot_runs =
          seconds (fun () -> ignore (Mee.read_pages mee mem ~key_id:1 frames))
        in
        let mb s = float_of_int bytes /. s /. 1e6 in
        push
          (sample
             ~target:(Printf.sprintf "mee-write-pages/%s" name)
             ~metric:"throughput" ~value:(mb write_s) ~unit_:"MB/s" ~runs:write_runs);
        push
          (sample
             ~target:(Printf.sprintf "mee-read-pages/%s" name)
             ~metric:"throughput" ~value:(mb read_s) ~unit_:"MB/s" ~runs:read_runs);
        push
          (sample
             ~target:(Printf.sprintf "mee-read-pages-hot/%s" name)
             ~metric:"throughput" ~value:(mb read_hot_s) ~unit_:"MB/s" ~runs:read_hot_runs);
        ((write_s, write_runs), (read_s, read_runs))
      in
      let (seq_w, _), (seq_r, _) = bench_rw "sequential" mee_seq mem_seq in
      let (par_w, w_runs), (par_r, r_runs) =
        bench_rw (Printf.sprintf "pool=%d" domains) mee_par mem_par
      in
      push (speedup ~target:"mee-write-pages" ~baseline:seq_w ~parallel:par_w ~runs:w_runs);
      push (speedup ~target:"mee-read-pages" ~baseline:seq_r ~parallel:par_r ~runs:r_runs));
  List.rev !samples
