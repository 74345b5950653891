(* Wall-clock microbenchmarks of the crypto data plane.

   Unlike every other experiment (which reports *modelled* time from
   the cost model), this harness measures real elapsed time of the
   simulator's own hot paths, so the BENCH_perf.json trajectory shows
   whether the implementation is getting faster or slower across PRs.
   Numbers are machine-dependent by design; the speedup-vs-reference
   ratio is the portable signal. *)

module Aes = Hypertee_crypto.Aes
module Sha256 = Hypertee_crypto.Sha256
module Keccak = Hypertee_crypto.Keccak
module Hmac = Hypertee_crypto.Hmac
module Rsa = Hypertee_crypto.Rsa
module Phys_mem = Hypertee_arch.Phys_mem
module Mem_encryption = Hypertee_arch.Mem_encryption
module Table = Hypertee_util.Table
module Record = Hypertee_channel.Record
module Wire = Hypertee_channel.Wire

let page_size = Hypertee_util.Units.page_size

type sample = {
  target : string;
  metric : string;
  value : float;
  unit_ : string;
  runs : int;
}

(* Host provenance recorded alongside the samples: raw MB/s numbers
   are machine-dependent by design, so a reader (or the regression
   guard) needs to know what machine produced a file. *)
type host = {
  hardware_threads : int;
  recommended_domains : int;
  ocaml_version : string;
  word_size : int;
  os_type : string;
}

let host_info () =
  {
    hardware_threads = Domain.recommended_domain_count ();
    recommended_domains = Domain.recommended_domain_count ();
    ocaml_version = Sys.ocaml_version;
    word_size = Sys.word_size;
    os_type = Sys.os_type;
  }

(* Host time in seconds from the monotonic clock, which wall-clock
   steps (NTP, suspend) cannot move. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Repeat [f] until at least [min_time] seconds elapse, growing the
   repetition count geometrically; returns (ns per call, calls). *)
let time_ns ~min_time f =
  f () (* warmup, also JIT-free but faults in lazy pages/tables *);
  let rec go reps =
    let t0 = now_s () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = now_s () -. t0 in
    if dt >= min_time then (dt *. 1e9 /. float_of_int reps, reps)
    else
      let guess =
        if dt <= 0. then reps * 10
        else int_of_float (ceil (float_of_int reps *. min_time *. 1.3 /. dt))
      in
      go (Stdlib.max (reps * 2) guess)
  in
  go 1

let mb_per_s ~bytes ns = float_of_int bytes /. (ns /. 1e9) /. 1e6

let throughput ~target ~min_time ~bytes f =
  let ns, runs = time_ns ~min_time f in
  { target; metric = "throughput"; value = mb_per_s ~bytes ns; unit_ = "MB/s"; runs }

let latency ~target ~min_time f =
  let ns, runs = time_ns ~min_time f in
  { target; metric = "latency"; value = ns; unit_ = "ns/op"; runs }

let run ?(quick = false) ?min_time_s () =
  let min_time =
    match min_time_s with Some s -> s | None -> if quick then 0.05 else 0.25
  in
  let key = Aes.expand (Bytes.init 16 (fun i -> Char.chr (0x40 + i))) in
  let page = Bytes.init page_size (fun i -> Char.chr ((i * 31) land 0xFF)) in
  let dst = Bytes.create page_size in
  let tweak = Bytes.make 16 '\000' in
  Hypertee_util.Bytes_ext.set_u64_be tweak 8 7L;
  let samples = ref [] in
  let push s = samples := s :: !samples in
  (* Each optimised primitive is measured next to its retained
     reference implementation; the ratio is the portable signal the
     regression guard gates on (raw MB/s moves with the machine).
     Throughput sides divide fast by reference, latency sides the
     other way round, so the ratio always reads "x times faster". *)
  let push_speedup ~target ~fast ~reference =
    push fast;
    push reference;
    push
      {
        target;
        metric = "speedup-vs-reference";
        value =
          (if fast.metric = "latency" then reference.value /. fast.value
           else fast.value /. reference.value);
        unit_ = "x";
        runs = fast.runs;
      }
  in
  (* AES-CTR page encryption: the T-table data plane vs the retained
     pre-T-table reference, on the same 4 KiB page and tweak. *)
  push_speedup ~target:"aes-ctr-page"
    ~fast:
      (throughput ~target:"aes-ctr-page" ~min_time ~bytes:page_size (fun () ->
           Aes.encrypt_page_into key ~page_number:7 ~src:page ~src_off:0 ~dst ~dst_off:0
             page_size))
    ~reference:
      (throughput ~target:"aes-ctr-page-reference" ~min_time ~bytes:page_size (fun () ->
           ignore (Aes.ctr_reference key ~nonce:tweak page)));
  (* SHA-256: one-shot page digest and a 64 KiB streaming feed, the
     shape of enclave measurement during Create_Enclave. *)
  push
    (throughput ~target:"sha256-page" ~min_time ~bytes:page_size (fun () ->
         ignore (Sha256.digest page)));
  let stream_pages = 16 in
  let stream_ctx = Sha256.init () in
  push
    (throughput ~target:"sha256-stream-64k" ~min_time ~bytes:(stream_pages * page_size)
       (fun () ->
         Sha256.reset stream_ctx;
         for _ = 1 to stream_pages do
           Sha256.feed_sub stream_ctx page ~off:0 ~len:page_size
         done;
         Sha256.finalize_into stream_ctx dst ~off:0));
  (* HMAC and the SHA-3 paths behind sealing and the MEE MAC. *)
  let mac_key = Bytes.make 32 'K' in
  push
    (throughput ~target:"hmac-sha256-page" ~min_time ~bytes:page_size (fun () ->
         ignore (Hmac.hmac ~key:mac_key page)));
  (* SHA-3 / the MEE MAC: the unrolled lane-level permutation vs the
     retained int64-sponge reference (bit-identical digests/tags). *)
  push_speedup ~target:"sha3-256-page"
    ~fast:
      (throughput ~target:"sha3-256-page" ~min_time ~bytes:page_size (fun () ->
           ignore (Keccak.sha3_256 page)))
    ~reference:
      (throughput ~target:"sha3-256-page-reference" ~min_time ~bytes:page_size (fun () ->
           ignore (Keccak.Reference.sha3_256 page)));
  push_speedup ~target:"keccak-mac28-page"
    ~fast:
      (throughput ~target:"keccak-mac28-page" ~min_time ~bytes:page_size (fun () ->
           ignore (Keccak.mac_28bit ~key:mac_key page)))
    ~reference:
      (throughput ~target:"keccak-mac28-page-reference" ~min_time ~bytes:page_size (fun () ->
           ignore (Keccak.Reference.mac_28bit ~key:mac_key page)));
  (* RSA signing, two per EATTEST: CRT halves in Montgomery form plus
     the fault check, vs the direct em^d mod n by square-and-multiply
     with a division after every product. Same key, same message. *)
  let rsa_key = Rsa.generate (Hypertee_util.Xrng.create 0x5167L) in
  let rsa_msg = Bytes.of_string "HTQUOTE1 platform and enclave measurements" in
  push_speedup ~target:"rsa-sign"
    ~fast:
      (latency ~target:"rsa-sign" ~min_time (fun () ->
           ignore (Rsa.sign rsa_key rsa_msg)))
    ~reference:
      (latency ~target:"rsa-sign-reference" ~min_time (fun () ->
           ignore (Rsa.sign_reference rsa_key rsa_msg)));
  (* MEE round trip: encrypt+MAC into DRAM, then verify+decrypt back —
     what every enclave page touch pays. The reference engine runs the
     reference sponge with the verified-line cache disabled: the
     pre-optimisation integrity path, kept honest in the same build. *)
  let mee = Mem_encryption.create ~slots:4 () in
  Mem_encryption.program mee ~key_id:1 (Bytes.make 16 'm');
  let mem = Phys_mem.create ~frames:8 in
  let mee_ref = Mem_encryption.create ~reference_mac:true ~slots:4 () in
  Mem_encryption.program mee_ref ~key_id:1 (Bytes.make 16 'm');
  let mem_ref = Phys_mem.create ~frames:8 in
  let store_load mee mem () =
    Mem_encryption.write_page mee mem ~key_id:1 ~frame:3 page;
    Mem_encryption.read_range_into mee mem ~key_id:1 ~frame:3 ~off:0 ~len:page_size dst
      ~dst_off:0
  in
  push_speedup ~target:"mee-store-load-page"
    ~fast:
      (throughput ~target:"mee-store-load-page" ~min_time ~bytes:(2 * page_size)
         (store_load mee mem))
    ~reference:
      (throughput ~target:"mee-store-load-page-reference" ~min_time ~bytes:(2 * page_size)
         (store_load mee_ref mem_ref));
  (* Read paths of an unmodified frame: hot rides the verified-line
     cache (AES only); cold flushes it first, so every read re-runs
     the sponge — the spread between the two is what the cache buys. *)
  Mem_encryption.write_page mee mem ~key_id:1 ~frame:5 page;
  push
    (throughput ~target:"mee-read-page-hot" ~min_time ~bytes:page_size (fun () ->
         Mem_encryption.read_range_into mee mem ~key_id:1 ~frame:5 ~off:0 ~len:page_size dst
           ~dst_off:0));
  push
    (throughput ~target:"mee-read-page-cold" ~min_time ~bytes:page_size (fun () ->
         Mem_encryption.flush_mac_cache mee;
         Mem_encryption.read_range_into mee mem ~key_id:1 ~frame:5 ~off:0 ~len:page_size dst
           ~dst_off:0));
  (* End-to-end Create_Enclave: ECREATE + EADD of the image + EMEAS,
     measurement-dominated. *)
  let platform = Hypertee.Platform.create ~seed:0x9E2FL () in
  let image =
    Hypertee.Sdk.image_of_code
      ~code:(Bytes.make (4 * page_size) 'c')
      ~data:(Bytes.make (2 * page_size) 'd')
      ()
  in
  push
    (latency ~target:"create-enclave" ~min_time (fun () ->
         match Hypertee.Sdk.launch platform image with
         | Ok enclave -> (
           match Hypertee.Sdk.destroy platform ~enclave with
           | Ok () -> ()
           | Error m -> failwith m)
         | Error m -> failwith m));
  (* Warm-pool fast path: client-perceived create latency. Each side
     times only the acquisition call (EWARM pop of a parked enclave
     vs the full cold ECREATE/EADD/EMEAS launch); the teardown that
     recycles state for the next iteration — ERETIRE's security
     rehash, the cold destroy's scrub — runs *between* timed
     sections on both sides, mirroring the cloud driver where retire
     happens at session end, off the create path. Both sides are
     latency samples, so the speedup ratio is reference/fast. *)
  let timed_section ~target step =
    let _ : float = step () (* warmup *) in
    let acc = ref 0.0 in
    let n = ref 0 in
    while (!acc < min_time && !n < 256) || !n < 3 do
      acc := !acc +. step ();
      incr n
    done;
    {
      target;
      metric = "latency";
      value = !acc *. 1e9 /. float_of_int !n;
      unit_ = "ns/op";
      runs = !n;
    }
  in
  (match Hypertee.Sdk.launch platform image with
  | Ok e -> (
    match Hypertee.Sdk.retire platform ~enclave:e with
    | Ok () -> ()
    | Error m -> failwith m)
  | Error m -> failwith m);
  let warm_create =
    timed_section ~target:"cloud-warm-create" (fun () ->
        let t0 = now_s () in
        let r = Hypertee.Sdk.warm_launch platform image in
        let dt = now_s () -. t0 in
        (match r with
        | Ok (e, `Warm) -> (
          match Hypertee.Sdk.retire platform ~enclave:e with
          | Ok () -> ()
          | Error m -> failwith m)
        | Ok (_, `Cold) -> failwith "warm pool missed during benchmark"
        | Error m -> failwith m);
        dt)
  in
  (* ERETIRE alone: the measurement rehash plus the scrub of every
     unmeasured static page, which the MEE skips for pages nobody
     wrote since their last zero store. The EWARM that puts the
     enclave back in service runs between timed sections. A latency
     sample, not a speedup pair: a skipped store and a full one are
     not the same unit of work. *)
  push
    (timed_section ~target:"eretire" (fun () ->
         match Hypertee.Sdk.warm_launch platform image with
         | Ok (e, `Warm) ->
           let t0 = now_s () in
           let r = Hypertee.Sdk.retire platform ~enclave:e in
           let dt = now_s () -. t0 in
           (match r with Ok () -> () | Error m -> failwith m);
           dt
         | Ok (_, `Cold) -> failwith "warm pool missed during benchmark"
         | Error m -> failwith m));
  let cold_create =
    timed_section ~target:"cloud-warm-create-reference" (fun () ->
        let t0 = now_s () in
        let r = Hypertee.Sdk.launch platform image in
        let dt = now_s () -. t0 in
        (match r with
        | Ok enclave -> (
          match Hypertee.Sdk.destroy platform ~enclave with
          | Ok () -> ()
          | Error m -> failwith m)
        | Error m -> failwith m);
        dt)
  in
  push_speedup ~target:"cloud-warm-create" ~fast:warm_create ~reference:cold_create;
  (* Secure-channel data plane (docs/PROTOCOL.md). chan-handshake is
     the full three-flight attested establishment through the gate —
     EATTEST/RSA-dominated. The record pair measures what the reused
     keyed-sponge state buys per record MAC: hot keeps the post-key
     state, cold re-absorbs the key every record (§3.3). *)
  let listener =
    match Hypertee.Sdk.launch platform image with
    | Ok e -> e
    | Error m -> failwith m
  in
  push
    (latency ~target:"chan-handshake" ~min_time (fun () ->
         match Hypertee.Secure_channel.establish platform ~listener () with
         | Ok (client, server) ->
           (match Hypertee.Secure_channel.close client with
           | Ok () -> ()
           | Error m -> failwith m);
           (match Hypertee.Secure_channel.close server with
           | Ok () -> ()
           | Error m -> failwith m)
         | Error m -> failwith m));
  let rec_key = Bytes.init 16 (fun i -> Char.chr (0x60 + i)) in
  let rec_len = Wire.header_len + Wire.max_plaintext in
  let rec_buf = Bytes.init rec_len (fun i -> Char.chr ((i * 17) land 0xFF)) in
  let rec_tag = Bytes.create Wire.tag_len in
  let rec_keyed = Keccak.keyed_init ~key:rec_key in
  push
    (throughput ~target:"chan-record-mac-hot" ~min_time ~bytes:rec_len (fun () ->
         Keccak.mac16_keyed_into rec_keyed rec_buf ~off:0 ~len:rec_len rec_tag ~tag_off:0));
  push
    (throughput ~target:"chan-record-mac-cold" ~min_time ~bytes:rec_len (fun () ->
         let k = Keccak.keyed_init ~key:rec_key in
         Keccak.mac16_keyed_into k rec_buf ~off:0 ~len:rec_len rec_tag ~tag_off:0));
  (* One 4 KiB message sealed, transported and opened by the record
     layer vs the retained reference seal path doing the *same unit of
     work* per chunk: reference AES-CTR plus the reference sponge MAC
     on seal, tag recheck plus reference AES-CTR again on open. (An
     earlier revision compared against bare chunk copies — a near-no-op
     whose "ratio" only measured memcpy bandwidth.) Rekeys are pushed
     out of reach so the ratio measures the steady state. *)
  let master = Bytes.init 32 (fun i -> Char.chr ((i * 7) land 0xFF)) in
  let th = Bytes.init 32 (fun i -> Char.chr ((i * 13) land 0xFF)) in
  let writer = Record.create ~role:Record.Client ~master ~transcript:th ~rekey_after:max_int () in
  let reader = Record.create ~role:Record.Server ~master ~transcript:th ~rekey_after:max_int () in
  let ref_seal_key = Aes.expand (Bytes.sub master 0 16) in
  let ref_mac_key = Bytes.sub master 16 16 in
  let ref_nonce = Bytes.make 16 '\000' in
  let ref_out = Bytes.create page_size in
  push_speedup ~target:"chan-record-seal"
    ~fast:
      (throughput ~target:"chan-record-seal" ~min_time ~bytes:page_size (fun () ->
           match Record.seal_message writer page with
           | Error e -> failwith (Record.error_message e)
           | Ok segs ->
             List.iter
               (fun seg ->
                 match Record.deliver reader seg with
                 | Ok _ -> ()
                 | Error e -> failwith (Record.error_message e))
               segs))
    ~reference:
      (throughput ~target:"chan-record-seal-reference" ~min_time ~bytes:page_size (fun () ->
           let off = ref 0 in
           while !off < page_size do
             let n = Stdlib.min Wire.max_plaintext (page_size - !off) in
             Hypertee_util.Bytes_ext.set_u64_be ref_nonce 8 (Int64.of_int !off);
             (* seal: encrypt the chunk, MAC the ciphertext *)
             let ct = Aes.ctr_reference ref_seal_key ~nonce:ref_nonce (Bytes.sub page !off n) in
             let tag = Keccak.Reference.mac_28bit ~key:ref_mac_key ct in
             (* open: recheck the tag, decrypt back *)
             if Keccak.Reference.mac_28bit ~key:ref_mac_key ct <> tag then
               failwith "reference seal path: tag mismatch";
             let pt = Aes.ctr_reference ref_seal_key ~nonce:ref_nonce ct in
             Bytes.blit pt 0 ref_out !off n;
             off := !off + n
           done));
  (* Per-call host cost of three paths every enclave exercises: a
     page-table lookup, a 64 B heap write+read through the MEE, and an
     EALLOC+EFREE round trip through the gate and the runtime. *)
  let platform_mem = Hypertee.Platform.mem platform in
  let pt =
    Hypertee_arch.Page_table.create platform_mem ~node_owner:Phys_mem.Cs_os
      ~alloc:(Hypertee_arch.Page_table.default_alloc platform_mem)
  in
  Hypertee_arch.Page_table.map pt ~vpn:42
    (Hypertee_arch.Pte.leaf ~ppn:3 ~r:true ~w:true ~x:false ~key_id:0);
  push
    (latency ~target:"pt-walk" ~min_time (fun () ->
         ignore (Hypertee_arch.Page_table.lookup pt ~vpn:42)));
  let session =
    match Hypertee.Sdk.enter platform ~enclave:listener with
    | Ok s -> s
    | Error m -> failwith m
  in
  let small = Bytes.make 64 'z' in
  let slot = ref 0 in
  push
    (latency ~target:"session-rw/64B" ~min_time (fun () ->
         slot := (!slot + 1) mod 32;
         let va = Hypertee.Session.heap_va session + (!slot * 64) in
         Hypertee.Session.write session ~va small;
         ignore (Hypertee.Session.read session ~va ~len:64)));
  push
    (latency ~target:"ealloc-efree/4pages" ~min_time (fun () ->
         match Hypertee.Session.alloc session ~pages:4 with
         | Ok va -> ignore (Hypertee.Session.free session ~va ~pages:4)
         | Error e -> failwith (Hypertee_ems.Types.error_message e)));
  (* A fig6-style sweep end to end: wall-clock of the discrete-event
     simulation the paper figures are built from. *)
  let requests = if quick then 512 else 4096 in
  let t0 = now_s () in
  ignore
    (Fig6.run ~seed:0x516L ~cs_cores:4 ~ems_cores:2 ~ems_kind:Hypertee_arch.Config.Medium
       ~requests);
  push
    {
      target = "fig6-sweep";
      metric = "wall-clock";
      value = now_s () -. t0;
      unit_ = "s";
      runs = requests;
    };
  (* p99 session latency at the saturation knee of a one-shard cloud
     sweep. Unlike the MB/s samples this is *modelled* virtual time —
     deterministic for the seed and machine-independent — so the
     baseline comparator gates it as an upper bound. *)
  let cloud = Cloud.run ~seed:0xC10D5L ~quick:true ~shard_counts:[ 1 ] () in
  (match cloud.Cloud.curves with
  | { Cloud.points; knee_mult; _ } :: _ -> (
    let at_knee =
      match knee_mult with
      | Some m -> List.find_opt (fun (p : Cloud.point) -> p.Cloud.offered_mult = m) points
      | None -> None
    in
    match at_knee with
    | Some p ->
      push
        {
          target = "cloud-p99-at-knee";
          metric = "p99-latency";
          value = p.Cloud.p99_ms;
          unit_ = "ms";
          runs = p.Cloud.completed;
        }
    | None -> ())
  | [] -> ());
  List.rev !samples

let find samples ~target ~metric =
  List.find_opt (fun s -> s.target = target && s.metric = metric) samples

let print ?(out = stdout) samples =
  Table.print ~out
    ~headers:[ "target"; "metric"; "value"; "unit"; "runs" ]
    ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Left; Table.Right ]
    (List.map
       (fun s ->
         [ s.target; s.metric; Table.fmt_f ~digits:2 s.value; s.unit_; string_of_int s.runs ])
       samples);
  match find samples ~target:"aes-ctr-page" ~metric:"speedup-vs-reference" with
  | Some s ->
    Printf.fprintf out "AES-CTR 4 KiB page: %s over the pre-T-table reference\n"
      (Table.speedup s.value)
  | None -> ()

let write_json ~path samples =
  let h = host_info () in
  let oc = open_out path in
  output_string oc "{\n";
  Printf.fprintf oc
    "  \"host\": {\"hardware_threads\": %d, \"recommended_domains\": %d, \"ocaml_version\": \
     %S, \"word_size\": %d, \"os_type\": %S},\n"
    h.hardware_threads h.recommended_domains h.ocaml_version h.word_size h.os_type;
  output_string oc "  \"samples\": [\n";
  let n = List.length samples in
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "    {\"target\": %S, \"metric\": %S, \"value\": %.6f, \"unit\": %S, \"runs\": %d}%s\n"
        s.target s.metric s.value s.unit_ s.runs
        (if i = n - 1 then "" else ","))
    samples;
  output_string oc "  ]\n}\n";
  close_out oc

(* --- Regression guard against a committed baseline. --- *)

type regression = {
  r_target : string;
  r_metric : string;
  r_baseline : float;
  r_current : float;
}

(* Line-based scan of our own emitter's output (both the current
   {host, samples} object and the older flat-array format): one
   sample object per line, keys in fixed order. No JSON library in
   the tree, and none needed to re-read what [write_json] wrote. *)
let load_baseline ~path =
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       match
         Scanf.sscanf line " {%S: %S, %S: %S, %S: %f" (fun k1 t k2 m k3 v ->
             if k1 = "target" && k2 = "metric" && k3 = "value" then Some (t, m, v) else None)
       with
       | Some e -> entries := e :: !entries
       | None -> ()
       | exception Scanf.Scan_failure _ -> ()
       | exception End_of_file -> () (* short line, not a sample *)
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !entries

(* Gate the speedup-vs-reference ratios (as a floor: both sides of
   each ratio run on the same machine in the same process, so the
   ratio is stable across hosts, whereas raw MB/s gated against a
   baseline file produced elsewhere would flap on every hardware
   difference) and the modelled p99-latency samples (as a ceiling:
   virtual time is deterministic for the seed, so any growth is a
   genuine cost-model or scheduling regression). A real data-plane
   regression shows up in the ratio — the reference implementations
   don't get faster by accident. *)
let compare_to_baseline ~baseline ~tolerance_pct samples =
  List.filter_map
    (fun s ->
      let direction =
        match s.metric with
        | "speedup-vs-reference" -> Some `Floor
        | "p99-latency" -> Some `Ceiling
        | _ -> None
      in
      match direction with
      | None -> None
      | Some dir -> (
        match
          List.find_opt (fun (t, m, (_ : float)) -> t = s.target && m = s.metric) baseline
        with
        | None -> None
        | Some (_, _, bv) ->
          let tol = tolerance_pct /. 100. in
          let regressed =
            match dir with
            | `Floor -> bv > 0. && s.value < bv *. (1. -. tol)
            | `Ceiling -> bv > 0. && s.value > bv *. (1. +. tol)
          in
          if regressed then
            Some { r_target = s.target; r_metric = s.metric; r_baseline = bv; r_current = s.value }
          else None))
    samples
