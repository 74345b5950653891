(* Tests for the zero-copy data plane: the MEE range operations over
   Phys_mem, their equivalence with the allocating store/load pair,
   the SDK measurement stream, and the perf harness plumbing. *)

module Phys_mem = Hypertee_arch.Phys_mem
module Mem_encryption = Hypertee_arch.Mem_encryption
module Bx = Hypertee_util.Bytes_ext
module Perf = Hypertee_experiments.Perf
module Metrics = Hypertee_obs.Metrics

let check = Alcotest.check
let prop = QCheck_alcotest.to_alcotest ~speed_level:`Quick
let page_size = Hypertee_util.Units.page_size

let fresh () =
  let mee = Mem_encryption.create ~slots:4 () in
  Mem_encryption.program mee ~key_id:1 (Bytes.make 16 'A');
  Mem_encryption.program mee ~key_id:2 (Bytes.make 16 'B');
  let mem = Phys_mem.create ~frames:8 in
  (mee, mem)

let patterned seed = Bytes.init page_size (fun i -> Char.chr ((i * seed) land 0xFF))

(* --- write_page / read_page vs the allocating store/load pair --- *)

let test_page_roundtrip_matches_store () =
  let mee, mem = fresh () in
  let page = patterned 13 in
  Mem_encryption.write_page mee mem ~key_id:1 ~frame:2 page;
  (* The DRAM bytes are exactly what [store] would have produced. *)
  let reference = Mem_encryption.store mee ~key_id:1 ~frame:2 page in
  check Alcotest.bytes "DRAM ciphertext identical" reference (Phys_mem.read mem ~frame:2);
  check Alcotest.bytes "read_page inverts" page
    (Mem_encryption.read_page mee mem ~key_id:1 ~frame:2)

let test_key0_passthrough () =
  let mee, mem = fresh () in
  let page = patterned 5 in
  Mem_encryption.write_page mee mem ~key_id:0 ~frame:1 page;
  check Alcotest.bytes "key 0 stores plaintext" page (Phys_mem.read mem ~frame:1);
  check Alcotest.bytes "key 0 reads back" page (Mem_encryption.read_page mee mem ~key_id:0 ~frame:1);
  Bytes.set page 0 'X';
  check Alcotest.bool "write_page copied, not aliased" false
    (Bytes.equal page (Phys_mem.read mem ~frame:1));
  Mem_encryption.write_zero_page mee mem ~key_id:0 ~frame:1;
  check Alcotest.bytes "key 0 zero store is plaintext zeros" (Bytes.make page_size '\000')
    (Phys_mem.read mem ~frame:1)

let prop_read_range =
  prop
    (QCheck.Test.make ~name:"read_range = slice of read_page" ~count:60
       QCheck.(pair (int_range 0 (page_size - 1)) (int_range 0 page_size))
       (fun (off, len) ->
         let len = Stdlib.min len (page_size - off) in
         let mee, mem = fresh () in
         let page = patterned 31 in
         Mem_encryption.write_page mee mem ~key_id:1 ~frame:3 page;
         let got = Mem_encryption.read_range mee mem ~key_id:1 ~frame:3 ~off ~len in
         Bytes.equal got (Bytes.sub page off len)))

let prop_update_range =
  prop
    (QCheck.Test.make ~name:"update_range = decrypt, blit, encrypt" ~count:60
       QCheck.(triple (int_range 0 (page_size - 1)) (int_range 0 200) (int_range 1 250))
       (fun (off, len, byte) ->
         let len = Stdlib.min len (page_size - off) in
         let mee, mem = fresh () in
         let page = patterned 7 in
         Mem_encryption.write_page mee mem ~key_id:1 ~frame:4 page;
         let patch = Bytes.make len (Char.chr byte) in
         Mem_encryption.update_range mee mem ~key_id:1 ~frame:4 ~off ~src:patch ~src_off:0 ~len;
         let expected = Bytes.copy page in
         Bytes.blit patch 0 expected off len;
         Bytes.equal expected (Mem_encryption.read_page mee mem ~key_id:1 ~frame:4)))

let test_tamper_detected_on_range_read () =
  let mee, mem = fresh () in
  Mem_encryption.write_page mee mem ~key_id:1 ~frame:2 (patterned 3);
  (* A physical attacker flips one DRAM bit... *)
  let dram = Phys_mem.borrow mem ~frame:2 in
  Bytes.set dram 100 (Char.chr (Char.code (Bytes.get dram 100) lxor 0x10));
  (* ...and even a sub-range read outside the flipped byte faults,
     because the MAC covers the whole line. *)
  (try
     ignore (Mem_encryption.read_range mee mem ~key_id:1 ~frame:2 ~off:0 ~len:16);
     Alcotest.fail "expected Integrity_violation"
   with Mem_encryption.Integrity_violation { frame } -> check Alcotest.int "frame" 2 frame);
  (* A partial overwrite of the tampered page must also fault (the
     stale line is verified before the read-modify-write). *)
  try
    Mem_encryption.update_range mee mem ~key_id:1 ~frame:2 ~off:8 ~src:(Bytes.make 8 'z')
      ~src_off:0 ~len:8;
    Alcotest.fail "expected Integrity_violation on update"
  with Mem_encryption.Integrity_violation _ -> ()

let test_cross_key_garbles () =
  let mee, mem = fresh () in
  let page = patterned 11 in
  Mem_encryption.write_page mee mem ~key_id:1 ~frame:5 page;
  (* Reading under a different key either faults (MAC mismatch) —
     there is no path that yields the plaintext. *)
  match Mem_encryption.read_page mee mem ~key_id:2 ~frame:5 with
  | p -> check Alcotest.bool "wrong key never decrypts" false (Bytes.equal p page)
  | exception Mem_encryption.Integrity_violation _ -> ()

let prop_phys_read_into =
  prop
    (QCheck.Test.make ~name:"Phys_mem.read_into = read_sub" ~count:60
       QCheck.(pair (int_range 0 (page_size - 1)) (int_range 0 page_size))
       (fun (off, len) ->
         let len = Stdlib.min len (page_size - off) in
         let mem = Phys_mem.create ~frames:2 in
         Phys_mem.write mem ~frame:1 (patterned 9);
         let dst = Bytes.make (len + 3) '\xAA' in
         Phys_mem.read_into mem ~frame:1 ~off ~len dst ~dst_off:2;
         Bytes.equal (Bytes.sub dst 2 len) (Phys_mem.read_sub mem ~frame:1 ~off ~len)
         && Bytes.get dst 0 = '\xAA'
         && Bytes.get dst (len + 2) = '\xAA'))

let test_read_into_unmaterialized () =
  (* An untouched frame reads as zeros without materializing. *)
  let mem = Phys_mem.create ~frames:2 in
  let dst = Bytes.make 8 'x' in
  Phys_mem.read_into mem ~frame:0 ~off:100 ~len:8 dst ~dst_off:0;
  check Alcotest.bytes "zeros" (Bytes.make 8 '\000') dst

(* --- MAC cache coherence: the verified-line cache must be invisible
   except in the counters — every way the DRAM bytes can change has to
   force the next read back through the sponge. --- *)

let test_mac_cache_hot_hit () =
  let mee, mem = fresh () in
  let page = patterned 17 in
  Mem_encryption.write_page mee mem ~key_id:1 ~frame:2 page;
  let before = Mem_encryption.mac_cache_hits mee in
  (* The write itself marked the line verified, so both reads hit. *)
  check Alcotest.bytes "first read" page (Mem_encryption.read_page mee mem ~key_id:1 ~frame:2);
  check Alcotest.bytes "second read" page (Mem_encryption.read_page mee mem ~key_id:1 ~frame:2);
  check Alcotest.int "both reads hit the cache" (before + 2) (Mem_encryption.mac_cache_hits mee)

let test_mac_cache_tamper_after_verified_read () =
  let mee, mem = fresh () in
  Mem_encryption.write_page mee mem ~key_id:1 ~frame:3 (patterned 23);
  (* Verify once — the line is now cached at the current version. *)
  ignore (Mem_encryption.read_page mee mem ~key_id:1 ~frame:3);
  (* Tampering goes through [borrow], which bumps the frame version:
     the cached verification must not survive it. *)
  let dram = Phys_mem.borrow mem ~frame:3 in
  Bytes.set dram 0 (Char.chr (Char.code (Bytes.get dram 0) lxor 1));
  (try
     ignore (Mem_encryption.read_page mee mem ~key_id:1 ~frame:3);
     Alcotest.fail "expected Integrity_violation after tamper"
   with Mem_encryption.Integrity_violation { frame } -> check Alcotest.int "frame" 3 frame);
  (* Even an unmodified mutable borrow (the alias *could* have been
     written) must force re-verification, not a cache hit. *)
  Mem_encryption.write_page mee mem ~key_id:1 ~frame:3 (patterned 29);
  ignore (Phys_mem.borrow mem ~frame:3);
  let hits = Mem_encryption.mac_cache_hits mee in
  ignore (Mem_encryption.read_page mee mem ~key_id:1 ~frame:3);
  check Alcotest.int "borrow alone invalidates" hits (Mem_encryption.mac_cache_hits mee)

let test_mac_cache_flush () =
  let mee, mem = fresh () in
  let page = patterned 41 in
  Mem_encryption.write_page mee mem ~key_id:1 ~frame:4 page;
  ignore (Mem_encryption.read_page mee mem ~key_id:1 ~frame:4);
  Mem_encryption.flush_mac_cache mee;
  let hits = Mem_encryption.mac_cache_hits mee in
  (* After a flush the read must re-verify (no hit) and still pass —
     the MAC itself was kept. *)
  check Alcotest.bytes "re-verifies clean" page
    (Mem_encryption.read_page mee mem ~key_id:1 ~frame:4);
  check Alcotest.int "flush forced the sponge" hits (Mem_encryption.mac_cache_hits mee)

let test_reference_mac_engine_never_caches () =
  let mee = Mem_encryption.create ~reference_mac:true ~slots:4 () in
  Mem_encryption.program mee ~key_id:1 (Bytes.make 16 'A');
  let mem = Phys_mem.create ~frames:8 in
  let page = patterned 43 in
  Mem_encryption.write_page mee mem ~key_id:1 ~frame:1 page;
  check Alcotest.bytes "reference engine round-trips" page
    (Mem_encryption.read_page mee mem ~key_id:1 ~frame:1);
  ignore (Mem_encryption.read_page mee mem ~key_id:1 ~frame:1);
  check Alcotest.int "no cache hits in reference mode" 0 (Mem_encryption.mac_cache_hits mee)

let test_engines_produce_identical_ciphertext () =
  (* The fast keyed-sponge engine and the reference engine must lay
     down bit-identical DRAM (same AES, byte-identical tags), or
     sealed snapshots would stop being portable across the modes. *)
  let mk ~reference_mac =
    let mee = Mem_encryption.create ~reference_mac ~slots:4 () in
    Mem_encryption.program mee ~key_id:1 (Bytes.make 16 'A');
    let mem = Phys_mem.create ~frames:4 in
    Mem_encryption.write_page mee mem ~key_id:1 ~frame:2 (patterned 19);
    Phys_mem.read mem ~frame:2
  in
  check Alcotest.bytes "ciphertext identical across MAC engines"
    (mk ~reference_mac:false) (mk ~reference_mac:true)

(* --- Zero-store skip: a repeated zero store of an untouched line is
   skipped, and every event that could have changed the line's DRAM
   bytes or key forces a real store. --- *)

(* An engine counter as [publish_metrics] reports it. *)
let mee_counter mee name =
  let registry = Metrics.create () in
  Mem_encryption.publish_metrics mee registry;
  Metrics.counter_value (Metrics.counter registry ("mee." ^ name))

let zeros = Bytes.make page_size '\000'

let test_zero_store_skip_untouched () =
  let mee, mem = fresh () in
  Mem_encryption.write_zero_page mee mem ~key_id:1 ~frame:2;
  let dram = Phys_mem.read mem ~frame:2 in
  (* The real zero store lays down what [write_page] of a zero page
     does on a fresh engine. *)
  let mee', mem' = fresh () in
  Mem_encryption.write_page mee' mem' ~key_id:1 ~frame:2 (Bytes.copy zeros);
  check Alcotest.bytes "zero store = write_page of zeros" (Phys_mem.read mem' ~frame:2) dram;
  let stores = mee_counter mee "stores" in
  Mem_encryption.write_zero_page mee mem ~key_id:1 ~frame:2;
  check Alcotest.int "second zero store skipped" stores (mee_counter mee "stores");
  check Alcotest.int "skip counted" 1 (mee_counter mee "zero_store_skips");
  check Alcotest.bytes "DRAM untouched" dram (Phys_mem.read mem ~frame:2);
  check Alcotest.bytes "still reads back as zeros" zeros
    (Mem_encryption.read_page mee mem ~key_id:1 ~frame:2)

(* Zero-store [frame] under KeyID 1, apply [event], zero-store again:
   the second store must be real and the page must read back as
   zeros under KeyID 1's current key. *)
let forces_real_store name event () =
  let mee, mem = fresh () in
  Mem_encryption.write_zero_page mee mem ~key_id:1 ~frame:3;
  event mee mem;
  let stores = mee_counter mee "stores" in
  Mem_encryption.write_zero_page mee mem ~key_id:1 ~frame:3;
  check Alcotest.int (name ^ ": real store") (stores + 1) (mee_counter mee "stores");
  check Alcotest.int (name ^ ": nothing skipped") 0 (mee_counter mee "zero_store_skips");
  check Alcotest.bytes (name ^ ": reads back as zeros") zeros
    (Mem_encryption.read_page mee mem ~key_id:1 ~frame:3)

let after_borrow =
  forces_real_store "borrow" (fun _ mem -> ignore (Phys_mem.borrow mem ~frame:3 : bytes))

let after_write_page =
  forces_real_store "write_page" (fun mee mem ->
      Mem_encryption.write_page mee mem ~key_id:1 ~frame:3 (patterned 47))

let after_rekey =
  forces_real_store "revoke + program" (fun mee _ ->
      Mem_encryption.revoke mee ~key_id:1;
      Mem_encryption.program mee ~key_id:1 (Bytes.make 16 'C'))

let after_flush = forces_real_store "flush" (fun mee _ -> Mem_encryption.flush_mac_cache mee)

let test_reference_engine_never_skips () =
  let mee = Mem_encryption.create ~reference_mac:true ~slots:4 () in
  Mem_encryption.program mee ~key_id:1 (Bytes.make 16 'A');
  let mem = Phys_mem.create ~frames:4 in
  Mem_encryption.write_zero_page mee mem ~key_id:1 ~frame:1;
  Mem_encryption.write_zero_page mee mem ~key_id:1 ~frame:1;
  check Alcotest.int "both stores real" 2 (mee_counter mee "stores");
  check Alcotest.int "no skips" 0 (mee_counter mee "zero_store_skips")

(* Random traffic over 3 frames x 2 KeyIDs, replayed on the fast
   engine (which skips zero stores and caches verifications) and on
   the reference engine (which does neither): DRAM and every read's
   outcome must agree byte for byte. *)
type op =
  | Zero of int * int (* frame, key_id *)
  | Write of int * int * int (* frame, key_id, pattern *)
  | Tamper of int * int (* frame, byte *)
  | Read of int * int (* frame, key_id *)
  | Rekey of int * char (* key_id, key byte *)
  | Flush

let show_op = function
  | Zero (f, k) -> Printf.sprintf "zero f%d k%d" f k
  | Write (f, k, p) -> Printf.sprintf "write f%d k%d p%d" f k p
  | Tamper (f, b) -> Printf.sprintf "tamper f%d @%d" f b
  | Read (f, k) -> Printf.sprintf "read f%d k%d" f k
  | Rekey (k, c) -> Printf.sprintf "rekey k%d %C" k c
  | Flush -> "flush"

let op_gen =
  let open QCheck.Gen in
  let frame = int_range 0 2 and key = int_range 1 2 in
  frequency
    [
      (4, map2 (fun f k -> Zero (f, k)) frame key);
      (2, map3 (fun f k p -> Write (f, k, p)) frame key (int_range 1 255));
      (1, map2 (fun f b -> Tamper (f, b)) frame (int_range 0 (page_size - 1)));
      (3, map2 (fun f k -> Read (f, k)) frame key);
      (1, map2 (fun k c -> Rekey (k, c)) key (oneofl [ 'A'; 'B'; 'C' ]));
      (1, return Flush);
    ]

let replay ~reference_mac ops =
  let mee = Mem_encryption.create ~reference_mac ~slots:4 () in
  Mem_encryption.program mee ~key_id:1 (Bytes.make 16 'A');
  Mem_encryption.program mee ~key_id:2 (Bytes.make 16 'B');
  let mem = Phys_mem.create ~frames:3 in
  let reads =
    List.filter_map
      (function
        | Zero (frame, key_id) ->
          Mem_encryption.write_zero_page mee mem ~key_id ~frame;
          None
        | Write (frame, key_id, p) ->
          Mem_encryption.write_page mee mem ~key_id ~frame (patterned p);
          None
        | Tamper (frame, byte) ->
          let dram = Phys_mem.borrow mem ~frame in
          Bytes.set dram byte (Char.chr (Char.code (Bytes.get dram byte) lxor 0x01));
          None
        | Read (frame, key_id) -> (
          match Mem_encryption.read_page mee mem ~key_id ~frame with
          | page -> Some (Some page)
          | exception Mem_encryption.Integrity_violation _ -> Some None)
        | Rekey (key_id, c) ->
          Mem_encryption.revoke mee ~key_id;
          Mem_encryption.program mee ~key_id (Bytes.make 16 c);
          None
        | Flush ->
          Mem_encryption.flush_mac_cache mee;
          None)
      ops
  in
  (reads, List.init 3 (fun frame -> Phys_mem.read mem ~frame))

let prop_zero_skip_matches_reference =
  prop
    (QCheck.Test.make ~name:"zero-store skip: fast engine = reference engine" ~count:300
       QCheck.(
         make
           ~print:(fun ops -> String.concat "; " (List.map show_op ops))
           ~shrink:Shrink.list
           Gen.(list_size (int_range 1 40) op_gen))
       (fun ops -> replay ~reference_mac:false ops = replay ~reference_mac:true ops))

(* --- FIPS 202 known-answer tests and fast-vs-reference equivalence
   for the unrolled Keccak. --- *)

module Keccak = Hypertee_crypto.Keccak

let hex b =
  String.concat "" (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

(* Digests of the byte pattern i -> (i * 31) land 0xFF, generated with
   an independent SHA3-256 implementation (Python hashlib). Lengths
   straddle the SHA3-256 rate (136 bytes): empty, sub-block, rate-1,
   rate, rate+1, multi-block. *)
let sha3_kats =
  [
    (0, "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a");
    (64, "6ef4bc75377ecf8d629d7e25554ece96bb20eb9b3e72f828775c9e446ec33b24");
    (135, "723355e02c111b19921ecbd0b5c2efb77e246cd392b1829ccf96da8bbbd83dbd");
    (136, "51288d7e1a070f90c6003edda6a2ceeadf0d9847b04b55ff768eeb61d3a798af");
    (137, "b3ad09aacb053a96d31b0fd700ed8dcae5d5a72db56a9480e60270dfe8e4eb93");
    (300, "c487c09ee884643bace14ca4da089305dfbe56ce63f844b6f5ed4db0b5f94aac");
  ]

let test_sha3_kat () =
  List.iter
    (fun (n, expected) ->
      let msg = Bytes.init n (fun i -> Char.chr (i * 31 land 0xFF)) in
      check Alcotest.string (Printf.sprintf "sha3-256 of %d bytes" n) expected
        (hex (Keccak.sha3_256 msg));
      check Alcotest.string (Printf.sprintf "reference sha3-256 of %d bytes" n) expected
        (hex (Keccak.Reference.sha3_256 msg)))
    sha3_kats

let bytes_gen = QCheck.(map Bytes.of_string (string_of_size Gen.(0 -- 600)))

let prop_sha3_matches_reference =
  prop
    (QCheck.Test.make ~name:"unrolled sha3-256 = reference" ~count:200 bytes_gen (fun msg ->
         Bytes.equal (Keccak.sha3_256 msg) (Keccak.Reference.sha3_256 msg)))

let prop_mac28_matches_reference =
  prop
    (QCheck.Test.make ~name:"unrolled mac28 = reference (incl. keyed snapshot)" ~count:200
       QCheck.(pair bytes_gen bytes_gen)
       (fun (key, data) ->
         let expected = Keccak.Reference.mac_28bit ~key data in
         Keccak.mac_28bit ~key data = expected
         && Keccak.mac_28bit_keyed (Keccak.keyed_init ~key) data = expected))

(* The record tag over a slice at any byte offset: whole rate blocks
   are absorbed with eight-byte loads from [off], so offsets 0-7 cover
   every misalignment, and the key lengths leave the snapshot's open
   block empty (0, 136), part-full (16, 32, 137) or one byte short of
   full (135). *)
let prop_mac16_keyed_matches_reference =
  prop
    (QCheck.Test.make ~name:"mac16_keyed_into at any offset = reference sha3" ~count:300
       QCheck.(triple (oneofl [ 0; 16; 32; 135; 136; 137 ]) (int_range 0 7) (int_range 0 600))
       (fun (key_len, off, len) ->
         let key = Bytes.init key_len (fun i -> Char.chr (((i * 11) + 5) land 0xFF)) in
         let data = Bytes.init (off + len + 3) (fun i -> Char.chr (((i * 29) + 1) land 0xFF)) in
         let tag = Bytes.make 20 '\000' in
         Keccak.mac16_keyed_into (Keccak.keyed_init ~key) data ~off ~len tag ~tag_off:4;
         let expected = Keccak.Reference.sha3_256 (Bytes.cat key (Bytes.sub data off len)) in
         Bytes.equal (Bytes.sub tag 4 16) (Bytes.sub expected 0 16)))

(* --- SDK measurement stream vs a hand-rolled padded reference --- *)

let test_measurement_stream () =
  let pages = [ (0x100, Bytes.of_string "short"); (0x101, Bytes.make page_size 'f') ] in
  let reference =
    let ctx = Hypertee_crypto.Sha256.init () in
    List.iter
      (fun (vpn, data) ->
        let header = Bytes.create 8 in
        Bx.set_u64_le header 0 (Int64.of_int vpn);
        Hypertee_crypto.Sha256.update ctx header;
        let padded = Bytes.make page_size '\000' in
        Bytes.blit data 0 padded 0 (Bytes.length data);
        Hypertee_crypto.Sha256.update ctx padded)
      pages;
    Hypertee_crypto.Sha256.finalize ctx
  in
  let ctx = Hypertee_crypto.Sha256.init () in
  List.iter
    (fun (vpn, data) ->
      let header = Bytes.create 8 in
      Bx.set_u64_le header 0 (Int64.of_int vpn);
      Hypertee_crypto.Sha256.update ctx header;
      Hypertee_crypto.Sha256.update ctx data;
      let pad = page_size - Bytes.length data in
      if pad > 0 then
        Hypertee_crypto.Sha256.feed_sub ctx (Bytes.make page_size '\000') ~off:0 ~len:pad)
    pages;
  check Alcotest.bytes "streamed = padded" reference (Hypertee_crypto.Sha256.finalize ctx)

let test_launch_measurement_still_verifies () =
  (* End to end: the SDK-side streamed measurement must still agree
     with the EMS-side measurement, or launch fails. *)
  let platform = Hypertee.Platform.create ~seed:0xD47AL () in
  let image =
    Hypertee.Sdk.image_of_code
      ~code:(Bytes.init 5000 (fun i -> Char.chr (i land 0xFF)))
      ~data:(Bytes.of_string "trailing data, not page aligned")
      ()
  in
  match Hypertee.Sdk.launch platform image with
  | Ok enclave -> (
    match Hypertee.Sdk.destroy platform ~enclave with
    | Ok () -> ()
    | Error m -> Alcotest.fail m)
  | Error m -> Alcotest.fail m

(* --- perf harness plumbing --- *)

let test_perf_run_and_json () =
  let samples = Perf.run ~quick:true ~min_time_s:0.0005 () in
  check Alcotest.bool ">= 6 samples" true (List.length samples >= 6);
  List.iter
    (fun s ->
      check Alcotest.bool (s.Perf.target ^ " positive") true (s.Perf.value > 0.0);
      check Alcotest.bool (s.Perf.target ^ " ran") true (s.Perf.runs >= 1))
    samples;
  List.iter
    (fun target ->
      check Alcotest.bool (target ^ " speedup present") true
        (Perf.find samples ~target ~metric:"speedup-vs-reference" <> None))
    [
      "aes-ctr-page";
      "sha3-256-page";
      "keccak-mac28-page";
      "mee-store-load-page";
      "chan-record-seal";
      "cloud-warm-create";
      "rsa-sign";
    ];
  List.iter
    (fun target ->
      check Alcotest.bool (target ^ " latency present") true
        (Perf.find samples ~target ~metric:"latency" <> None))
    [ "pt-walk"; "session-rw/64B"; "ealloc-efree/4pages"; "eretire" ];
  (* Every speedup-vs-reference ratio must compare like with like:
     its two sides are the samples [target] and [target-reference],
     and both must exist and measure the same unit of work (same
     metric, same unit). The chan-record-seal reference was once a
     bare chunk-copy loop — a throughput "pair" whose ratio only
     measured memcpy against real crypto. *)
  List.iter
    (fun s ->
      if s.Perf.metric = "speedup-vs-reference" then begin
        let side metric_label t =
          match
            List.find_opt
              (fun c -> c.Perf.target = t && c.Perf.metric <> "speedup-vs-reference")
              samples
          with
          | Some c -> c
          | None -> Alcotest.failf "%s: %s side missing" s.Perf.target metric_label
        in
        let fast = side "fast" s.Perf.target in
        let reference = side "reference" (s.Perf.target ^ "-reference") in
        check Alcotest.string (s.Perf.target ^ ": sides share a metric") fast.Perf.metric
          reference.Perf.metric;
        check Alcotest.string (s.Perf.target ^ ": sides share a unit") fast.Perf.unit_
          reference.Perf.unit_;
        check Alcotest.string (s.Perf.target ^ ": ratio is dimensionless") "x" s.Perf.unit_
      end)
    samples;
  let path = Filename.temp_file "bench_perf" ".json" in
  Perf.write_json ~path samples;
  let ic = open_in path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  check Alcotest.bool "json object with host block" true
    (String.length content > 2 && content.[0] = '{');
  let contains re =
    let rec find i =
      i + String.length re <= String.length content
      && (String.sub content i (String.length re) = re || find (i + 1))
    in
    find 0
  in
  check Alcotest.bool "host block present" true (contains "\"host\"");
  check Alcotest.bool "hardware_threads present" true (contains "\"hardware_threads\"");
  check Alcotest.bool "ocaml_version present" true (contains "\"ocaml_version\"");
  List.iter
    (fun s ->
      check Alcotest.bool (s.Perf.target ^ " in json") true
        (contains (Printf.sprintf "\"target\": %S" s.Perf.target)))
    samples;
  (* The baseline loader must round-trip every sample it wrote, and
     the regression comparator must pass against an identical baseline
     and fail against an inflated one. *)
  let baseline = Perf.load_baseline ~path in
  Sys.remove path;
  check Alcotest.int "baseline round-trips all samples" (List.length samples)
    (List.length baseline);
  check Alcotest.bool "identical baseline: no regressions" true
    (Perf.compare_to_baseline ~baseline ~tolerance_pct:30.0 samples = []);
  let inflated =
    List.map
      (fun (t, m, v) -> if m = "speedup-vs-reference" then (t, m, v *. 10.0) else (t, m, v))
      baseline
  in
  check Alcotest.bool "inflated baseline: regression reported" true
    (Perf.compare_to_baseline ~baseline:inflated ~tolerance_pct:30.0 samples <> [])

let suite =
  [
    ( "dataplane.mee",
      [
        Alcotest.test_case "write_page matches store" `Quick test_page_roundtrip_matches_store;
        Alcotest.test_case "key 0 passthrough" `Quick test_key0_passthrough;
        Alcotest.test_case "tamper detected on range ops" `Quick test_tamper_detected_on_range_read;
        Alcotest.test_case "cross-key never decrypts" `Quick test_cross_key_garbles;
        prop_read_range;
        prop_update_range;
      ] );
    ( "dataplane.mac_cache",
      [
        Alcotest.test_case "hot read hits the cache" `Quick test_mac_cache_hot_hit;
        Alcotest.test_case "tamper after verified read caught" `Quick
          test_mac_cache_tamper_after_verified_read;
        Alcotest.test_case "flush forces re-verification" `Quick test_mac_cache_flush;
        Alcotest.test_case "reference engine never caches" `Quick
          test_reference_mac_engine_never_caches;
        Alcotest.test_case "fast and reference ciphertext identical" `Quick
          test_engines_produce_identical_ciphertext;
        Alcotest.test_case "untouched zero store skipped" `Quick test_zero_store_skip_untouched;
        Alcotest.test_case "borrow forces a real zero store" `Quick after_borrow;
        Alcotest.test_case "write_page forces a real zero store" `Quick after_write_page;
        Alcotest.test_case "revoke + program forces a real zero store" `Quick after_rekey;
        Alcotest.test_case "flush forces a real zero store" `Quick after_flush;
        Alcotest.test_case "reference engine never skips" `Quick
          test_reference_engine_never_skips;
        prop_zero_skip_matches_reference;
      ] );
    ( "dataplane.keccak",
      [
        Alcotest.test_case "FIPS 202 known answers" `Quick test_sha3_kat;
        prop_sha3_matches_reference;
        prop_mac28_matches_reference;
        prop_mac16_keyed_matches_reference;
      ] );
    ( "dataplane.phys_mem",
      [
        Alcotest.test_case "read_into unmaterialized frame" `Quick test_read_into_unmaterialized;
        prop_phys_read_into;
      ] );
    ( "dataplane.measurement",
      [
        Alcotest.test_case "streamed = padded" `Quick test_measurement_stream;
        Alcotest.test_case "launch still verifies" `Quick test_launch_measurement_still_verifies;
      ] );
    ("dataplane.perf", [ Alcotest.test_case "run + json" `Quick test_perf_run_and_json ]);
  ]
