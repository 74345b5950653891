(* Tests for hypertee_crypto: standard test vectors for the
   primitives, property tests for the algebra, protocol round trips. *)

open Hypertee_crypto
module Bx = Hypertee_util.Bytes_ext

let check = Alcotest.check
let prop = QCheck_alcotest.to_alcotest ~speed_level:`Quick
let hex = Bx.to_hex
let rng () = Hypertee_util.Xrng.create 0xC0FFEEL

(* --- SHA-256 (FIPS 180-4 / NIST CAVS vectors) --- *)

let sha256_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (msg, expected) -> check Alcotest.string msg expected (hex (Sha256.digest_string msg)))
    sha256_vectors

let test_sha256_million_a () =
  (* The classic "one million a's" vector exercises many blocks. *)
  let ctx = Sha256.init () in
  let chunk = Bytes.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.update ctx chunk
  done;
  check Alcotest.string "1M x a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex (Sha256.finalize ctx))

let prop_sha256_incremental =
  prop
    (QCheck.Test.make ~name:"incremental = one-shot" ~count:100
       QCheck.(pair (string_of_size Gen.(int_range 0 300)) (int_range 0 300))
       (fun (s, split) ->
         let b = Bytes.of_string s in
         let split = Stdlib.min split (Bytes.length b) in
         let ctx = Sha256.init () in
         Sha256.update_sub ctx b ~off:0 ~len:split;
         Sha256.update_sub ctx b ~off:split ~len:(Bytes.length b - split);
         Bytes.equal (Sha256.finalize ctx) (Sha256.digest b)))

let test_sha256_bad_slice () =
  Alcotest.check_raises "slice out of bounds"
    (Invalid_argument "Sha256.update_sub: slice out of bounds") (fun () ->
      let ctx = Sha256.init () in
      Sha256.update_sub ctx (Bytes.create 4) ~off:2 ~len:4)

(* --- SHA3-256 (FIPS 202 vectors) --- *)

let test_sha3_vectors () =
  check Alcotest.string "empty"
    "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
    (hex (Keccak.sha3_256_string ""));
  check Alcotest.string "abc"
    "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532"
    (hex (Keccak.sha3_256_string "abc"));
  check Alcotest.string "448-bit"
    "41c0dba2a9d6240849100376a8235e2c82e1b9998a999e21db32dd97496d3376"
    (hex (Keccak.sha3_256_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))

let test_sha3_multiblock () =
  (* A message spanning several 136-byte rate blocks must differ from
     its prefix digests (regression for absorb indexing). *)
  let long = Bytes.init 500 (fun i -> Char.chr (i land 0xff)) in
  let d1 = Keccak.sha3_256 long in
  let d2 = Keccak.sha3_256 (Bytes.sub long 0 499) in
  check Alcotest.bool "prefix differs" false (Bytes.equal d1 d2)

let test_mac_28bit () =
  let key = Bytes.of_string "k" in
  let m1 = Keccak.mac_28bit ~key (Bytes.of_string "hello") in
  let m2 = Keccak.mac_28bit ~key (Bytes.of_string "hellp") in
  check Alcotest.bool "28-bit range" true (m1 >= 0 && m1 < 1 lsl 28);
  check Alcotest.bool "sensitive to data" true (m1 <> m2);
  let m3 = Keccak.mac_28bit ~key:(Bytes.of_string "K") (Bytes.of_string "hello") in
  check Alcotest.bool "sensitive to key" true (m1 <> m3)

let test_mac16_bad_slice () =
  (* mac16_keyed_into is public, so it must reject any slice outside
     [data] or [tag] before touching the sponge. 392 bytes over a
     200-byte buffer used to return a tag computed over 192 bytes
     past the buffer's end. *)
  let keyed = Keccak.keyed_init ~key:(Bytes.make 16 'k') in
  let data = Bytes.make 200 'd' and tag = Bytes.make 32 't' in
  let rejects name ~off ~len ~tag_off =
    Alcotest.check_raises name (Invalid_argument "Keccak.mac16_keyed_into: slice out of bounds")
      (fun () -> Keccak.mac16_keyed_into keyed data ~off ~len tag ~tag_off)
  in
  rejects "len past the end" ~off:0 ~len:392 ~tag_off:0;
  rejects "off + len past the end" ~off:64 ~len:137 ~tag_off:0;
  rejects "negative off" ~off:(-8) ~len:16 ~tag_off:0;
  rejects "negative len" ~off:8 ~len:(-1) ~tag_off:0;
  rejects "tag past the end" ~off:0 ~len:200 ~tag_off:17;
  rejects "negative tag_off" ~off:0 ~len:200 ~tag_off:(-1);
  check Alcotest.bytes "tag untouched by rejected calls" (Bytes.make 32 't') tag;
  (* The full buffer and a tag ending exactly at [tag]'s end are fine. *)
  Keccak.mac16_keyed_into keyed data ~off:0 ~len:200 tag ~tag_off:16;
  check Alcotest.bytes "in-range tag"
    (Bytes.sub (Keccak.Reference.sha3_256 (Bytes.cat (Bytes.make 16 'k') data)) 0 16)
    (Bytes.sub tag 16 16)

(* --- AES-128 (FIPS 197) --- *)

let test_aes_fips_vector () =
  let key = Bx.of_hex "000102030405060708090a0b0c0d0e0f" in
  let pt = Bx.of_hex "00112233445566778899aabbccddeeff" in
  let k = Aes.expand key in
  check Alcotest.string "FIPS-197 C.1" "69c4e0d86a7b0430d8cdb78070b4c55a"
    (hex (Aes.encrypt_block k pt));
  check Alcotest.bytes "decrypt inverts" pt (Aes.decrypt_block k (Aes.encrypt_block k pt))

let sp800_38a_key = "2b7e151628aed2a6abf7158809cf4f3c"

let sp800_38a_plaintext =
  [
    "6bc1bee22e409f96e93d7e117393172a";
    "ae2d8a571e03ac9c9eb76fac45af8e51";
    "30c81c46a35ce411e5fbc1191a0a52ef";
    "f69f2445df4f9b17ad2b417be66c3710";
  ]

let test_aes_sp800_38a_ecb () =
  (* NIST SP 800-38A F.1.1 ECB-AES128, all four blocks. *)
  let k = Aes.expand (Bx.of_hex sp800_38a_key) in
  List.iter2
    (fun pt expected ->
      check Alcotest.string ("ECB " ^ pt) expected (hex (Aes.encrypt_block k (Bx.of_hex pt))))
    sp800_38a_plaintext
    [
      "3ad77bb40d7a3660a89ecaf32466ef97";
      "f5d3d58503b9699de785895a96fdbaaf";
      "43b1cd7f598ece23881b00e3ed030688";
      "7b0c785e27e8ad3f8223207104725dd4";
    ]

let test_aes_sp800_38a_ctr () =
  (* NIST SP 800-38A F.5.1 CTR-AES128: the four blocks as one stream. *)
  let k = Aes.expand (Bx.of_hex sp800_38a_key) in
  let nonce = Bx.of_hex "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
  let pt = Bx.of_hex (String.concat "" sp800_38a_plaintext) in
  check Alcotest.string "CTR F.5.1"
    ("874d6191b620e3261bef6864990db6ce" ^ "9806f66b7970fdff8617187bb9fffdff"
   ^ "5ae4df3edbd5d35e5b4f09020db03eab" ^ "1e031dda2fbe03d1792170a0f3009cee")
    (hex (Aes.ctr k ~nonce pt));
  (* The retained reference implementation produces the same bytes. *)
  check Alcotest.bytes "reference matches" (Aes.ctr k ~nonce pt) (Aes.ctr_reference k ~nonce pt)

let key_gen = QCheck.(string_of_size (Gen.return 16))

let prop_ctr_matches_reference =
  prop
    (QCheck.Test.make ~name:"ctr = ctr_reference" ~count:100
       QCheck.(triple key_gen key_gen (string_of_size Gen.(int_range 0 200)))
       (fun (key, nonce, s) ->
         let k = Aes.expand (Bytes.of_string key) in
         let nonce = Bytes.of_string nonce in
         let data = Bytes.of_string s in
         Bytes.equal (Aes.ctr k ~nonce data) (Aes.ctr_reference k ~nonce data)))

let prop_ctr_into_inplace =
  prop
    (QCheck.Test.make ~name:"in-place ctr_into twice = id" ~count:100
       QCheck.(pair key_gen (string_of_size Gen.(int_range 0 200)))
       (fun (nonce, s) ->
         let k = Aes.expand (Bytes.make 16 'k') in
         let nonce = Bytes.of_string nonce in
         let buf = Bytes.of_string s in
         let len = Bytes.length buf in
         Aes.ctr_into k ~nonce ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 len;
         Aes.ctr_into k ~nonce ~src:buf ~src_off:0 ~dst:buf ~dst_off:0 len;
         Bytes.equal buf (Bytes.of_string s)))

let prop_ctr_stream_off =
  prop
    (QCheck.Test.make ~name:"ctr_into stream_off = slice of full stream" ~count:100
       QCheck.(pair (int_range 0 200) (int_range 0 200))
       (fun (off, len) ->
         let k = Aes.expand (Bytes.make 16 'k') in
         let nonce = Bytes.init 16 (fun i -> Char.chr (0xA0 + i)) in
         let data = Bytes.init (off + len) (fun i -> Char.chr (i land 0xFF)) in
         let full = Aes.ctr k ~nonce data in
         let out = Bytes.create len in
         Aes.ctr_into k ~nonce ~stream_off:off ~src:data ~src_off:off ~dst:out ~dst_off:0 len;
         Bytes.equal out (Bytes.sub full off len)))

let prop_encrypt_page_into =
  (* encrypt_page_into is exactly CTR under the page tweak, to any
     offset, and byte-identical to what the old allocating API did. *)
  prop
    (QCheck.Test.make ~name:"encrypt_page_into = reference ctr with tweak" ~count:50
       QCheck.(triple (int_range 0 4095) (int_range 0 1000) small_nat)
       (fun (page_off, len, page_number) ->
         let len = Stdlib.min len (4096 - page_off) in
         let k = Aes.expand (Bytes.make 16 'q') in
         let page = Bytes.init 4096 (fun i -> Char.chr ((i * 7) land 0xFF)) in
         let tweak = Bytes.make 16 '\000' in
         Bx.set_u64_be tweak 8 (Int64.of_int page_number);
         let full = Aes.ctr_reference k ~nonce:tweak page in
         let out = Bytes.create len in
         Aes.encrypt_page_into k ~page_number ~page_off ~src:page ~src_off:page_off ~dst:out
           ~dst_off:0 len;
         Bytes.equal out (Bytes.sub full page_off len)))

let prop_aes_roundtrip =
  prop
    (QCheck.Test.make ~name:"aes block roundtrip" ~count:200
       QCheck.(pair (string_of_size (QCheck.Gen.return 16)) (string_of_size (QCheck.Gen.return 16)))
       (fun (key, block) ->
         let k = Aes.expand (Bytes.of_string key) in
         let b = Bytes.of_string block in
         Bytes.equal (Aes.decrypt_block k (Aes.encrypt_block k b)) b))

let prop_ctr_roundtrip =
  prop
    (QCheck.Test.make ~name:"ctr roundtrip any length" ~count:100
       QCheck.(string_of_size Gen.(int_range 0 200))
       (fun s ->
         let k = Aes.expand (Bytes.make 16 'k') in
         let nonce = Bytes.make 16 'n' in
         let data = Bytes.of_string s in
         Bytes.equal (Aes.ctr k ~nonce (Aes.ctr k ~nonce data)) data))

let test_ctr_nonce_matters () =
  let k = Aes.expand (Bytes.make 16 'k') in
  let data = Bytes.make 32 'd' in
  let c1 = Aes.ctr k ~nonce:(Bytes.make 16 '\000') data in
  let c2 = Aes.ctr k ~nonce:(Bytes.make 16 '\001') data in
  check Alcotest.bool "different nonce, different ct" false (Bytes.equal c1 c2)

let test_ctr_counter_carry () =
  (* Encrypt enough blocks to force a counter byte carry. *)
  let k = Aes.expand (Bytes.make 16 'k') in
  let nonce = Bytes.cat (Bytes.make 15 '\000') (Bytes.make 1 '\254') in
  let data = Bytes.make 64 'x' in
  let ct = Aes.ctr k ~nonce data in
  check Alcotest.bytes "carry roundtrip" data (Aes.ctr k ~nonce ct)

let test_ctr_counter_wrap () =
  (* The low 64 bits of the counter start 16 blocks short of 2^64, so
     a 4 KiB page wraps them to zero (the high half never carries).
     The whole page and every slice straddling the wrap, at ragged
     and block-aligned stream offsets, must match the reference. *)
  let k = Aes.expand (Bytes.init 16 (fun i -> Char.chr (0x30 + i))) in
  let nonce = Bytes.init 16 (fun i -> Char.chr (0xC0 + i)) in
  Bx.set_u64_be nonce 8 (-16L);
  let page = Bytes.init 4096 (fun i -> Char.chr ((i * 13) land 0xFF)) in
  let expected = Aes.ctr_reference k ~nonce page in
  check Alcotest.bytes "4 KiB page across the wrap" expected (Aes.ctr k ~nonce page);
  List.iter
    (fun (off, len) ->
      let out = Bytes.make len '\000' in
      Aes.ctr_into k ~nonce ~stream_off:off ~src:page ~src_off:off ~dst:out ~dst_off:0 len;
      check Alcotest.bytes
        (Printf.sprintf "slice %d+%d" off len)
        (Bytes.sub expected off len) out)
    [ (240, 32); (255, 2); (250, 100); (256, 16); (224, 48); (8, 4000); (17, 4079); (0, 4096) ]

let test_page_tweak () =
  let k = Aes.expand (Bytes.make 16 'k') in
  let page = Bytes.make 4096 'p' in
  let c1 = Aes.encrypt_page k ~page_number:1 page in
  let c2 = Aes.encrypt_page k ~page_number:2 page in
  check Alcotest.bool "same plaintext, different frames differ" false (Bytes.equal c1 c2);
  check Alcotest.bytes "tweak roundtrip" page (Aes.decrypt_page k ~page_number:1 c1)

let test_cbc_mac () =
  let k = Aes.expand (Bytes.make 16 'k') in
  let m1 = Aes.cbc_mac k (Bytes.of_string "message one") in
  let m2 = Aes.cbc_mac k (Bytes.of_string "message two") in
  check Alcotest.int "tag length" 16 (Bytes.length m1);
  check Alcotest.bool "distinct" false (Bytes.equal m1 m2)

(* --- HMAC (RFC 4231) and HKDF (RFC 5869) --- *)

let test_hmac_rfc4231 () =
  check Alcotest.string "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Hmac.hmac ~key:(Bytes.make 20 '\x0b') (Bytes.of_string "Hi There")));
  check Alcotest.string "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Hmac.hmac ~key:(Bytes.of_string "Jefe") (Bytes.of_string "what do ya want for nothing?")));
  (* case 3: 20x 0xaa key, 50x 0xdd data *)
  check Alcotest.string "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex (Hmac.hmac ~key:(Bytes.make 20 '\xaa') (Bytes.make 50 '\xdd')))

let test_hmac_long_key () =
  (* Keys longer than the block size are hashed first (RFC 4231 case 6). *)
  check Alcotest.string "case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex
       (Hmac.hmac ~key:(Bytes.make 131 '\xaa')
          (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First")))

let test_hkdf_rfc5869 () =
  (* RFC 5869 test case 1. *)
  let ikm = Bytes.make 22 '\x0b' in
  let salt = Bx.of_hex "000102030405060708090a0b0c" in
  let info = Bx.of_hex "f0f1f2f3f4f5f6f7f8f9" in
  let prk = Hmac.extract ~salt ikm in
  check Alcotest.string "prk" "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    (hex prk);
  check Alcotest.string "okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (hex (Hmac.expand ~prk ~info 42))

let test_hkdf_info_separation () =
  let ikm = Bytes.of_string "root" in
  let a = Hmac.derive ~ikm ~salt:Bytes.empty ~info:"purpose-a" 16 in
  let b = Hmac.derive ~ikm ~salt:Bytes.empty ~info:"purpose-b" 16 in
  check Alcotest.bool "domain separation" false (Bytes.equal a b)

(* --- Bignum --- *)

let bn = Bignum.of_int

let test_bignum_basics () =
  check Alcotest.bool "zero" true (Bignum.is_zero Bignum.zero);
  check Alcotest.int "to_int . of_int" 123456789 (Bignum.to_int (bn 123456789));
  check Alcotest.int "bit_length 0" 0 (Bignum.bit_length Bignum.zero);
  check Alcotest.int "bit_length 1" 1 (Bignum.bit_length Bignum.one);
  check Alcotest.int "bit_length 255" 8 (Bignum.bit_length (bn 255));
  check Alcotest.int "bit_length 256" 9 (Bignum.bit_length (bn 256))

let test_bignum_bytes_roundtrip () =
  let v = Bignum.of_hex "deadbeefcafebabe0123456789" in
  check Alcotest.string "hex roundtrip" "deadbeefcafebabe0123456789" (Bignum.to_hex v);
  let b = Bignum.to_bytes_be ~len:20 v in
  check Alcotest.int "padded length" 20 (Bytes.length b);
  check Alcotest.bool "bytes roundtrip" true (Bignum.equal v (Bignum.of_bytes_be b))

let prop_ring_laws =
  prop
    (QCheck.Test.make ~name:"add/mul agree with int" ~count:300
       QCheck.(pair (int_bound 100000000) (int_bound 100000000))
       (fun (a, b) ->
         Bignum.to_int (Bignum.add (bn a) (bn b)) = a + b
         && Bignum.to_int (Bignum.mul (bn a) (bn b)) = a * b
         && (a < b || Bignum.to_int (Bignum.sub (bn a) (bn b)) = a - b)))

let prop_divmod =
  prop
    (QCheck.Test.make ~name:"divmod invariant (large operands)" ~count:200
       QCheck.(pair (int_bound 1000) (int_bound 1000))
       (fun (s1, s2) ->
         let r = Hypertee_util.Xrng.create (Int64.of_int ((s1 * 1009) + s2)) in
         let a = Bignum.random r ~bits:(64 + (s1 mod 200)) in
         let b = Bignum.random r ~bits:(8 + (s2 mod 150)) in
         Bignum.is_zero b
         ||
         let q, m = Bignum.divmod a b in
         Bignum.equal a (Bignum.add (Bignum.mul q b) m) && Bignum.compare m b < 0))

let prop_shift =
  prop
    (QCheck.Test.make ~name:"shift left then right" ~count:200
       QCheck.(pair (int_bound 1000000) (int_bound 100))
       (fun (a, n) ->
         Bignum.equal (bn a) (Bignum.shift_right (Bignum.shift_left (bn a) n) n)))

let test_divmod_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignum.divmod Bignum.one Bignum.zero))

let test_mod_pow () =
  (* 3^200 mod 1000003 cross-checked with a simple int loop. *)
  let m = 1000003 in
  let expected = ref 1 in
  for _ = 1 to 200 do
    expected := !expected * 3 mod m
  done;
  check Alcotest.int "modpow" !expected
    (Bignum.to_int (Bignum.mod_pow ~base:(bn 3) ~exp:(bn 200) ~modulus:(bn m)))

let test_to_int_overflow () =
  check Alcotest.int "max_int" max_int (Bignum.to_int (bn max_int));
  List.iter
    (fun (name, v) ->
      Alcotest.check_raises name (Failure "Bignum.to_int: overflow") (fun () ->
          ignore (Bignum.to_int v)))
    [
      ("2^62", Bignum.shift_left Bignum.one 62);
      ("2^63 - 1", Bignum.sub (Bignum.shift_left Bignum.one 63) Bignum.one);
      ("2^78 - 1", Bignum.sub (Bignum.shift_left Bignum.one 78) Bignum.one);
      ("2^100", Bignum.shift_left Bignum.one 100);
    ]

(* mod_pow (Montgomery for odd moduli) against the square-and-multiply
   oracle. *)
let pow2 k = Bignum.shift_left Bignum.one k

let mod_pow_agrees ~base ~exp ~modulus =
  Bignum.equal (Bignum.mod_pow ~base ~exp ~modulus) (Bignum.mod_pow_reference ~base ~exp ~modulus)

(* Every k-limb modulus shape at the limb boundaries, k = 1..24:
   2^(26k) - 1 (all limbs full), 2^(26(k-1)) + 1 (2^26 + 1 at k = 2)
   and the even 2^(26k-1); bases at and around the modulus. *)
let test_mod_pow_limb_boundaries () =
  let r = rng () in
  let moduli =
    List.concat_map
      (fun k ->
        [
          Bignum.sub (pow2 (26 * k)) Bignum.one;
          Bignum.add (pow2 (26 * (k - 1))) Bignum.one;
          pow2 ((26 * k) - 1);
        ])
      (List.init 24 (fun i -> i + 1))
  in
  List.iter
    (fun modulus ->
      let bases =
        [
          Bignum.zero;
          Bignum.one;
          Bignum.sub modulus Bignum.one;
          modulus;
          Bignum.add modulus Bignum.one;
          Bignum.add (Bignum.mul modulus Bignum.two) (bn 3);
          Bignum.random_below r modulus;
        ]
      in
      let exps = [ Bignum.zero; Bignum.one; Bignum.two; bn 65537; Bignum.random r ~bits:96 ] in
      List.iter
        (fun base ->
          List.iter
            (fun exp ->
              if not (mod_pow_agrees ~base ~exp ~modulus) then
                Alcotest.failf "mod_pow %s^%s mod %s" (Bignum.to_hex base) (Bignum.to_hex exp)
                  (Bignum.to_hex modulus))
            exps)
        bases)
    moduli

let prop_mod_pow_matches_reference =
  prop
    (QCheck.Test.make ~name:"mod_pow = mod_pow_reference (1-24 limbs)" ~count:300
       QCheck.(int_bound 1_000_000)
       (fun seed ->
         let r = Hypertee_util.Xrng.create (Int64.of_int seed) in
         let pick n = Hypertee_util.Xrng.int r n in
         let modulus =
           if pick 4 = 0 then bn (1 + pick 1000)
           else begin
             let limbs = 1 + pick 24 in
             let top = pow2 ((26 * limbs) - 1) in
             let m = Bignum.add top (Bignum.random r ~bits:((26 * limbs) - 1)) in
             match (pick 2, Bignum.is_even m) with
             | 0, true -> Bignum.add m Bignum.one
             | 1, false -> Bignum.sub m Bignum.one
             | _ -> m
           end
         in
         let base =
           match pick 4 with
           | 0 -> Bignum.zero
           | 1 -> Bignum.random_below r modulus
           | 2 -> Bignum.add modulus (Bignum.random_below r modulus)
           | _ -> Bignum.random r ~bits:(Bignum.bit_length modulus + 1 + pick 64)
         in
         let exp =
           match pick 4 with
           | 0 -> Bignum.zero
           | 1 -> Bignum.one
           | _ -> Bignum.random r ~bits:(1 + pick 128)
         in
         mod_pow_agrees ~base ~exp ~modulus))

let test_mod_inv () =
  let r = rng () in
  let p = Bignum.generate_prime r ~bits:48 in
  for a = 2 to 20 do
    match Bignum.mod_inv (bn a) p with
    | Some inv ->
      check Alcotest.bool "a * inv = 1 (mod p)" true
        (Bignum.equal Bignum.one (Bignum.rem (Bignum.mul inv (bn a)) p))
    | None -> Alcotest.fail "inverse must exist modulo a prime"
  done;
  check Alcotest.bool "non-invertible" true (Bignum.mod_inv (bn 6) (bn 9) = None)

let test_primality_known () =
  let r = rng () in
  List.iter
    (fun (n, expected) ->
      check Alcotest.bool (string_of_int n) expected (Bignum.is_probably_prime r (bn n)))
    [
      (2, true); (3, true); (4, false); (3, true); (17, true); (561, false) (* Carmichael *);
      (7919, true); (7917, false); (104729, true); (1000003, true); (1000001, false);
    ]

let test_generate_prime () =
  let r = rng () in
  let p = Bignum.generate_prime r ~bits:96 in
  check Alcotest.int "bit width" 96 (Bignum.bit_length p);
  check Alcotest.bool "prime" true (Bignum.is_probably_prime r p);
  check Alcotest.bool "odd" false (Bignum.is_even p)

let test_gcd () =
  check Alcotest.int "gcd" 6 (Bignum.to_int (Bignum.gcd (bn 48) (bn 18)));
  check Alcotest.int "gcd with zero" 5 (Bignum.to_int (Bignum.gcd (bn 5) Bignum.zero))

(* --- DH --- *)

let test_dh_agreement () =
  let r = rng () in
  let a = Dh.generate r and b = Dh.generate r in
  let s1 = Dh.shared_secret ~secret:a.Dh.secret ~peer_public:b.Dh.public in
  let s2 = Dh.shared_secret ~secret:b.Dh.secret ~peer_public:a.Dh.public in
  check Alcotest.bool "shared secrets agree" true (Bignum.equal s1 s2)

let test_dh_session_key () =
  let r = rng () in
  let a = Dh.generate r and b = Dh.generate r in
  let k1 = Dh.session_key ~secret:a.Dh.secret ~peer_public:b.Dh.public ~context:"test" in
  let k2 = Dh.session_key ~secret:b.Dh.secret ~peer_public:a.Dh.public ~context:"test" in
  let k3 = Dh.session_key ~secret:b.Dh.secret ~peer_public:a.Dh.public ~context:"other" in
  check Alcotest.bytes "keys agree" k1 k2;
  check Alcotest.bool "context separates" false (Bytes.equal k1 k3)

let test_dh_rejects_degenerate () =
  let r = rng () in
  let a = Dh.generate r in
  check Alcotest.bool "0 invalid" false (Dh.valid_public Bignum.zero);
  check Alcotest.bool "1 invalid" false (Dh.valid_public Bignum.one);
  check Alcotest.bool "p-1 invalid" false (Dh.valid_public (Bignum.sub Dh.p Bignum.one));
  Alcotest.check_raises "shared_secret rejects"
    (Invalid_argument "Dh.shared_secret: degenerate public element") (fun () ->
      ignore (Dh.shared_secret ~secret:a.Dh.secret ~peer_public:Bignum.one))

let test_dh_p_is_prime () =
  check Alcotest.bool "2^255-19 passes Miller-Rabin" true
    (Bignum.is_probably_prime ~rounds:8 (rng ()) Dh.p)

(* --- RSA --- *)

let test_rsa_sign_verify () =
  let kp = Rsa.generate (rng ()) in
  let msg = Bytes.of_string "attest this enclave" in
  let s = Rsa.sign kp msg in
  check Alcotest.int "signature width" (Rsa.modulus_bits / 8) (Bytes.length s);
  check Alcotest.bool "verifies" true (Rsa.verify kp.Rsa.public ~msg ~signature:s);
  check Alcotest.bool "wrong message" false
    (Rsa.verify kp.Rsa.public ~msg:(Bytes.of_string "other") ~signature:s);
  let tampered = Bytes.copy s in
  Bytes.set tampered 10 (Char.chr (Char.code (Bytes.get tampered 10) lxor 1));
  check Alcotest.bool "tampered signature" false (Rsa.verify kp.Rsa.public ~msg ~signature:tampered)

(* Known answer from the direct em^d mod n signer (no CRT): key
   generation and signatures must not move. *)
let test_rsa_known_answer () =
  let kp = Rsa.generate (rng ()) in
  check Alcotest.string "modulus"
    "b240b096c93358cd34e41ed1f4395ef966ffdeab98c31c76f5f53613ca42c2d4ccd660ae4ce923a0f09b8a92a969c5c5ae130f8b04c9b15a5e6de02d6fdb99d1"
    (Bignum.to_hex kp.Rsa.public.Rsa.n);
  check Alcotest.string "signature"
    "8da324a5047f87d4b745bf1f00351f4677c9123c52b5a9186790e37568fc2ba24ca89e267cb640c9765d80238083c589a40252a6c44d2a14ff550d16ae7221e9"
    (hex (Rsa.sign kp (Bytes.of_string "HyperTEE EATTEST known answer")))

let test_rsa_crt_matches_reference () =
  List.iter
    (fun seed ->
      let kp = Rsa.generate (Hypertee_util.Xrng.create seed) in
      List.iter
        (fun msg ->
          let msg = Bytes.of_string msg in
          check Alcotest.bytes
            (Printf.sprintf "seed %Ld, %d-byte message" seed (Bytes.length msg))
            (Rsa.sign_reference kp msg) (Rsa.sign kp msg))
        [ ""; "attest this enclave"; String.make 200 'x' ])
    [ 1L; 2L; 3L; 0x5EEDL ]

(* A fault in one CRT half must not release a signature: it would
   hand out a factor of n. *)
let test_rsa_fault_fails_closed () =
  let kp = Rsa.generate (rng ()) in
  let msg = Bytes.of_string "attest this enclave" in
  List.iter
    (fun (name, bad) ->
      Alcotest.check_raises name (Failure "Rsa.sign: CRT signature failed verification")
        (fun () -> ignore (Rsa.sign bad msg)))
    [
      ("corrupted dp", { kp with Rsa.dp = Bignum.add kp.Rsa.dp Bignum.one });
      ("corrupted dq", { kp with Rsa.dq = Bignum.sub kp.Rsa.dq Bignum.one });
      ("corrupted qinv", { kp with Rsa.qinv = Bignum.add kp.Rsa.qinv Bignum.one });
    ]

let test_rsa_wrong_key () =
  let r = rng () in
  let kp1 = Rsa.generate r and kp2 = Rsa.generate r in
  let msg = Bytes.of_string "m" in
  check Alcotest.bool "cross-key verify fails" false
    (Rsa.verify kp2.Rsa.public ~msg ~signature:(Rsa.sign kp1 msg))

let test_rsa_public_serialization () =
  let kp = Rsa.generate (rng ()) in
  let b = Rsa.public_to_bytes kp.Rsa.public in
  let p = Rsa.public_of_bytes b in
  check Alcotest.bool "n roundtrip" true (Bignum.equal p.Rsa.n kp.Rsa.public.Rsa.n);
  check Alcotest.bool "e roundtrip" true (Bignum.equal p.Rsa.e kp.Rsa.public.Rsa.e)

(* --- SIGMA --- *)

let test_sigma_flow () =
  let r = rng () in
  let init = Sigma.start r Sigma.Initiator in
  let resp = Sigma.start r Sigma.Responder in
  let k1, m1 = Sigma.derive_keys init ~peer_public:(Sigma.public_of resp) in
  let k2, m2 = Sigma.derive_keys resp ~peer_public:(Sigma.public_of init) in
  check Alcotest.bytes "session keys agree" k1 k2;
  check Alcotest.bytes "mac keys agree" m1 m2;
  let t =
    Sigma.transcript ~initiator_pub:(Sigma.public_of init) ~responder_pub:(Sigma.public_of resp)
      ~payload:(Bytes.of_string "quote")
  in
  let tag = Sigma.authenticate ~mac_key:m1 t in
  check Alcotest.bool "transcript authenticates" true (Sigma.check ~mac_key:m2 ~transcript:t ~tag);
  let t' =
    Sigma.transcript ~initiator_pub:(Sigma.public_of init) ~responder_pub:(Sigma.public_of resp)
      ~payload:(Bytes.of_string "forged")
  in
  check Alcotest.bool "forged transcript rejected" false (Sigma.check ~mac_key:m2 ~transcript:t' ~tag)

(* --- Engine timing model --- *)

let test_engine_rates () =
  let hw = Engine.default_hardware and sw = Engine.default_software in
  check Alcotest.bool "hw aes faster than sw" true
    (Engine.aes_ns hw ~bytes:65536 < Engine.aes_ns sw ~bytes:65536);
  check Alcotest.bool "hw sha faster than sw" true
    (Engine.sha256_ns hw ~bytes:65536 < Engine.sha256_ns sw ~bytes:65536);
  check Alcotest.bool "rsa sign slower than verify" true
    (Engine.rsa_sign_ns hw > Engine.rsa_verify_ns hw);
  (* Table III anchor: 16.1 Gbps SHA-256 over a large buffer. *)
  let ns = Engine.sha256_ns hw ~bytes:1_000_000 in
  let gbps = 1_000_000.0 *. 8.0 /. ns in
  check Alcotest.bool "sha within 5% of 16.1 Gbps" true (Float.abs (gbps -. 16.1) < 0.8)

let test_engine_monotone () =
  let hw = Engine.default_hardware in
  check Alcotest.bool "more bytes, more time" true
    (Engine.aes_ns hw ~bytes:8192 > Engine.aes_ns hw ~bytes:4096)

let suite =
  [
    ( "crypto.sha256",
      [
        Alcotest.test_case "NIST vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "one million a" `Quick test_sha256_million_a;
        Alcotest.test_case "bad slice" `Quick test_sha256_bad_slice;
        prop_sha256_incremental;
      ] );
    ( "crypto.sha3",
      [
        Alcotest.test_case "FIPS 202 vectors" `Quick test_sha3_vectors;
        Alcotest.test_case "multi-block" `Quick test_sha3_multiblock;
        Alcotest.test_case "28-bit MAC" `Quick test_mac_28bit;
        Alcotest.test_case "mac16 bad slice" `Quick test_mac16_bad_slice;
      ] );
    ( "crypto.aes",
      [
        Alcotest.test_case "FIPS-197 vector" `Quick test_aes_fips_vector;
        Alcotest.test_case "SP800-38A ECB vectors" `Quick test_aes_sp800_38a_ecb;
        Alcotest.test_case "SP800-38A CTR vectors" `Quick test_aes_sp800_38a_ctr;
        Alcotest.test_case "ctr nonce matters" `Quick test_ctr_nonce_matters;
        Alcotest.test_case "ctr counter carry" `Quick test_ctr_counter_carry;
        Alcotest.test_case "ctr counter wrap" `Quick test_ctr_counter_wrap;
        Alcotest.test_case "page tweak" `Quick test_page_tweak;
        Alcotest.test_case "cbc-mac" `Quick test_cbc_mac;
        prop_aes_roundtrip;
        prop_ctr_roundtrip;
        prop_ctr_matches_reference;
        prop_ctr_into_inplace;
        prop_ctr_stream_off;
        prop_encrypt_page_into;
      ] );
    ( "crypto.hmac",
      [
        Alcotest.test_case "RFC 4231 vectors" `Quick test_hmac_rfc4231;
        Alcotest.test_case "long key" `Quick test_hmac_long_key;
        Alcotest.test_case "HKDF RFC 5869" `Quick test_hkdf_rfc5869;
        Alcotest.test_case "info separation" `Quick test_hkdf_info_separation;
      ] );
    ( "crypto.bignum",
      [
        Alcotest.test_case "basics" `Quick test_bignum_basics;
        Alcotest.test_case "byte/hex roundtrips" `Quick test_bignum_bytes_roundtrip;
        Alcotest.test_case "divmod by zero" `Quick test_divmod_by_zero;
        Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
        Alcotest.test_case "mod_pow" `Quick test_mod_pow;
        Alcotest.test_case "mod_pow limb boundaries" `Quick test_mod_pow_limb_boundaries;
        Alcotest.test_case "mod_inv" `Quick test_mod_inv;
        Alcotest.test_case "primality on known values" `Quick test_primality_known;
        Alcotest.test_case "generate_prime" `Quick test_generate_prime;
        Alcotest.test_case "gcd" `Quick test_gcd;
        prop_ring_laws;
        prop_divmod;
        prop_shift;
        prop_mod_pow_matches_reference;
      ] );
    ( "crypto.dh",
      [
        Alcotest.test_case "key agreement" `Quick test_dh_agreement;
        Alcotest.test_case "session keys" `Quick test_dh_session_key;
        Alcotest.test_case "degenerate elements rejected" `Quick test_dh_rejects_degenerate;
        Alcotest.test_case "p is prime" `Slow test_dh_p_is_prime;
      ] );
    ( "crypto.rsa",
      [
        Alcotest.test_case "sign/verify" `Quick test_rsa_sign_verify;
        Alcotest.test_case "wrong key" `Quick test_rsa_wrong_key;
        Alcotest.test_case "known answer" `Quick test_rsa_known_answer;
        Alcotest.test_case "CRT = reference" `Quick test_rsa_crt_matches_reference;
        Alcotest.test_case "CRT fault fails closed" `Quick test_rsa_fault_fails_closed;
        Alcotest.test_case "public serialization" `Quick test_rsa_public_serialization;
      ] );
    ("crypto.sigma", [ Alcotest.test_case "full flow" `Quick test_sigma_flow ]);
    ( "crypto.engine",
      [
        Alcotest.test_case "hardware vs software rates" `Quick test_engine_rates;
        Alcotest.test_case "monotone in bytes" `Quick test_engine_monotone;
      ] );
  ]
