type public = { n : Bignum.t; e : Bignum.t }
type keypair = {
  public : public;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;
  dq : Bignum.t;
  qinv : Bignum.t;
}

let modulus_bits = 512
let e_fixed = Bignum.of_int 65537

let generate rng =
  let half = modulus_bits / 2 in
  let rec go () =
    let p = Bignum.generate_prime rng ~bits:half in
    let q = Bignum.generate_prime rng ~bits:half in
    if Bignum.equal p q then go ()
    else begin
      let n = Bignum.mul p q in
      let p1 = Bignum.sub p Bignum.one and q1 = Bignum.sub q Bignum.one in
      match (Bignum.mod_inv e_fixed (Bignum.mul p1 q1), Bignum.mod_inv q p) with
      | Some d, Some qinv ->
        { public = { n; e = e_fixed }; d; p; q; dp = Bignum.rem d p1; dq = Bignum.rem d q1; qinv }
      | _ -> go ()
    end
  in
  go ()

let key_bytes = modulus_bits / 8

(* PKCS#1 v1.5-shaped padding: 0x00 0x01 FF..FF 0x00 digest. *)
let pad_digest digest =
  let pad_len = key_bytes - Bytes.length digest - 3 in
  if pad_len < 8 then invalid_arg "Rsa.pad_digest: modulus too small";
  let out = Bytes.make key_bytes '\xff' in
  Bytes.set out 0 '\x00';
  Bytes.set out 1 '\x01';
  Bytes.set out (2 + pad_len) '\x00';
  Bytes.blit digest 0 out (3 + pad_len) (Bytes.length digest);
  out

let encode msg = Bignum.of_bytes_be (pad_digest (Sha256.digest msg))

(* em^d mod n from its halves mod p and mod q (Garner):
   s = s_q + q * (qinv * (s_p - s_q) mod p). A fault in either half
   would yield an s whose gcd with n exposes a factor (Boneh–DeMillo–
   Lipton), so s is checked against the public exponent before it is
   released. *)
let sign key msg =
  let em = encode msg in
  let sp = Bignum.mod_pow ~base:em ~exp:key.dp ~modulus:key.p in
  let sq = Bignum.mod_pow ~base:em ~exp:key.dq ~modulus:key.q in
  let sq_p = Bignum.rem sq key.p in
  let diff =
    if Bignum.compare sp sq_p >= 0 then Bignum.sub sp sq_p
    else Bignum.sub (Bignum.add sp key.p) sq_p
  in
  let s = Bignum.add sq (Bignum.mul (Bignum.rem (Bignum.mul key.qinv diff) key.p) key.q) in
  if not (Bignum.equal (Bignum.mod_pow ~base:s ~exp:key.public.e ~modulus:key.public.n) em) then
    failwith "Rsa.sign: CRT signature failed verification";
  Bignum.to_bytes_be ~len:key_bytes s

let sign_reference key msg =
  Bignum.to_bytes_be ~len:key_bytes
    (Bignum.mod_pow_reference ~base:(encode msg) ~exp:key.d ~modulus:key.public.n)

let verify pub ~msg ~signature =
  if Bytes.length signature <> key_bytes then false
  else begin
    let s = Bignum.of_bytes_be signature in
    if Bignum.compare s pub.n >= 0 then false
    else begin
      let em = Bignum.mod_pow ~base:s ~exp:pub.e ~modulus:pub.n in
      let expected = pad_digest (Sha256.digest msg) in
      Hypertee_util.Bytes_ext.equal_ct (Bignum.to_bytes_be ~len:key_bytes em) expected
    end
  end

let public_to_bytes pub =
  let n = Bignum.to_bytes_be ~len:key_bytes pub.n in
  let e = Bignum.to_bytes_be ~len:4 pub.e in
  Bytes.cat n e

let public_of_bytes b =
  if Bytes.length b <> key_bytes + 4 then invalid_arg "Rsa.public_of_bytes: bad length";
  {
    n = Bignum.of_bytes_be (Bytes.sub b 0 key_bytes);
    e = Bignum.of_bytes_be (Bytes.sub b key_bytes 4);
  }
