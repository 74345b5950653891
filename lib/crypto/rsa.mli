(** RSA-lite signatures (512-bit modulus, e = 65537).

    Implements the signing service of the EMS crypto engine: platform
    certificates are signed with the Endorsement Key and enclave
    quotes with the Attestation Key (Sec. VI). 512-bit keys keep
    schoolbook-bignum key generation fast; the protocol shape
    (hash, pad, modexp, verify) is the real one. Not secure at this
    size — this is a simulator, not a product. *)

type public = { n : Bignum.t; e : Bignum.t }

(** A private key with its Chinese-remainder parameters: [n = p * q],
    [d] the inverse of [e] modulo [(p-1)(q-1)], [dp = d mod (p-1)],
    [dq = d mod (q-1)] and [qinv = q^-1 mod p]. {!sign} uses only the
    CRT fields and [public]; {!sign_reference} uses [d]. *)
type keypair = {
  public : public;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;
  dq : Bignum.t;
  qinv : Bignum.t;
}

(** Modulus size in bits used throughout (512). *)
val modulus_bits : int

(** Deterministic keypair from the given RNG. The CRT parameters are
    derived without further draws, so a seed gives the same [n] and
    [d] as a generator that stores only those. *)
val generate : Hypertee_util.Xrng.t -> keypair

(** [sign key msg] hashes [msg] with SHA-256, pads (PKCS#1-v1.5
    style) and computes [em^d mod n] as two half-size exponentiations
    mod [p] and mod [q], recombined with Garner's formula. The result
    is the same signature as the direct [em^d mod n]. Before returning
    it checks [s^e = em (mod n)] and raises [Failure] if that fails:
    a fault in one CRT half (a corrupted [dp], a bit flip mid
    computation) would otherwise release a signature from which
    [gcd(s^e - em, n)] recovers a prime factor of [n]. *)
val sign : keypair -> bytes -> bytes

(** [sign_reference key msg] is the same signature computed directly
    as [em^d mod n] with {!Bignum.mod_pow_reference}: no CRT, no
    Montgomery form, no fault check. Kept as the test oracle and the
    performance baseline for {!sign}. *)
val sign_reference : keypair -> bytes -> bytes

(** [verify pub ~msg ~signature] checks the padded digest. *)
val verify : public -> msg:bytes -> signature:bytes -> bool

(** Serialize a public key for embedding in certificates. *)
val public_to_bytes : public -> bytes

val public_of_bytes : bytes -> public
