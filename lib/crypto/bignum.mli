(** Arbitrary-precision natural numbers.

    Built from scratch (no zarith in the sealed environment) on
    base-2^26 limbs so that limb products fit comfortably in OCaml's
    63-bit native ints. Provides exactly what the attestation stack
    needs: modular exponentiation for Diffie–Hellman and RSA-lite,
    Miller–Rabin for key generation, and modular inverse for RSA key
    setup. Multiplication is schoolbook and division is Knuth's
    Algorithm D; {!mod_pow} by an odd modulus works in Montgomery
    form. Values are immutable. *)

type t

val zero : t
val one : t
val two : t

(** Conversions. [of_int] requires a non-negative argument. *)
val of_int : int -> t

(** [to_int] raises [Failure] if the value exceeds [max_int]
    (that is, if it needs more than 62 bits). *)
val to_int : t -> int

(** Big-endian byte-string conversions (leading zeros trimmed on
    [of_bytes_be]; [to_bytes_be ~len] left-pads to [len]). *)
val of_bytes_be : bytes -> t

val to_bytes_be : ?len:int -> t -> bytes

(** Hex (most significant first, no "0x"). *)
val of_hex : string -> t

val to_hex : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

(** Number of significant bits; [bit_length zero = 0]. *)
val bit_length : t -> int

val add : t -> t -> t

(** [sub a b] requires [a >= b] (naturals only). *)
val sub : t -> t -> t

val mul : t -> t -> t

(** [divmod a b] is [(a / b, a mod b)]. Raises [Division_by_zero]. *)
val divmod : t -> t -> t * t

val rem : t -> t -> t

(** [shift_left a n] / [shift_right a n] by [n] bits. *)
val shift_left : t -> int -> t

val shift_right : t -> int -> t

(** [testbit a i] is bit [i] (0 = least significant). *)
val testbit : t -> int -> bool

val is_even : t -> bool

(** [mod_pow ~base ~exp ~modulus] is [base^exp mod modulus]; raises
    [Division_by_zero] on a zero modulus. An odd modulus (every RSA
    prime and modulus, the DH prime) takes Montgomery multiplication
    (CIOS) with fixed 4-bit exponent windows, so no product is ever
    divided; its scratch is allocated per call. An even modulus falls
    back to {!mod_pow_reference}. Both paths return the same value. *)
val mod_pow : base:t -> exp:t -> modulus:t -> t

(** [mod_pow_reference ~base ~exp ~modulus] is the same function by
    right-to-left square-and-multiply, with a full {!divmod} after
    every product. Kept as the test oracle and performance baseline
    for {!mod_pow}, and used by it for even moduli. *)
val mod_pow_reference : base:t -> exp:t -> modulus:t -> t

(** [mod_inv a m] is the inverse of [a] modulo [m]; [None] when
    [gcd a m <> 1]. *)
val mod_inv : t -> t -> t option

val gcd : t -> t -> t

(** [random rng ~bits] draws uniformly in \[0, 2^bits). *)
val random : Hypertee_util.Xrng.t -> bits:int -> t

(** [random_below rng n] draws uniformly in \[0, n). *)
val random_below : Hypertee_util.Xrng.t -> t -> t

(** Miller–Rabin with [rounds] random bases (default 24). *)
val is_probably_prime : ?rounds:int -> Hypertee_util.Xrng.t -> t -> bool

(** [generate_prime rng ~bits] draws random odd candidates of exactly
    [bits] bits until one passes Miller–Rabin. *)
val generate_prime : Hypertee_util.Xrng.t -> bits:int -> t

val pp : Format.formatter -> t -> unit
