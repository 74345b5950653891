(** SHA-256 (FIPS 180-4).

    Used for enclave measurement (EMEAS), HMAC/HKDF key derivation,
    and signature digests. Incremental interface so measurement can
    be extended page by page as EADD loads an enclave.

    {!Reference} retains the original kernel as the qcheck oracle and
    perf baseline, mirroring [Keccak.Reference]. Both produce
    bit-identical digests. *)

type ctx

val digest_size : int

(** Fresh hashing context. *)
val init : unit -> ctx

(** [reset ctx] rewinds a context to the freshly-initialised state so
    hot callers can reuse one allocation across digests. *)
val reset : ctx -> unit

(** [update ctx b] absorbs all of [b]. *)
val update : ctx -> bytes -> unit

(** [update_sub ctx b ~off ~len] absorbs a slice. *)
val update_sub : ctx -> bytes -> off:int -> len:int -> unit

(** [feed_sub ctx b ~off ~len] absorbs a slice without copying it
    first — the data-plane name for [update_sub]. *)
val feed_sub : ctx -> bytes -> off:int -> len:int -> unit

(** [finalize ctx] pads and produces the 32-byte digest. The context
    must not be used afterwards (or must be [reset] first). *)
val finalize : ctx -> bytes

(** [finalize_into ctx dst ~off] writes the 32-byte digest at
    [dst+off] without allocating. *)
val finalize_into : ctx -> bytes -> off:int -> unit

(** One-shot digest. *)
val digest : bytes -> bytes

(** One-shot digest of a string. *)
val digest_string : string -> bytes

(** The original kernel, which masks every additive step to 32 bits,
    retained verbatim with a one-shot padding of its own: the
    equivalence oracle for the default kernel and the baseline the
    perf harness measures speedup against. *)
module Reference : sig
  val digest : bytes -> bytes
end
