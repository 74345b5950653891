(** Keccak-f[1600] sponge and SHA3-256 (FIPS 202).

    The paper's memory-integrity engine uses a SHA-3-based MAC
    (Sec. IV-C); [mac_28bit] produces the truncated 28-bit tag that
    engine stores per cache line.

    The default entry points run the unrolled lane-level permutation
    (25 unboxed 64-bit lanes in a 200-byte state, allocation-free);
    {!Reference} retains the original int64-array implementation as
    the qcheck oracle and perf baseline, mirroring
    [Aes.ctr_reference]. Both produce bit-identical digests and
    tags. *)

(** SHA3-256 one-shot digest (32 bytes). *)
val sha3_256 : bytes -> bytes

(** SHA3-256 of a string. *)
val sha3_256_string : string -> bytes

(** [mac_28bit ~key data] is the 28-bit truncated SHA3 MAC used by
    the memory-integrity engine, returned as a non-negative int. The
    key is absorbed before the data (KMAC-style prefix keying is fine
    for a sponge). *)
val mac_28bit : key:bytes -> bytes -> int

(** A sponge snapshot taken right after absorbing a MAC key:
    replaying it skips the per-call key absorption, so a caller that
    MACs many lines under one key (the memory-integrity engine) pays
    for the key exactly once. Immutable once built; safe to share
    across domains (each call replays into domain-local scratch). *)
type keyed

(** [keyed_init ~key] captures the post-key sponge state. *)
val keyed_init : key:bytes -> keyed

(** [mac_28bit_keyed keyed data] is byte-identical to
    [mac_28bit ~key data] for the [key] captured in [keyed]. *)
val mac_28bit_keyed : keyed -> bytes -> int

(** [mac16_keyed_into keyed data ~off ~len tag ~tag_off] writes the
    16-byte keyed-sponge tag of [data.[off..off+len-1]] — the first
    half of [SHA3-256(key ‖ data)] — into [tag] at [tag_off], with no
    allocation. This is the record tag of the secure-channel layer
    (docs/PROTOCOL.md §3.3): the record header and ciphertext sit
    contiguously in one buffer, so the MAC input is a single slice.
    Raises [Invalid_argument] if the data slice is not within [data]
    or the 16 tag bytes are not within [tag]. *)
val mac16_keyed_into : keyed -> bytes -> off:int -> len:int -> bytes -> tag_off:int -> unit

(** The original incremental-sponge implementation on int64 arrays,
    retained verbatim: the equivalence oracle for the unrolled path
    and the baseline the perf harness measures speedup against. *)
module Reference : sig
  val sha3_256 : bytes -> bytes
  val mac_28bit : key:bytes -> bytes -> int
end
