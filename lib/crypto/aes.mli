(** AES-128 block cipher (FIPS 197) and counter/XTS-like modes.

    This is the cipher behind the multi-key memory-encryption engine
    (Sec. IV-C), page swapping (EWB), shared-memory encryption
    (Sec. V-A), data sealing, and the conventional software-crypto
    communication baseline of Fig. 12.

    Encryption runs on a fused 32-bit T-table path. The [_into]
    variants write into caller-supplied buffers and perform no
    allocation; they share module-level scratch, which is safe because
    the simulator is single-threaded, but means results must be
    consumed (copied or XORed onward) before the next call. *)

type key

val block_size : int

(** Expand a 16-byte key. Raises [Invalid_argument] otherwise. *)
val expand : bytes -> key

(** [encrypt_block key src] / [decrypt_block key src] on exactly one
    16-byte block. *)
val encrypt_block : key -> bytes -> bytes

val decrypt_block : key -> bytes -> bytes

(** [encrypt_block_into key src ~src_off dst ~dst_off] encrypts the 16
    bytes at [src+src_off] into [dst+dst_off] without allocating.
    [src] and [dst] may alias (the source block is read in full before
    the destination is written). *)
val encrypt_block_into : key -> bytes -> src_off:int -> bytes -> dst_off:int -> unit

(** CTR mode: encryption and decryption are the same operation. The
    16-byte [nonce] seeds the counter; data of any length. The
    counter's low 64 bits increment big-endian per block and wrap
    modulo 2^64; its high 64 bits never change. *)
val ctr : key -> nonce:bytes -> bytes -> bytes

(** [ctr_into key ~nonce ?stream_off ~src ~src_off ~dst ~dst_off len]
    XORs the CTR keystream over [len] bytes of [src] into [dst]
    without allocating. [stream_off] is the byte position within the
    keystream at which this slice starts, so a sub-range of a larger
    message can be processed alone: encrypting bytes [off, off+len) of
    a buffer uses [~stream_off:off]. [src] and [dst] may be the same
    buffer (in-place). Applying the same call twice is the identity. *)
val ctr_into :
  key ->
  nonce:bytes ->
  ?stream_off:int ->
  src:bytes ->
  src_off:int ->
  dst:bytes ->
  dst_off:int ->
  int ->
  unit

(** The pre-T-table byte-array CTR implementation, retained verbatim
    as the baseline for equivalence tests and the [perf] harness's
    speedup measurement. Bit-identical output to [ctr]. *)
val ctr_reference : key -> nonce:bytes -> bytes -> bytes

(** Tweaked page encryption used by the memory engine: the physical
    page number acts as the tweak so that identical plaintext at
    different addresses yields different ciphertext. *)
val encrypt_page : key -> page_number:int -> bytes -> bytes

val decrypt_page : key -> page_number:int -> bytes -> bytes

(** [encrypt_page_into key ~page_number ?page_off ~src ~src_off ~dst
    ~dst_off len] is the allocation-free page path: [page_off] is the
    byte offset within the page where this slice lives, so a sub-range
    of a page can be processed without touching the rest.
    Decryption is the same operation ([decrypt_page_into] aliases). *)
val encrypt_page_into :
  key ->
  page_number:int ->
  ?page_off:int ->
  src:bytes ->
  src_off:int ->
  dst:bytes ->
  dst_off:int ->
  int ->
  unit

val decrypt_page_into :
  key ->
  page_number:int ->
  ?page_off:int ->
  src:bytes ->
  src_off:int ->
  dst:bytes ->
  dst_off:int ->
  int ->
  unit

(** CBC-MAC style tag (not for new protocol designs; used only as the
    legacy software baseline's authentication). 16 bytes. *)
val cbc_mac : key -> bytes -> bytes
