(** Physical memory: an array of 4 KiB frames with ownership metadata
    and lazily allocated byte contents.

    Frame ownership is the ground truth that the bitmap, the page
    ownership table, and the DMA whitelist are all views of; the
    property tests check those views against this. Contents are only
    materialised for frames that are actually written, so simulating
    a 256 MiB platform does not cost 256 MiB. *)

type owner =
  | Free  (** in the CS OS free list *)
  | Cs_os  (** kernel or normal application memory *)
  | Pool  (** in the EMS enclave memory pool, not yet mapped *)
  | Enclave of int  (** private enclave page (enclave id) *)
  | Shared of int  (** enclave shared-memory page (shm id) *)
  | Page_table of int  (** enclave page-table page (enclave id) *)
  | Ems_private  (** EMS-reserved (invisible to CS) *)
  | Bitmap_region  (** holds the bitmap itself *)

type t

(** [create ~frames] makes a memory of [frames] 4 KiB frames, all
    [Free]. *)
val create : frames:int -> t

val frames : t -> int
val owner : t -> int -> owner
val set_owner : t -> int -> owner -> unit

(** Count frames matching a predicate. *)
val count_owned : t -> (owner -> bool) -> int

(** [read t ~frame] is a copy of the frame's 4096 bytes (zeros if
    never written). *)
val read : t -> frame:int -> bytes

(** [write t ~frame data] replaces the frame contents. [data] must be
    exactly 4096 bytes. *)
val write : t -> frame:int -> bytes -> unit

(** [borrow t ~frame] is the frame's live underlying buffer (4096
    bytes), materialising it on first touch. Writes through the
    result are writes to DRAM; the reference is only valid until the
    frame is re-written via [write]. This is the zero-copy entry the
    memory-encryption engine uses to transform pages in place. *)
val borrow : t -> frame:int -> bytes

(** [borrow_ro t ~frame] is [borrow] for callers that promise not to
    write through the result: the frame's {!version} is left alone,
    so the engine's verified-MAC cache stays hot across repeated
    reads of an unmodified frame. *)
val borrow_ro : t -> frame:int -> bytes

(** [version t ~frame] is the frame's write version: a counter bumped
    by every mutation entry point ([write], [write_sub], [zero],
    [write_u64]) and by every mutable [borrow] (which hands out a
    live alias, so the bytes may change behind the API). The
    memory-encryption engine tags verified MAC-cache lines with this
    value; a bumped version forces the next read to re-verify. *)
val version : t -> frame:int -> int

(** [read_into t ~frame ~off ~len dst ~dst_off] copies a slice of the
    frame into [dst] without allocating (zeros if the frame was never
    written). *)
val read_into : t -> frame:int -> off:int -> len:int -> bytes -> dst_off:int -> unit

(** [read_sub t ~frame ~off ~len] / [write_sub t ~frame ~off data]
    partial access within one frame. *)
val read_sub : t -> frame:int -> off:int -> len:int -> bytes

val write_sub : t -> frame:int -> off:int -> bytes -> unit

(** [zero t ~frame] clears contents (page scrubbing on free). *)
val zero : t -> frame:int -> unit

(** 64-bit load/store at a byte offset inside a frame (little-endian);
    used by the page-table radix nodes. *)
val read_u64 : t -> frame:int -> off:int -> int64

val write_u64 : t -> frame:int -> off:int -> int64 -> unit

(** [find_free t ~n] returns the [n] lowest free frame numbers
    (ascending) or [None] if memory is exhausted. Does not change
    ownership. The scan starts from a lower bound below which no
    frame is free, which [set_owner _ Free] lowers. *)
val find_free : t -> n:int -> int list option

val pp_owner : Format.formatter -> owner -> unit
