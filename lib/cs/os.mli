(** Untrusted CS operating-system model.

    Owns the physical free list, process page tables, and the
    scheduler tick. Everything here is *outside* the TCB: the attack
    tests drive this module in "malicious" mode to mount
    controlled-channel probes, and the defense tests check that what
    it can observe about enclaves is only the coarse, batched pool
    traffic. *)

type process = {
  pid : int;
  page_table : Hypertee_arch.Page_table.t;
  mutable mapped_pages : int;
  mutable brk_vpn : int;  (** next heap vpn for [malloc_pages] *)
}

type t

val create : Hypertee_arch.Phys_mem.t -> t

val mem : t -> Hypertee_arch.Phys_mem.t

(** Frame allocation from the OS free list ([Cs_os] ownership).
    Returns fewer than [n] when memory is tight. *)
val alloc_frames : t -> n:int -> int list

(** Return frames to the free list. *)
val free_frames : t -> frames:int list -> unit

(** Number of times EMS asked this OS for pool refills — the *only*
    allocation signal a malicious OS observes (Sec. IV-A). *)
val ems_refill_requests : t -> int

(** Hooks to hand to [Hypertee_ems.Mem_pool]. *)
val pool_request : t -> n:int -> int list

(** [pool_return t ~frames] zeroes the frames and frees them: a
    destroyed enclave's staging window comes back through here with
    whatever the host wrote in it. *)
val pool_return : t -> frames:int list -> unit

(** [spawn t] creates a process with an empty page table. *)
val spawn : t -> process

(** [malloc_pages t p ~pages] extends [p]'s heap: allocates frames,
    maps them read-write. Returns the base vpn, or [None] when out of
    memory. This is the non-enclave [malloc] of Fig. 8a. *)
val malloc_pages : t -> process -> pages:int -> int option

(** [free_pages t p ~vpn ~pages] unmaps and releases. *)
val free_pages : t -> process -> vpn:int -> pages:int -> unit

(** Free-frame count (telemetry). *)
val free_count : t -> int

val processes : t -> process list
