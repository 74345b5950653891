(** Service-time model for enclave primitives on the EMS core.

    Each primitive's cost has three parts:
    - fixed dispatch work on the EMS core (decode request, sanity
      check, look up control structures, build response);
    - per-page data work (zeroing, page-table edits, bitmap updates),
      scaled by the EMS core's strength;
    - crypto work (measurement hashing, page encryption, signatures),
      which runs either on the crypto engine or in software on the
      EMS core (Table IV's comparison).

    All results in nanoseconds. The round-trip transport on top of
    this (EMCall entry, mailbox hops, polling) is costed in
    [Hypertee_cs.Emcall]. *)

type t

(** [create ~ems ~engine] — a model for the given EMS core
    strength and crypto engine (hardware or software timings). *)
val create : ems:Hypertee_arch.Config.core -> engine:Hypertee_crypto.Engine.t -> t

(** The core configuration the model was built for. *)
val ems_core : t -> Hypertee_arch.Config.core

(** The crypto-engine timing model in use. *)
val engine : t -> Hypertee_crypto.Engine.t

(** Fixed dispatch cost of any primitive. *)
val dispatch_ns : t -> float

(** Per-page management work (map + zero + bitmap + ownership). *)
val page_map_ns : t -> float

(** [service_ns t request] — full EMS-side service time for the
    request, using page counts / byte sizes found in the payload. *)
val service_ns : t -> Types.request -> float

(** Individual primitive costs used by the harness (page counts given
    explicitly). *)
val create_ns : t -> static_pages:int -> float

(** One EADD: map + copy + measurement-extend one page. *)
val add_page_ns : t -> float

(** Measurement finalization over [bytes] of loaded content. *)
val measure_ns : t -> bytes:int -> float

(** EALLOC of [pages] from the EMS pool. *)
val alloc_ns : t -> pages:int -> float

(** EATTEST: quote build + one signature (the attestation key's over
    the quote body; the platform certificate is signed once at boot). *)
val attest_ns : t -> float

(** EENTER/ERESUME context switch into the enclave. *)
val enter_ns : t -> float

(** EWB writeback of [pages] (re-encryption included). *)
val writeback_ns : t -> pages:int -> float
