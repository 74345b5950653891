(** Platform parameters (paper Table III).

    One place for every microarchitectural constant the timing models
    consume: the CS core (BOOM-class out-of-order) and the three EMS
    core design points (weak in-order Rocket-class, medium OoO,
    strong OoO), cache geometries, TLB sizes, clocks, and the Gemmini
    accelerator parameters. *)

type pipeline = In_order | Out_of_order

type core = {
  name : string;
  pipeline : pipeline;
  fetch_width : int;
  decode_width : int;
  issue_mem : int;
  issue_int : int;
  issue_fp : int;
  btb_entries : int;
  rob_entries : int; (* 0 for in-order *)
  itlb_entries : int;
  dtlb_entries : int;
  l2_tlb_entries : int; (* 0 when absent *)
  l1i_kb : int;
  l1d_kb : int;
  l2_kb : int;
  clock_ghz : float;
  base_ipc : float;  (** sustained IPC on cache-resident integer code *)
}

(** CS core: 8-wide fetch BOOM-class at 2.5 GHz (Table III + Sec. VII-E). *)
val cs_core : core

(** EMS design points at 750 MHz. *)
val ems_weak : core

val ems_medium : core
val ems_strong : core

type ems_kind = Weak | Medium | Strong

val ems_core : ems_kind -> core
val ems_kind_name : ems_kind -> string

(** Memory-system latencies (cycles at the *CS* clock). *)
type mem_latency = {
  l1_hit : int;
  l2_hit : int;
  llc_hit : int;
  dram : int;
  encryption_extra : int;  (** added by the memory-encryption engine on a DRAM access *)
  integrity_extra : int;  (** added by the SHA-3 MAC check *)
}

val default_latency : mem_latency

(** Page-table walk cost in CS cycles per level, and the extra cost
    of the bitmap lookup (one additional memory access worth of work,
    overlapped with the permission check per Sec. IV-B). *)
val ptw_level_cycles : int

val bitmap_check_cycles : int

(** Mailbox / EMCall transport costs in nanoseconds (Sec. III-C). *)
type transport = {
  emcall_entry_ns : float;  (** trap into machine mode + privilege checks *)
  packet_build_ns : float;
  fabric_hop_ns : float;  (** CS <-> iHub <-> EMS one way *)
  interrupt_ns : float;  (** doorbell to EMS *)
  poll_slot_ns : float;  (** EMCall polling granularity *)
  watchdog_sweep_ns : float;
      (** EMS watchdog sweep after a doorbell drain (batch path) *)
}

val default_transport : transport

(** Shared cost of one doorbell service round (both fabric hops +
    doorbell interrupt + watchdog sweep): paid once per drained
    batch, so the per-EMCall share is [doorbell_shared_ns /. k]. *)
val doorbell_shared_ns : transport -> float

(** Gemmini-class accelerator (Table III bottom). *)
type accelerator = {
  pe_rows : int;
  pe_cols : int;
  global_buffer_kb : int;
  accumulator_kb : int;
  acc_clock_ghz : float;
}

val gemmini : accelerator

(** Whole-platform description used to build a simulation. *)
type t = {
  cs_cores : int;
  ems_cores : int;
  ems_shards : int;  (** independent EMS instances the platform hosts *)
  ems_kind : ems_kind;
  latency : mem_latency;
  transport : transport;
  crypto_engine : bool;  (** Table IV: with/without dedicated engine *)
  memory_mb : int;  (** CS physical memory *)
  ems_memory_mb : int;  (** EMS private memory *)
  context_switch_hz : float;  (** CS OS scheduler tick *)
  domains : int;
      (** OCaml domains the platform may use. Must be 1: a platform
          runs on the domain that created it, and
          [Hypertee.Platform.create] rejects any other value. Sweeps
          run whole platforms in parallel instead (see
          {!Hypertee_sim.Exec.map}). *)
}

(** 4 CS cores, 1 medium EMS core, crypto engine on, 256 MiB. *)
val default : t

(** Recommended EMS configuration for a CS core count (Sec. VII-B and
    Table V): <=8 cores: 1 weak in-order; <=16: 2 weak; >=32: 2
    medium OoO. *)
val recommended_ems : cs_cores:int -> int * ems_kind

val pp_core : Format.formatter -> core -> unit

(** Average cost (CS cycles) of the bitmap retrieval a PTW performs
    after a TLB miss in non-enclave mode, used by the analytic model
    (mix of L2 hits and occasional DRAM for the bitmap line). *)
val bitmap_retrieve_avg_cycles : float
