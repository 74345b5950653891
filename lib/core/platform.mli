(** A complete HyperTEE platform instance.

    Assembles the two subsystems of the paper's Fig. 1: physical
    memory with the bitmap region, the multi-key memory-encryption
    engine, iHub with the mailbox, the CS OS and per-core PTWs/TLBs,
    and the EMS runtime behind the EMCall gate. Deterministic given a
    seed.

    The only route from CS software to enclave management is
    [emcall]/[invoke]; the mailbox and the EMS runtime are private to
    this module, which is the type-level expression of the paper's
    isolation (untrusted code cannot reach them). Test-only escape
    hatches live in [Internals]. *)

type t

(** [create ?seed ?config ?faults ()] — [faults] is a deterministic
    fault plan (see {!Hypertee_faults.Fault}); when omitted every
    fault hook is a no-op and the platform behaves byte-identically
    to a fault-free build. *)
val create :
  ?seed:int64 ->
  ?config:Hypertee_arch.Config.t ->
  ?faults:Hypertee_faults.Fault.plan ->
  unit ->
  t

val config : t -> Hypertee_arch.Config.t

(** Resolved execution mode: [Config.domains] (or the HYPERTEE_EXEC
    environment override, which wins) selects deterministic
    single-domain execution or a worker-domain pool that fans out
    {!invoke_batch}'s per-shard doorbells and the MEE's bulk page
    pipelines. Per-shard semantics are identical in both modes. *)
val exec_mode : t -> Hypertee_sim.Exec.mode

(** The worker pool, present iff {!exec_mode} is parallel — callers
    (CVM snapshots, benchmarks) may fan their own page work over it. *)
val pool : t -> Hypertee_util.Domain_pool.t option

(** Release the platform's hold on its worker pool. The pool comes
    from {!Hypertee_util.Domain_pool.shared} (live domains are a
    hard-capped resource, and scenario code creates platforms by the
    hundred), so this is currently a no-op on the shared workers —
    but scenario code should still call it at the end of a parallel
    run so platform teardown has one place to grow. *)
val shutdown : t -> unit

val os : t -> Hypertee_cs.Os.t
val mem : t -> Hypertee_arch.Phys_mem.t
val rng : t -> Hypertee_util.Xrng.t

(** Secure-boot report: measured EMS runtime / CS firmware hashes
    (Sec. VI). The platform measurement signed in quotes. *)
val platform_measurement : t -> bytes

(** Public keys a remote verifier uses. *)
val ek_public : t -> Hypertee_crypto.Rsa.public

val ak_public : t -> Hypertee_crypto.Rsa.public

(** [invoke t ~caller request] — the EMCall gate. With several EMS
    shards configured ([Config.ems_shards]), the gate routes the
    request to the shard owning the target enclave's id class;
    privilege checks and identity stamping are unaffected. *)
val invoke :
  t ->
  caller:Hypertee_cs.Emcall.caller ->
  Hypertee_ems.Types.request ->
  (Hypertee_ems.Types.response, Hypertee_cs.Emcall.rejection) result

(** Like [invoke], also returning this call's modelled round-trip
    time (ns) — use this when callers interleave or batch. *)
val invoke_timed :
  t ->
  caller:Hypertee_cs.Emcall.caller ->
  Hypertee_ems.Types.request ->
  (Hypertee_ems.Types.response * float, Hypertee_cs.Emcall.rejection) result

(** [invoke_batch t requests] — one doorbell per involved shard
    drains the whole batch through the EMS scheduler; results in
    request order, each with its own modelled latency, with the
    shared transport round amortized over the per-shard batch
    size. *)
val invoke_batch :
  t ->
  (Hypertee_cs.Emcall.caller * Hypertee_ems.Types.request) list ->
  (Hypertee_ems.Types.response * float, Hypertee_cs.Emcall.rejection) result list

(** Modelled per-EMCall gate + transport overhead at a given batch
    size (strictly decreasing in [batch]). *)
val batch_overhead_ns : t -> batch:int -> float

(** Number of EMS shards this platform hosts, and the shard an
    enclave id is served by ([(id-1) mod shard_count]). *)
val shard_count : t -> int

val shard_of_enclave : t -> Hypertee_ems.Types.enclave_id -> int

(** The enclave's control structure, looked up in the runtime of the
    shard the gate routes it to ({!shard_of_enclave}). *)
val find_enclave : t -> Hypertee_ems.Types.enclave_id -> Hypertee_ems.Enclave.t option

(** The trap dispatcher (interrupt/exception routing, Sec. III-B). *)
val traps : t -> Hypertee_cs.Traps.t

(** PTW of CS core [i] (for host-access simulation and tests). *)
val ptw : t -> core:int -> Hypertee_arch.Ptw.t

(** Host-software load/store at (process page table, vpn, offset):
    the full hardware path — iHub filter, PTW with bitmap check,
    memory-encryption engine with the PTE's KeyID. This is what a
    (possibly malicious) OS or HostApp can do to memory. *)
type host_fault =
  | Fault of Hypertee_arch.Ptw.fault
  | Hub_denied of Hypertee_arch.Ihub.denial
  | Integrity_violation

val host_read :
  t ->
  table:Hypertee_arch.Page_table.t ->
  vpn:int ->
  off:int ->
  len:int ->
  (bytes, host_fault) result

val host_write :
  t ->
  table:Hypertee_arch.Page_table.t ->
  vpn:int ->
  off:int ->
  bytes ->
  (unit, host_fault) result

(** DMA access on behalf of peripheral [channel] (whitelist-checked,
    bypasses the PTW like real DMA). *)
val dma_read : t -> channel:int -> frame:int -> (bytes, host_fault) result

val dma_write : t -> channel:int -> frame:int -> bytes -> (unit, host_fault) result

(** EMS-side services the examples need that are not Table II
    primitives (sealing runs on EMS, Sec. VI). *)
val seal : t -> enclave:Hypertee_ems.Types.enclave_id -> bytes -> (bytes, string) result

val unseal : t -> enclave:Hypertee_ems.Types.enclave_id -> bytes -> (bytes, string) result

(** Snapshot the whole platform's telemetry into a metrics registry:
    the EMCall gate ([emcall.*]), the encryption engine ([mee.*]),
    every shard's mailbox / scheduler / runtime
    ([shard<i>.mailbox.*], [shard<i>.sched.*], [shard<i>.ems.*]) and
    the fault injector ([faults.*]) when one is installed. *)
val publish_metrics : t -> Hypertee_obs.Metrics.t -> unit

(** {2 Admission control}

    Delegates to the gate's token bucket
    ({!Hypertee_cs.Emcall.set_admission}): each admitted EMCall
    consumes one token, an empty bucket sheds the request with the
    typed [Busy] rejection (EBUSY) instead of letting the mailboxes
    collapse under overload. The bucket refills on a virtual clock
    the load driver advances — deterministic by construction. No
    bucket is installed by default. *)

val set_admission : t -> rate_per_s:float -> burst:int -> unit
val clear_admission : t -> unit
val advance_admission_ns : t -> float -> unit

(** Requests shed with [Busy] since the platform was built. *)
val shed_count : t -> int

(** Sweep the platform's invariants (ownership vs. physical owners
    vs. page tables vs. secure bitmap vs. encryption keys vs.
    lifecycle state, across every shard). [deep] additionally
    MAC-verifies every mapped enclave and shared page. Read-only. *)
val check : ?deep:bool -> t -> Hypertee_check.Invariant.report

(** Install a differential oracle as the EMCall gate's tap: every
    subsequent invocation (plain or batched) is replayed against a
    reference model of the EMS state machine and divergences are
    recorded. Returns the oracle for interrogation; replaces any
    previously attached tap. *)
val attach_oracle : t -> Hypertee_check.Oracle.t

(** Remove the gate tap installed by {!attach_oracle}. *)
val detach_oracle : t -> unit

(** {2 Elasticity and recovery}

    Sealed checkpoint/restore, live cross-shard migration and
    crash-consistent shard recovery ({!Hypertee_ems.Svc_migrate},
    {!Hypertee_ems.Journal}). *)

(** Is the shard serving its doorbell? A killed shard's mailbox still
    queues requests (fabric hardware survives), but nothing drains
    them: gate polls surface as clean [Timeout]s until recovery. *)
val shard_alive : t -> int -> bool

(** The shard's operation journal — platform-held, so it survives the
    shard's death. *)
val journal : t -> int -> Hypertee_ems.Journal.t

(** [checkpoint t ~enclave] quiesces and seals the enclave into a
    self-describing snapshot blob: every resident page EWB-encrypted
    under the swap key, a Merkle root over the page blobs, lifecycle
    metadata and the byte-exact measurement, the whole sealed with an
    HMAC under {!Hypertee_ems.Keymgmt.snapshot_key}. The source is
    not modified. *)
val checkpoint : t -> enclave:Hypertee_ems.Types.enclave_id -> (bytes, Hypertee_ems.Types.error) result

(** [restore ?shard t blob] verifies the seal and rebuilds the
    enclave on [shard] (default 0) under a freshly minted id, with a
    fresh KeyID and a re-derived memory key; the measurement is
    restored byte-identically, so attestation verifies exactly as the
    source's did. The restore is journaled and the oracle (if
    attached) is notified. *)
val restore : ?shard:int -> t -> bytes -> (Hypertee_ems.Types.enclave_id, Hypertee_ems.Types.error) result

(** The six phases of a live migration, in order. A crash between two
    phases leaves exactly one authoritative copy: the source until
    the commit point, the target after it. *)
type migration_phase = Quiesced | Checkpointed | Transferred | Restored | Attested | Committed

val migration_phase_name : migration_phase -> string

type migration_outcome =
  | Migrated
  | Migration_aborted of string
      (** pre-commit failure (bad state, corrupt transfer,
          re-attestation mismatch); the source copy is untouched and
          any half-built target copy has been torn down *)
  | Migration_crashed of { after : migration_phase; owner : [ `Source | `Target ] }
      (** an injected crash struck between phases; [owner] names the
          surviving authoritative copy after recovery *)

(** [migrate t ~enclave ~target] moves a quiescent enclave to shard
    [target] keeping its id: quiesce (drain the source doorbell) →
    sealed checkpoint → fabric transfer (seal-verified, corrupted
    copies retransmitted up to 3×) → restore + re-key on the target →
    SIGMA re-attestation of the restored identity → atomic commit
    (gate route override flips, restore journaled on the target,
    destroy journaled on the source). [crash_after] injects a crash
    after the named phase (the crash-at-every-step tests); the
    [Migration_crash] fault site does the same probabilistically. *)
val migrate :
  ?crash_after:migration_phase ->
  t ->
  enclave:Hypertee_ems.Types.enclave_id ->
  target:int ->
  migration_outcome

(** [kill_shard t s] models a crash of EMS shard [s]: its doorbell
    goes silent (in-flight and queued requests time out at the gate);
    its private control state is considered lost. *)
val kill_shard : t -> int -> unit

type recovery_report = {
  replayed : int;  (** journal entries replayed *)
  mismatches : int;  (** replayed responses differing from the journal *)
}

(** [recover_shard t s] cold-restarts a killed shard: scrub (zero and
    free every frame the dead shard's structures held, revoke every
    MEE KeyID no live structure holds), rebuild (fresh runtime and
    scheduler over the surviving mailbox and journal, RNGs from the
    recovery stream so no pre-crash sequence shifts), replay (re-run
    the journal with minted ids pinned to the recorded values). After
    it returns the shard serves again and {!check} passes.
    @raise Invalid_argument if the shard is alive. *)
val recover_shard : t -> int -> recovery_report

(** Internals exposed for tests, the benchmark harness and the attack
    suite — not part of the user-facing API. *)
module Internals : sig
  (** Runtime of shard 0 (the only shard in the default config). *)
  val runtime : t -> Hypertee_ems.Runtime.t

  (** Physical memory, exposed so tests can seed corruption that the
      checker must catch. *)
  val mem : t -> Hypertee_arch.Phys_mem.t

  val runtimes : t -> Hypertee_ems.Runtime.t array
  val runtime_of_shard : t -> int -> Hypertee_ems.Runtime.t
  val emcall : t -> Hypertee_cs.Emcall.t
  val bitmap : t -> Hypertee_arch.Bitmap.t
  val mee : t -> Hypertee_arch.Mem_encryption.t
  val ihub : t -> Hypertee_arch.Ihub.t
  val iommu : t -> Hypertee_arch.Iommu.t
  val keys : t -> Hypertee_ems.Keymgmt.t
  val cost : t -> Hypertee_ems.Cost.t
  val engine : t -> Hypertee_crypto.Engine.t
  val scheduler : t -> Hypertee_ems.Scheduler.t
  (** Scheduler of shard 0. *)

  val schedulers : t -> Hypertee_ems.Scheduler.t array
  val faults : t -> Hypertee_faults.Fault.t option
  val journals : t -> Hypertee_ems.Journal.t array
  val route_overrides : t -> (Hypertee_ems.Types.enclave_id, int) Hashtbl.t

  (** The platform-global secure-channel fabric. *)
  val chans : t -> Hypertee_ems.Chan.t
end
