(** EMCall: the trusted call gate in CS firmware (paper Sec. III-B/C).

    The only legal path from CS software to EMS. Runs at the highest
    CS privilege level, so it can:

    - check the caller's privilege mode against the primitive's
      required mode (cross-privilege invocation is blocked);
    - stamp the *hardware-known* current enclave identity on each
      request (forgery of another enclave's identity is impossible);
    - transmit over the private mailbox and poll for the response
      bound to this request id (untrusted interrupt handlers never
      touch responses);
    - perform the CS-side register updates of EENTER/ERESUME
      atomically: satp switch, IS_ENCLAVE flip, TLB flush;
    - flush TLBs when EMS reports bitmap changes.

    Sharding: the platform may host several independent EMS
    instances. The gate holds one mailbox + doorbell per shard and
    routes each request by the platform-provided affinity function —
    privilege checks and identity stamping happen here, once, no
    matter how many shards serve behind the gate.

    Recovery (availability, Table I): a response that fails to
    arrive within the poll budget — stalled worker, dropped or
    corrupted packet — is re-requested from the mailbox by id with
    bounded exponential backoff. Re-requests are idempotent (served
    from the mailbox's answered cache, never re-executed), duplicate
    responses are detected and discarded, and an exhausted budget
    surfaces as the [Timeout] rejection: [invoke] can never hang and
    never raises.

    Timing: [invoke_timed] returns the modelled round-trip (EMCall
    entry + packet build + fabric hops + doorbell + EMS service +
    polling quantisation with obfuscation jitter, plus any injected
    transport spikes, poll waits and retry backoff) alongside the
    response. [invoke_batch] models one doorbell draining a batch:
    the shared transport round amortizes over the per-shard batch
    size. *)

type caller = Os_kernel | User_host | User_enclave of Hypertee_ems.Types.enclave_id

type rejection =
  | Cross_privilege  (** caller mode does not match Table II *)
  | Mailbox_full
  | Timeout  (** no response within the poll/retry budget *)
  | Busy  (** shed by token-bucket admission control (EBUSY) *)

type retry_policy = {
  poll_budget : int;  (** poll slots waited before each re-request *)
  max_retries : int;  (** re-requests before giving up *)
  backoff_base_ns : float;  (** backoff added per retry, doubling *)
}

val default_retry_policy : retry_policy

(** One EMS instance behind the gate: its private mailbox and the
    doorbell that makes it drain the queue (the platform calls the
    runtime there; each poll re-rings it, which also runs the EMS
    watchdog). *)
type shard = {
  mailbox : (Hypertee_ems.Types.request, Hypertee_ems.Types.response) Hypertee_arch.Mailbox.t;
  ems_service : unit -> unit;
}

type t

(** [create ~rng ~transport ~mailbox ~ems_service ~service_ns ()]
    wires a single-shard gate (the common case and the historical
    interface). [service_ns] prices a request for the timing
    model. *)
val create :
  ?retry:retry_policy ->
  rng:Hypertee_util.Xrng.t ->
  transport:Hypertee_arch.Config.transport ->
  mailbox:(Hypertee_ems.Types.request, Hypertee_ems.Types.response) Hypertee_arch.Mailbox.t ->
  ems_service:(unit -> unit) ->
  service_ns:(Hypertee_ems.Types.request -> float) ->
  unit ->
  t

(** [create_sharded ~shards ~route ...] wires the gate to several EMS
    instances; [route] maps a request to the index of the shard that
    owns the enclave it acts on (out-of-range indices are clamped).
    @raise Invalid_argument on an empty shard array. *)
val create_sharded :
  ?retry:retry_policy ->
  rng:Hypertee_util.Xrng.t ->
  transport:Hypertee_arch.Config.transport ->
  shards:shard array ->
  route:(Hypertee_ems.Types.request -> int) ->
  service_ns:(Hypertee_ems.Types.request -> float) ->
  unit ->
  t

val shard_count : t -> int

(** Install the platform's fault injector (transport latency
    spikes). *)
val set_fault_injector : t -> Hypertee_faults.Fault.t -> unit

(** {2 Admission control}

    A token bucket in front of the mailboxes: each admitted request
    consumes one token; an empty bucket sheds the request with the
    typed {!Busy} rejection instead of letting the queues collapse.
    Tokens refill on a {e virtual} clock the load driver advances
    with {!advance_admission_ns} — fully deterministic. No bucket is
    installed by default, so existing callers see no change. *)

(** [set_admission t ~rate_per_s ~burst] installs (or replaces) the
    bucket, initially full.
    @raise Invalid_argument on a non-positive rate or burst. *)
val set_admission : t -> rate_per_s:float -> burst:int -> unit

(** Remove the bucket: every request admitted again. *)
val clear_admission : t -> unit

(** Advance the bucket's virtual clock by [ns], refilling
    [rate_per_s * ns / 1e9] tokens up to [burst]. No-op without a
    bucket or for non-positive [ns]. *)
val advance_admission_ns : t -> float -> unit

(** Current token count, if a bucket is installed (tests). *)
val admission_tokens : t -> float option

(** Requests shed with {!Busy} since creation. *)
val shed : t -> int

(** [set_drain_order_probe t probe] — [probe i] must return shard
    [i]'s request ids in execution order (the scheduler's full log).
    [invoke_batch] snapshots each shard's log length before ringing
    the doorbells and slices the suffix afterwards, recovering the
    realized drain order; batched taps then fire in that order (the
    scheduler's anti-side-channel shuffle stays in force — only the
    post-hoc observation is ordered). The platform wires this to its
    shard schedulers. *)
val set_drain_order_probe : t -> (int -> int list) -> unit

(** Observation point for the differential oracle
    ({!Hypertee_check.Oracle} via [Platform.attach_oracle]): called
    once per completed invocation — [invoke]/[invoke_timed] and every
    element of an [invoke_batch] — with the caller, the request, and
    the result (response or gate rejection). [batched] marks results
    collected from a batch doorbell; their taps fire after the whole
    batch completes, in the drain order the scheduler actually
    executed (recovered via {!set_drain_order_probe}; without a
    probe, request order). The tap observes after the gate is fully
    done with the call (duplicates discarded, TLBs flushed). *)
type tap =
  caller:caller ->
  batched:bool ->
  Hypertee_ems.Types.request ->
  (Hypertee_ems.Types.response * float, rejection) result ->
  unit

val set_tap : t -> tap -> unit
val clear_tap : t -> unit

(** [invoke t ~caller request] runs the full gate flow and returns
    the EMS response, or a gate-level rejection. Total work is
    bounded: at most [poll_budget * (max_retries + 1)] polls. *)
val invoke :
  t ->
  caller:caller ->
  Hypertee_ems.Types.request ->
  (Hypertee_ems.Types.response, rejection) result

(** Like [invoke], also returning this call's modelled round-trip
    time. Latency is always returned per call — a shared
    last-latency cell would race across shards and interleaved
    callers. *)
val invoke_timed :
  t ->
  caller:caller ->
  Hypertee_ems.Types.request ->
  (Hypertee_ems.Types.response * float, rejection) result

(** [invoke_batch t requests] sends every request, rings each
    involved shard's doorbell once (the EMS drains the whole batch
    through its scheduler), then collects the responses in request
    order. Each result carries its own modelled latency; the shared
    transport round is split over the per-shard batch size. *)
val invoke_batch :
  t ->
  (caller * Hypertee_ems.Types.request) list ->
  (Hypertee_ems.Types.response * float, rejection) result list

(** Transport-only part of the round trip for a request of the given
    EMS service time (used by the queueing experiment of Fig. 6). *)
val transport_ns : t -> float

(** Modelled per-EMCall gate + transport overhead when one doorbell
    drains [batch] requests: entry and packet build stay per-call,
    the shared round (fabric hops + doorbell + watchdog sweep) is
    paid once and split [batch] ways. Strictly decreasing in
    [batch].
    @raise Invalid_argument if [batch < 1]. *)
val per_call_overhead_ns : t -> batch:int -> float

(** Number of requests blocked at the gate (attack telemetry). *)
val rejected : t -> int

(** Recovery telemetry: invocations that exhausted the retry budget,
    re-requests issued, duplicate response copies discarded. *)
val timeouts : t -> int

val retries : t -> int
val duplicates_discarded : t -> int

(** TLB flushes EMCall has issued (enclave context switches + bitmap
    updates, Fig. 11). The platform layer registers per-core flush
    callbacks. *)
val tlb_flushes : t -> int

val register_tlb_flush_hook : t -> (unit -> unit) -> unit

(** [flush_tlbs t] — invoked on enclave context switch and on bitmap
    updates (EMS responses that changed the bitmap). *)
val flush_tlbs : t -> unit

(** {2 Observability}

    With a tracer installed ({!Hypertee_obs.Trace.install}) every
    completed invocation lays an [EMCALL:<op>] span on the serving
    shard's gate track, decomposed into gate / transport / service /
    wait children that sum {e exactly} to the recorded latency, and
    advances the tracer's virtual cursor by that latency. Retries and
    timeouts appear as instant events. With no tracer the path is
    allocation-free. *)

(** Snapshot gate counters (rejected, TLB flushes, timeouts, retries,
    duplicates discarded, shard count) into a metrics registry under
    [emcall.*]. *)
val publish_metrics : t -> Hypertee_obs.Metrics.t -> unit
