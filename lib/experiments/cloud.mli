(** Enclave-as-a-service: a multi-tenant cloud driver over the
    sharded platform.

    A tenant fleet ({!Hypertee_workloads.Tenants}) offers sessions —
    warm-pool create (EWARM, falling back to the full cold launch on
    a miss), attestation of cold identities, a secure-channel compute
    phase, ERETIRE back into the warm pool — as real EMCalls against
    a fresh platform per sweep point. A per-shard FCFS single-server
    queue in virtual time turns [invoke_timed]'s modelled round trips
    into session latencies; the gate's token-bucket admission control
    runs on the same virtual clock and sheds overload with the typed
    [Busy] rejection. The output is the SLO curve: p50/p99/p99.9
    session latency against offered load, with the saturation knee
    per shard count, plus a closed-loop throughput run.

    Every point ends with a deep invariant sweep and the differential
    oracle's verdict; {!clean} is the churn-survival bar the CI
    enforces. *)

type point = {
  shards : int;
  offered_mult : float;  (** offered load as a multiple of calibrated capacity *)
  offered_per_s : float;  (** sessions per second *)
  sessions_offered : int;
  completed : int;
  shed_sessions : int;  (** sessions rejected at their opening call *)
  degraded : int;  (** sessions abandoned mid-flight *)
  warm_hits : int;
  cold_launches : int;
  calls : int;  (** EMCalls issued *)
  shed_requests : int;  (** gate-level [Busy] rejections *)
  p50_ms : float;
  p99_ms : float;
  p999_ms : float;
  mean_ms : float;
  violations : int;  (** deep invariant sweep at end of run *)
  divergences : int;  (** differential-oracle disagreements *)
}

type calibration = {
  base_cold_ns : float;  (** unloaded cold-session latency (1 shard) *)
  base_warm_ns : float;  (** unloaded warm-session latency *)
  ops_per_session : float;  (** mean EMCalls per session *)
}

type curve = {
  curve_shards : int;
  points : point list;
  knee_mult : float option;
      (** highest offered multiple whose p99 stays within 4x the
          lightest point's p99 *)
}

type closed_point = {
  cl_shards : int;
  cl_tenants : int;
  cl_sessions : int;
  cl_completed : int;
  cl_degraded : int;
  cl_warm_hits : int;
  cl_p99_ms : float;
  cl_throughput_per_s : float;
  cl_violations : int;
  cl_divergences : int;
}

type outcome = {
  calibration : calibration;
  curves : curve list;
  closed : closed_point list;
}

val default_shard_counts : int list

(** [run ~seed ()] — the full sweep: calibrate, then for each shard
    count drive the open-loop offered-load ladder and one closed-loop
    run. [quick] shrinks sessions and ladder for CI. *)
val run : seed:int64 -> ?quick:bool -> ?shard_counts:int list -> unit -> outcome

(** One closed-loop run, exposed for tests. *)
val run_closed :
  seed:int64 ->
  spec:Hypertee_workloads.Tenants.spec ->
  shards:int ->
  tenants:int ->
  sessions_per_tenant:int ->
  unit ->
  closed_point

val knee_of : point list -> float option
val print : ?out:out_channel -> outcome -> unit

(** BENCH_cloud.json payload. *)
val json_of_outcome : outcome -> string

(** Every sweep point ended with 0 invariant violations and 0 oracle
    divergences. *)
val clean : outcome -> bool
