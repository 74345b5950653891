(** Scalability sweep: CS cores × EMS shards × doorbell batch size.

    The paper's scalability argument (Sec. VII, Fig. 11) rests on
    the EMS side keeping up as CS core count grows. This sweep
    exercises the two mechanisms the platform has for that:

    - {b batching}: one doorbell drains a batch of pending requests
      through the EMS scheduler, so the shared transport round
      (fabric hops + doorbell interrupt + watchdog sweep) amortizes
      — modelled per-EMCall overhead strictly decreases with batch
      size;
    - {b sharding}: N independent EMS instances serve disjoint
      enclave id classes behind the same gate, so aggregate
      primitive throughput scales with shard count.

    Deterministic given [seed]: every platform, workload decision
    and timing draw derives from it. *)

type point = {
  cs_cores : int;
  shards : int;
  batch : int;
  ops : int;  (** EALLOC primitives issued *)
  ok : int;  (** served successfully *)
  overhead_ns : float;
      (** modelled per-EMCall gate + transport overhead at this
          batch size (analytic, jitter-free) *)
  mean_latency_ns : float;  (** measured mean round trip *)
  ems_busy_ns : float;  (** summed EMS-side makespan of all rounds *)
  throughput_mops : float;  (** ok / ems_busy, in primitives/us *)
  invariant_violations : int;
      (** broken platform invariants at the end of the point
          ({!Hypertee.Platform.check}); 0 is the claim under test *)
}

val default_batches : int list
val default_shards : int list
val default_ops : int

(** One grid point on a fresh platform, torn down before returning. *)
val run_point :
  seed:int64 -> cs_cores:int -> shards:int -> batch:int -> ops:int -> unit -> point

(** Batching amortization at one shard (over [default_batches]). The
    points run through {!Hypertee_sim.Exec.map}, one platform each. *)
val batch_sweep : seed:int64 -> ?cs_cores:int -> ?ops:int -> unit -> point list

(** Shard scaling at a fixed batch (over [default_shards]), through
    {!Hypertee_sim.Exec.map} like {!batch_sweep}. *)
val shard_sweep : seed:int64 -> ?cs_cores:int -> ?batch:int -> ?ops:int -> unit -> point list

(** Both sweeps: [(batch_points, shard_points)]. *)
val run : seed:int64 -> ?ops:int -> unit -> point list * point list

(** Render both sweeps of {!run} as tables to [out] (default stdout). *)
val print : ?out:out_channel -> point list * point list -> unit

(** {2 Hot-shard rebalancing}

    The elasticity payoff measurement: a 4-shard platform whose whole
    enclave population is homed on shard 0 (the hot shard), measured
    under the batched-doorbell makespan model, then rebalanced by
    {!Hypertee.Platform.migrate} — three quarters of the fleet
    live-migrated to the idle shards, keeping their ids — and
    measured again. The per-shard busy attribution follows the gate's
    migration route overrides, so the "after" makespan reflects real
    post-migration routing, not the residue classes. *)

type rebalance_report = {
  shards : int;
  fleet : int;  (** hot-shard enclave count before rebalancing *)
  migrated : int;
  migration_failures : int;
  rebalance_ops : int;  (** EALLOC primitives per measurement pass *)
  busy_before_ns : float;  (** summed round makespans, skewed placement *)
  busy_after_ns : float;  (** same workload after rebalancing *)
  speedup : float;  (** busy_before / busy_after *)
  hot_share_before : float;  (** shard 0's fraction of total busy time *)
  hot_share_after : float;
  rebalance_violations : int;  (** {!Hypertee.Platform.check} at the end *)
}

(** [rebalance ()] runs the scenario; deterministic given [seed]. *)
val rebalance : ?seed:int64 -> ?batch:int -> ?ops:int -> unit -> rebalance_report

(** Render the before/after table to [out] (default stdout). *)
val print_rebalance : ?out:out_channel -> rebalance_report -> unit
