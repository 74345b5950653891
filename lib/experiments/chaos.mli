(** Chaos availability sweep (Table I availability claim).

    Runs a mixed enclave-management workload against a platform with
    a {!Hypertee_faults.Fault.uniform} plan at increasing fault
    rates, and reports how gracefully the service-level objectives
    degrade: success rate, p50/p99 invoke latency, how many faults
    the recovery machinery absorbed (EMCall retries + EMS watchdog),
    and how many enclaves integrity containment had to terminate.

    Deterministic given [seed]: the workload decisions and every
    fault schedule derive from it. The [fault_rate = 0.0] point uses
    the same injector machinery as the rest of the sweep, so the
    sweep's own baseline is honest. *)

type point = {
  fault_rate : float;  (** per-opportunity probability at every site *)
  ops : int;  (** EMCall invocations issued *)
  ok : int;  (** served with a non-error response *)
  degraded : int;  (** served, but with an EMS error (fault cascades) *)
  timeouts : int;  (** retry budget exhausted at the gate *)
  success_rate : float;  (** ok / ops *)
  p50_ns : float;  (** median invoke latency over successful ops *)
  p99_ns : float;
  injected : int;  (** faults actually fired by the injector *)
  recovered : int;  (** fault events the platform absorbed (audit) *)
  enclaves_killed : int;  (** integrity containment terminations *)
  retries : int;  (** mailbox re-requests issued by the gate *)
  invariant_violations : int;
      (** broken platform invariants at the end of the point
          ({!Hypertee.Platform.check}); 0 is the claim under test *)
}

(** Fault rates of the default sweep (includes 0.0). *)
val default_rates : float list

(** [run_point ~seed ~fault_rate ~ops] — one sweep point on a fresh
    platform. Never raises: every fault outcome is a counted bucket. *)
val run_point : seed:int64 -> fault_rate:float -> ops:int -> point

(** [run ~seed ~ops] — the full sweep over [default_rates], one
    platform per rate, through {!Hypertee_sim.Exec.map}. *)
val run : seed:int64 -> ops:int -> point list

(** [print ?out points] renders the sweep as the standard ASCII
    table to [out] (default [stdout]). *)
val print : ?out:out_channel -> point list -> unit

(** {2 Rolling restart}

    The crash-recovery scenario: on a multi-shard platform under
    live traffic (and {e no} fault plan, so every event is
    attributable), kill each EMS shard in turn, let requests time
    out cleanly at the gate during the outage, cold-restart the
    shard ({!Hypertee.Platform.recover_shard}: scrub, rebuild,
    journal replay), and verify nothing was lost: every pre-crash
    enclave survives (or was destroyed on request), the differential
    oracle stays silent, and the invariant sweep — deep, at the end
    — is clean. Each round also live-migrates one idle enclave, so
    migration runs under the same scrutiny. *)

type restart_round = {
  shard_killed : int;
  outage_ops : int;  (** requests issued while the shard was down *)
  outage_timeouts : int;  (** of those, clean gate timeouts *)
  outage_errors : int;
  replayed : int;  (** journal entries replayed on recovery *)
  replay_mismatches : int;  (** replayed responses diverging from the journal *)
  lost_enclaves : int;  (** pre-crash enclaves missing after recovery, destroys excused *)
  migration : string option;  (** post-recovery live-migration outcome *)
  round_violations : int;  (** invariant violations right after recovery *)
  round_divergences : int;  (** oracle divergences accrued this round *)
}

type restart_report = {
  shards : int;
  total_ops : int;
  rounds : restart_round list;
  total_lost : int;
  recovered_events : int;  (** recovered fault events across every shard's audit *)
  recovery_sites : (string * int) list;  (** recovered events by audit site *)
  oracle_observed : int;
  oracle_divergences : int;
  final_violations : int;  (** end-of-run deep invariant sweep *)
}

val restart_default_ops : int

(** [rolling_restart ()] runs the scenario: [shards] rounds (default
    3, each shard killed exactly once) over roughly [ops] total
    requests. Deterministic given [seed]. *)
val rolling_restart : ?seed:int64 -> ?ops:int -> ?shards:int -> unit -> restart_report

(** Zero lost enclaves, zero oracle divergences, zero invariant
    violations (per round and final), zero replay mismatches — the
    acceptance bar. *)
val restart_clean : restart_report -> bool

(** Render the report (per-round table + summary) to [out]. *)
val print_restart : ?out:out_channel -> restart_report -> unit
