(** Wall-clock microbenchmarks of the crypto data plane.

    Every other experiment reports modelled time; this one measures
    real elapsed time of the simulator's hot paths (AES-CTR pages,
    SHA-256/SHA-3 hashing, RSA signing, the MEE round trip,
    Create_Enclave, a page-table walk, enclave heap access,
    EALLOC+EFREE, and a fig6-style sweep), so [BENCH_perf.json]
    tracks MB/s across PRs. *)

type sample = {
  target : string;  (** what was measured, e.g. ["aes-ctr-page"] *)
  metric : string;  (** ["throughput"], ["latency"], ... *)
  value : float;
  unit_ : string;  (** ["MB/s"], ["ns/op"], ["x"], ["s"] *)
  runs : int;  (** repetitions behind the reported value *)
}

(** The machine a benchmark file was produced on; recorded in the
    JSON so raw MB/s numbers carry their provenance. *)
type host = {
  hardware_threads : int;  (** [Domain.recommended_domain_count] *)
  recommended_domains : int;  (** what a bare HYPERTEE_EXEC=parallel fans sweeps over *)
  ocaml_version : string;
  word_size : int;
  os_type : string;
}

val host_info : unit -> host

val time_ns : min_time:float -> (unit -> unit) -> float * int
(** [time_ns ~min_time f] runs [f] once to warm up, then times
    geometrically growing batches on the monotonic clock until one
    lasts at least [min_time] seconds; returns (ns per call, calls in
    that batch). The experiments' one host timer. *)

val run : ?quick:bool -> ?min_time_s:float -> unit -> sample list
(** Run the full suite. [quick] shortens the per-target measurement
    window and the sweep; [min_time_s] overrides the window directly
    (tests use a tiny value). *)

val find : sample list -> target:string -> metric:string -> sample option
val print : ?out:out_channel -> sample list -> unit

val write_json : path:string -> sample list -> unit
(** Write [{"host": {...}, "samples": [...]}]: the {!host_info} block
    followed by one [{"target", "metric", "value", "unit", "runs"}]
    object per sample. *)

(** A sample that fell below the committed baseline by more than the
    tolerance. *)
type regression = {
  r_target : string;
  r_metric : string;
  r_baseline : float;
  r_current : float;
}

val load_baseline : path:string -> (string * string * float) list
(** [(target, metric, value)] triples parsed from a previously
    written JSON file (current object format or the older flat
    array). *)

val compare_to_baseline :
  baseline:(string * string * float) list ->
  tolerance_pct:float ->
  sample list ->
  regression list
(** Regressions of the [speedup-vs-reference] ratios against the
    baseline. Only ratios gate: both sides of a ratio run on the same
    machine, so it is portable, while raw MB/s compared against a
    file committed from different hardware would flap. *)
