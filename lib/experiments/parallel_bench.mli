(** Wall-clock benchmark of domain-parallel execution.

    Parallel mode changes no modelled number — the equivalence tests
    assert the results are bit-identical to deterministic mode — so
    its one observable effect is wall clock. This harness measures
    that effect on the two fan-out paths: a scale-sweep grid point
    (per-shard doorbell drains over worker domains) and the MEE bulk
    page pipelines ([write_pages]/[read_pages] with and without a
    pool), reporting sequential and parallel times plus their
    speedup ratios as {!Perf.sample}s for [BENCH_perf.json].

    The host's [recommended-domains] is recorded alongside, because
    the ratios are only meaningful relative to the parallelism the
    machine actually offers: on a single-hardware-thread container
    they sit near 1.0x by physics, not by defect. *)

val run : ?quick:bool -> ?domains:int -> unit -> Perf.sample list
(** [run ()] benchmarks with [domains] workers (default
    {!Hypertee_util.Domain_pool.recommended_domains}); [quick]
    shrinks the workload sizes and the {!Perf.time_ns} window. *)
