.PHONY: all build test test-parallel sweep chaos-smoke chaos-restart check-invariants conformance bench-perf bench-parallel bench-cloud check doc fmt clean

all: build

build:
	dune build

test: build
	dune runtest

# The whole suite again with every platform forced into parallel mode
# (4 worker domains, HYPERTEE_EXEC override): parallel execution is
# bit-identical to deterministic mode by construction, so the exact
# same assertions must hold. --force because dune caches runtest
# results per build, not per environment.
test-parallel: build
	HYPERTEE_EXEC=parallel:4 dune runtest --force

# The deterministic sweep at CI size: every paper table and figure
# (Tables I-VI, Figs. 6-12, ablations), then the chaos and scale
# sweeps. Exits non-zero if any entry's verdict is dirty (e.g. a
# Table VI probe mismatch or an invariant violation under faults).
sweep: build
	dune exec bin/hypertee_cli.exe -- all --quick

# Deterministic quick availability sweep: exercises the fault injector,
# EMCall retry/timeout, the EMS watchdog and integrity containment.
chaos-smoke: build
	dune exec bin/hypertee_cli.exe -- chaos --quick

# Rolling-restart recovery scenario: kill and cold-restart every EMS
# shard under live traffic, then verify zero lost enclaves, a silent
# differential oracle, and a clean end-of-run deep invariant sweep.
# Writes the report table to CHAOS_restart.txt; exits non-zero on any
# loss, divergence or violation.
chaos-restart: build
	dune exec bin/hypertee_cli.exe -- restart --out CHAOS_restart.txt

# Wall-clock MB/s microbenchmarks of the crypto data plane; writes
# BENCH_perf.json so the throughput trajectory is tracked across PRs.
# Raw MB/s is machine-dependent, so `check` does not gate on it — but
# the speedup-vs-reference ratios are portable, and the run fails if
# any fresh ratio falls more than 30 percent below the committed
# BENCH_perf.json (the baseline is read before the file is
# rewritten).
bench-perf: build
	dune exec bin/hypertee_cli.exe -- perf --quick --out BENCH_perf.json --baseline BENCH_perf.json

# bench-perf plus the domain-parallel comparison: scale-point
# makespan and MEE bulk-pipeline throughput, single-domain vs fanned
# over 4 worker domains (HYPERTEE_EXEC=parallel:N overrides), with
# speedup ratios recorded alongside the host block (the ratios only
# mean something relative to the parallelism the machine offers).
bench-parallel: build
	dune exec bin/hypertee_cli.exe -- perf-parallel --quick --out BENCH_perf.json \
		--baseline BENCH_perf.json

# Enclave-as-a-service SLO sweep: the multi-tenant cloud driver
# (open-loop offered-load ladder + closed loop per shard count, warm
# pool + admission control) writing BENCH_cloud.json. Every sweep
# point ends with a deep invariant sweep and the differential
# oracle's verdict; the target exits non-zero on any violation or
# divergence surfaced by the churn.
bench-cloud: build
	dune exec bin/hypertee_cli.exe -- cloud --quick --out BENCH_cloud.json

# Differential oracle + invariant sweep: replays a clean and a
# fault-injected management workload under the EMCall oracle, then
# runs a reduced explorer pass. Deterministic; exits non-zero on any
# divergence or broken invariant.
check-invariants: build
	dune exec bin/hypertee_cli.exe -- check --quick

# Secure-channel conformance: replay the canned handshake flights and
# record vectors from docs/PROTOCOL.md §7 (well-formed traffic must
# be accepted byte-exactly, every malformed case must be rejected
# with the spec'd error). Exits non-zero if any vector fails.
conformance: build
	dune exec bin/hypertee_cli.exe -- conformance

# The gate for a change: everything builds, the full test suite is
# green in both execution modes, the deterministic sweep (paper
# tables and figures, chaos and scale smoke) is clean, the rolling
# restart recovers every shard with nothing lost, the oracle/invariant
# pass holds, and the secure-channel conformance vectors all pass.
check: build test test-parallel sweep chaos-restart check-invariants conformance

# API reference from the .mli doc comments, built with odoc into
# _build/default/_doc/_html. Skips with a notice when odoc is absent,
# so the target is safe on containers that only carry the compiler;
# CI installs odoc and fails the build on any documentation warning.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
		dune build @doc 2>&1 | tee /dev/stderr | grep -qi warning && exit 1 || true; \
		echo "docs: _build/default/_doc/_html/index.html"; \
	else \
		echo "odoc not installed; skipping doc build"; \
	fi

# Format the tree in place with the pinned ocamlformat (.ocamlformat).
# Skips with a notice when the binary is absent, so the target is safe
# on minimal containers that only carry the compiler toolchain.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune fmt; \
	else \
		echo "ocamlformat not installed; skipping (pinned version in .ocamlformat)"; \
	fi

clean:
	dune clean
