.PHONY: all build test sweep fanout-pin chaos-smoke chaos-restart check-invariants conformance bench-perf bench-cloud cloud-pin registry-pins bench-smoke check doc fmt clean

all: build

build:
	dune build

test: build
	dune runtest

# The deterministic sweep at CI size: every paper table and figure
# (Tables I-VI, Figs. 6-12, ablations), then the chaos and scale
# sweeps. Exits non-zero if any entry's verdict is dirty (e.g. a
# Table VI probe mismatch or an invariant violation under faults), or
# if the output's md5 is not the pinned one: every entry in `all` is
# on the modelled clock, so any other digest is a change to the
# model, to be re-pinned here on purpose.
SWEEP_PIN = 1798fb3dedfe6434f64d0ef01ce5c823

sweep: build
	@out=$$(mktemp); \
	./_build/default/bin/hypertee_cli.exe all --quick > $$out \
		|| { cat $$out; rm -f $$out; echo "sweep: all --quick exited nonzero" >&2; exit 1; }; \
	cat $$out; got=$$(md5sum < $$out | cut -d' ' -f1); rm -f $$out; \
	if [ "$$got" != "$(SWEEP_PIN)" ]; then \
		echo "sweep: all --quick md5=$$got, pinned $(SWEEP_PIN)" >&2; exit 1; \
	fi; \
	echo "sweep: all --quick md5=$$got ok"

# The same sweeps with their independent platforms fanned over two
# worker domains, one platform per domain (HYPERTEE_EXEC=parallel:2):
# `all --quick` must still hash to SWEEP_PIN and `cloud --quick` must
# still `cmp` equal to BENCH_cloud.json. Any other byte means state
# leaks between platforms that run on different domains.
fanout-pin: build
	@out=$$(mktemp); \
	HYPERTEE_EXEC=parallel:2 ./_build/default/bin/hypertee_cli.exe all --quick > $$out \
		|| { rm -f $$out; echo "fanout-pin: all --quick exited nonzero" >&2; exit 1; }; \
	got=$$(md5sum < $$out | cut -d' ' -f1); \
	if [ "$$got" != "$(SWEEP_PIN)" ]; then \
		rm -f $$out; \
		echo "fanout-pin: all --quick md5=$$got under parallel:2, pinned $(SWEEP_PIN)" >&2; exit 1; \
	fi; \
	HYPERTEE_EXEC=parallel:2 ./_build/default/bin/hypertee_cli.exe cloud --quick --out $$out \
		> /dev/null || { rm -f $$out; echo "fanout-pin: cloud --quick exited nonzero" >&2; exit 1; }; \
	cmp $$out BENCH_cloud.json \
		|| { rm -f $$out; echo "fanout-pin: cloud --quick differs from BENCH_cloud.json" >&2; exit 1; }; \
	rm -f $$out; echo "fanout-pin: all --quick and cloud --quick under parallel:2 match their pins"

# Deterministic quick availability sweep: exercises the fault injector,
# EMCall retry/timeout, the EMS watchdog and integrity containment.
chaos-smoke: build
	dune exec bin/hypertee_cli.exe -- chaos --quick

# Rolling-restart recovery scenario: kill and cold-restart every EMS
# shard under live traffic, then verify zero lost enclaves, a silent
# differential oracle, and a clean end-of-run deep invariant sweep.
# Exits non-zero on any loss, divergence or violation, or if the
# report table differs by one byte from the committed
# CHAOS_restart.txt (re-record on purpose with
# `hypertee_cli.exe restart --out CHAOS_restart.txt`).
chaos-restart: build
	@out=$$(mktemp); \
	./_build/default/bin/hypertee_cli.exe restart --out $$out || { rm -f $$out; exit 1; }; \
	cmp $$out CHAOS_restart.txt \
		|| { rm -f $$out; echo "chaos-restart: report differs from CHAOS_restart.txt" >&2; exit 1; }; \
	rm -f $$out; echo "chaos-restart: report matches CHAOS_restart.txt"

# Wall-clock MB/s microbenchmarks of the crypto data plane; writes
# BENCH_perf.json so the throughput trajectory is tracked across PRs.
# Raw MB/s is machine-dependent, so `check` does not gate on it — but
# the speedup-vs-reference ratios are portable, and the run fails if
# any fresh ratio falls more than 30 percent below the committed
# BENCH_perf.json (the baseline is read before the file is
# rewritten).
bench-perf: build
	dune exec bin/hypertee_cli.exe -- perf --quick --out BENCH_perf.json --baseline BENCH_perf.json

# Enclave-as-a-service SLO sweep: the multi-tenant cloud driver
# (open-loop offered-load ladder + closed loop per shard count, warm
# pool + admission control) writing BENCH_cloud.json. Every sweep
# point ends with a deep invariant sweep and the differential
# oracle's verdict; the target exits non-zero on any violation or
# divergence surfaced by the churn.
bench-cloud: build
	dune exec bin/hypertee_cli.exe -- cloud --quick --out BENCH_cloud.json

# The same sweep as bench-cloud, written to a temp file and compared
# byte for byte with the committed BENCH_cloud.json: the SLO curves
# are on the modelled clock, so any drift is a change to the model.
# bench-cloud stays the explicit re-record target.
cloud-pin: build
	@out=$$(mktemp); \
	./_build/default/bin/hypertee_cli.exe cloud --quick --out $$out > /dev/null \
		|| { rm -f $$out; echo "cloud-pin: cloud --quick exited nonzero" >&2; exit 1; }; \
	cmp $$out BENCH_cloud.json \
		|| { rm -f $$out; echo "cloud-pin: cloud --quick differs from BENCH_cloud.json" >&2; exit 1; }; \
	rm -f $$out; echo "cloud-pin: cloud --quick matches BENCH_cloud.json"

# One second of each benchmark workload (BENCHMARK.json) at seed 1,
# run through perfbench/main.exe as the benchmark runs it. Fails if a
# run exits nonzero (an invariant, oracle or ledger failure) or if a
# workload's modelled_hash is not the pinned one: the modelled clock
# is deterministic, so any other hash is a change to the model, to be
# re-pinned here on purpose.
BENCH_SMOKE_PINS = tenant-mix:e871f54b23d1f87c52cb0c78e507bf2e \
	tenant-cold:32c4ba2083020b8a4564652f27fa56f0 \
	channel-echo:db1fe693f24b05ff2befd0d74ead8a13

bench-smoke: build
	@for pin in $(BENCH_SMOKE_PINS); do \
		w=$${pin%%:*}; want=$${pin#*:}; \
		out=$$(./_build/default/perfbench/main.exe --workload $$w --seed 1 --seconds 1 --trace 0) \
			|| { echo "bench-smoke: $$w exited nonzero" >&2; exit 1; }; \
		got=$$(printf '%s\n' "$$out" | sed -n 's/.*modelled_hash=\([0-9a-f]*\).*/\1/p'); \
		if [ "$$got" != "$$want" ]; then \
			echo "bench-smoke: $$w modelled_hash=$$got, pinned $$want" >&2; exit 1; \
		fi; \
		echo "bench-smoke: $$w modelled_hash=$$got ok"; \
	done

# The deterministic registry entries outside `all`, each pinned by
# the md5 of its --quick stdout in the SWEEP_PIN style: `rebalance`
# and `check` drive Emcall.invoke_batch, `metrics` the observability
# counters, `conformance` the secure-channel vectors. Fails on a
# nonzero exit (the entry's verdict) or on any other digest: all four
# are on the modelled clock, so a new digest is a change to the model,
# to be re-pinned here on purpose.
REGISTRY_PINS = rebalance:7cf0369e35dc4584cbca8c6b02922610 \
	check:55aa291476257570b831f64fcbce4367 \
	metrics:695d687f9fae3d417b1fefb90c42640a \
	conformance:264a8821658feaee5f3d2e2b33897be7

registry-pins: build
	@out=$$(mktemp); \
	for pin in $(REGISTRY_PINS); do \
		e=$${pin%%:*}; want=$${pin#*:}; \
		./_build/default/bin/hypertee_cli.exe $$e --quick > $$out \
			|| { cat $$out; rm -f $$out; echo "registry-pins: $$e --quick exited nonzero" >&2; exit 1; }; \
		got=$$(md5sum < $$out | cut -d' ' -f1); \
		if [ "$$got" != "$$want" ]; then \
			rm -f $$out; \
			echo "registry-pins: $$e --quick md5=$$got, pinned $$want" >&2; exit 1; \
		fi; \
		echo "registry-pins: $$e --quick md5=$$got ok"; \
	done; \
	rm -f $$out

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
# green, the deterministic sweep (paper tables and figures, chaos and
# scale smoke) is clean and hashes to its pin, and so does its
# fan-out over two domains, the rolling restart recovers every shard
# with nothing lost and reproduces CHAOS_restart.txt, the cloud sweep
# reproduces BENCH_cloud.json, `rebalance`, the oracle/invariant pass
# (`check`), `metrics` and the secure-channel conformance vectors
# pass and hash to their pins, and the benchmark's seed-1 modelled
# hashes are the pinned ones.
check: build test sweep fanout-pin chaos-restart cloud-pin registry-pins bench-smoke

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
