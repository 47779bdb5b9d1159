# Convenience wrapper around dune.  `make check` is the tier-1 gate:
# everything must build, every test must pass, the dune files must be
# formatted (ocamlformat is not vendored, so @fmt covers dune files
# only — see dune-project), and the nfsbench CLI must survive a smoke
# run: list the registry, run one experiment across 2 domains with
# JSON output, validate that output against the renofs-bench/1
# schema, and exercise the fault layer (builtin listing, a schedule
# file on a normal experiment).
# `make chaos-smoke` runs the quick chaos matrix — every fault
# schedule crossed with the three transports plus the v3
# UNSTABLE+COMMIT profile — failing on any invariant violation, and
# byte-compares a 2-domain run against a 1-domain run: the recovery
# verdicts must be deterministic at any --jobs.
# `make fuzz-smoke` runs the seeded wire-corruption fuzzer at fixed
# seeds: the checksums-on pass must come back clean (exit 0), and the
# checksums-off pass under bit corruption must detect at least one
# data-integrity violation (non-zero exit, inverted with `!`) — that
# asymmetry is the whole point of the UDP checksum.
# `make bench-gate` reruns the quick suite and diffs it against the
# committed BENCH_quick.json baseline, failing on any >15% regression
# in latency (ms/s) or throughput (per_s) cells, then byte-compares the
# two (minus the "jobs" header line): the simulation is deterministic,
# so any moved cell means behaviour changed.  Refresh the baseline with
# `make bench-baseline` after an intentional change, and say why.
# `make fleet-smoke` runs the sharded multi-server family across 2
# domains, validates the JSON, and byte-compares it against a 1-domain
# run (minus the "jobs" header line, the one legitimate difference) —
# the determinism contract for fleet-scale worlds.
# `make slo-smoke` exercises the scenario layer both ways: the five
# builtin day-in-the-life scenarios must meet their SLOs (exit 0,
# byte-identical between a 2-domain and a 1-domain run), and the
# crash-without-reboot example must breach (non-zero exit, inverted
# with `!`) while naming the violated SLOs.
# `make perf-gate` measures wall-clock engine throughput (events/s,
# RPCs/s over the fixed graph5 full cell set, each cell timed by the
# best of 3 passes) and fails if either rate drops more than 30% below
# the committed BENCH_perf.json — wide because container clocks are
# noisy, but tight enough to catch a real hot-path regression — or if
# any event or RPC count, aggregate or per cell, differs from it or
# between the passes: the counts are deterministic, so any drift means
# behaviour changed.  The profiled pass's minor words per event repeat
# to about 0.1%, so a rise of more than 1% fails it too.  Refresh with `make perf-baseline` after an
# intentional engine change (run it on a quiet machine).
# `make profile-smoke` exercises the observability additions: a
# profiled + Perfetto-exported run whose renofs-profile/1 file must
# validate (validation includes the self-time-sums-to-wall accounting
# check), and the crash-without-reboot scenario under --flight, which
# must still breach (inverted with `!`) while leaving a complete
# post-mortem bundle whose profile.json validates too.

.PHONY: all build test fmt smoke chaos-smoke fuzz-smoke fleet-smoke slo-smoke bench-gate bench-baseline perf-gate perf-baseline profile-smoke check clean

all: build

build:
	dune build

test:
	dune runtest

fmt:
	dune build @fmt

smoke: build
	dune exec bin/nfsbench.exe -- list
	dune exec bin/nfsbench.exe -- run graph1 --jobs 2 --json /tmp/renofs-smoke.json
	dune exec bin/nfsbench.exe -- validate-json /tmp/renofs-smoke.json
	dune exec bin/nfsbench.exe -- faults
	dune exec bin/nfsbench.exe -- run graph1 --jobs 2 --faults examples/crash.json

chaos-smoke: build
	dune exec bin/nfsbench.exe -- chaos --scale quick --jobs 2 > /tmp/renofs-chaos-smoke2.txt
	dune exec bin/nfsbench.exe -- chaos --scale quick --jobs 1 > /tmp/renofs-chaos-smoke1.txt
	cmp /tmp/renofs-chaos-smoke1.txt /tmp/renofs-chaos-smoke2.txt

fuzz-smoke: build
	dune exec bin/nfsbench.exe -- fuzz --seeds 15 --jobs 2
	! dune exec bin/nfsbench.exe -- fuzz --seeds 5 --jobs 2 --no-checksum

fleet-smoke: build
	dune exec bin/nfsbench.exe -- run fleet-quick --jobs 2 --json /tmp/renofs-fleet-smoke2.json
	dune exec bin/nfsbench.exe -- validate-json /tmp/renofs-fleet-smoke2.json
	dune exec bin/nfsbench.exe -- run fleet-quick --jobs 1 --json /tmp/renofs-fleet-smoke1.json > /dev/null
	grep -v '"jobs"' /tmp/renofs-fleet-smoke1.json > /tmp/renofs-fleet-smoke1.stripped
	grep -v '"jobs"' /tmp/renofs-fleet-smoke2.json > /tmp/renofs-fleet-smoke2.stripped
	cmp /tmp/renofs-fleet-smoke1.stripped /tmp/renofs-fleet-smoke2.stripped

slo-smoke: build
	dune exec bin/nfsbench.exe -- slo --jobs 2 > /tmp/renofs-slo-smoke2.txt
	dune exec bin/nfsbench.exe -- slo --jobs 1 > /tmp/renofs-slo-smoke1.txt
	cmp /tmp/renofs-slo-smoke1.txt /tmp/renofs-slo-smoke2.txt
	dune exec bin/nfsbench.exe -- validate-json examples/crash_noreboot.scenario.json
	! dune exec bin/nfsbench.exe -- slo examples/crash_noreboot.scenario.json > /dev/null

bench-gate: build
	dune exec bin/nfsbench.exe -- all --json /tmp/renofs-bench-gate.json > /dev/null
	dune exec bin/nfsbench.exe -- diff BENCH_quick.json /tmp/renofs-bench-gate.json --tolerance 15
	grep -v '"jobs"' BENCH_quick.json > /tmp/renofs-bench-gate.baseline.stripped
	grep -v '"jobs"' /tmp/renofs-bench-gate.json > /tmp/renofs-bench-gate.stripped
	cmp /tmp/renofs-bench-gate.baseline.stripped /tmp/renofs-bench-gate.stripped

bench-baseline: build
	dune exec bin/nfsbench.exe -- all --json BENCH_quick.json > /dev/null

perf-gate: build
	dune exec bin/nfsbench.exe -- perf --baseline BENCH_perf.json --tolerance 30

perf-baseline: build
	dune exec bin/nfsbench.exe -- perf --json BENCH_perf.json

profile-smoke: build
	dune exec bin/nfsbench.exe -- run graph1 --jobs 2 --profile /tmp/renofs-profile.json --perfetto /tmp/renofs-perfetto.json > /dev/null
	dune exec bin/nfsbench.exe -- validate-json /tmp/renofs-profile.json
	rm -rf /tmp/renofs-flight
	! dune exec bin/nfsbench.exe -- slo examples/crash_noreboot.scenario.json --flight /tmp/renofs-flight > /dev/null
	test -s /tmp/renofs-flight/*/MANIFEST.json
	test -s /tmp/renofs-flight/*/reason.txt
	test -s /tmp/renofs-flight/*/trace_tail.jsonl
	dune exec bin/nfsbench.exe -- validate-json /tmp/renofs-flight/*/profile.json

check: build test fmt smoke chaos-smoke fuzz-smoke fleet-smoke slo-smoke bench-gate perf-gate profile-smoke

clean:
	dune clean
