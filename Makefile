# Tier-1 check plus the perf-tracking targets. `make check` is what CI
# runs: formatting, vet, build, the full test suite, the race detector
# with per-cycle invariants armed, and a bounded fuzz smoke over the two
# structure-sensitive fuzz targets.

GO ?= go

# The tracked routing benchmark suite: packed kernels and their preserved
# legacy counterparts side by side (core), the frontier walks (paths), and
# the packed-path consumers (permroute, multicast, analysis). The regex
# fragments deliberately prefix-match their *Packed/*Legacy variants.
ROUTING_PKGS = ./internal/core,./internal/paths,./internal/permroute,./internal/multicast,./internal/analysis
ROUTING_BENCH = BenchmarkFollowState|BenchmarkTagFollow|BenchmarkRouteSSDT|BenchmarkRouteTSDTPacked|BenchmarkRouteSliced|BenchmarkExists|BenchmarkFind|BenchmarkMultiPass|BenchmarkBroadcast|BenchmarkReroutablePairs

# The tracked fleet suite: ring placement (expect 0 allocs/op) and the
# router's proxy cost — single /route and scatter-gather /route/batch
# round trips, direct vs routed, each reporting ns/route.
FLEET_PKGS = ./internal/fleet
FLEET_BENCH = BenchmarkRingOwner|BenchmarkFleet

# The tracked serving ladder: one warmed /route single and /route/batch
# batches of 64/256/1024 measured at each backend layer — Service,
# Handler on a ResponseRecorder, wire-codec encode and decode — in
# ns/route and allocs/route.
SERVE_PKGS = ./internal/routesvc
SERVE_BENCH = BenchmarkServeLadder

# The tracked wormhole suite: the flit-level cycle loop (expect 0
# allocs/op steady state) across lane counts, one large-N run per N, and
# the sim-sweep batch.
WORMHOLE_PKGS = ./internal/wormhole
WORMHOLE_BENCH = BenchmarkWormhole

.PHONY: check fmt vet build test race serve-smoke fleet-smoke bench bench-routing bench-fleet bench-serve bench-wormhole bench-json bench-compare fuzz fuzz-smoke

check: fmt vet build test race serve-smoke fleet-smoke fuzz-smoke

# gofmt -l prints unformatted files; fail if any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The second pass vets the files only the simcheck build tag compiles.
# perfbench/ is a module of its own (replace iadm => ../), so `./...` at
# the root skips it: build and vet it as well, so a rename of a name it
# compiles against fails here, not only in the benchmark run. Its one
# package is a command, hence -o /dev/null (no binary left in perfbench/).
vet:
	$(GO) vet ./...
	$(GO) vet -tags simcheck ./...
	cd perfbench && $(GO) vet ./...

build:
	$(GO) build ./...
	cd perfbench && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

# The whole tree under the race detector, with the simulator's per-cycle
# invariant checker (conservation, bitset/FIFO agreement, latency mass)
# defaulted on via the simcheck build tag.
race:
	$(GO) test -race -tags simcheck ./...

# Tracked simulator numbers (steady-state cycle loop and one large-N run
# per N, expect 0 allocs/op; and the sim-sweep batch, one engine built
# per worker).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkCyclesPerSecond|BenchmarkLargeN|BenchmarkRunMany/N=1024' -benchmem ./internal/simulator

# One human-readable pass over the tracked routing suite (expect 0
# allocs/op on every packed kernel and frontier walk).
bench-routing:
	$(GO) test -run '^$$' -bench '$(ROUTING_BENCH)' -benchmem $(subst $(comma), ,$(ROUTING_PKGS))

# One human-readable pass over the fleet suite (ring placement must stay
# 0 allocs/op; Routed vs Direct is the router's proxy cost).
bench-fleet:
	$(GO) test -run '^$$' -bench '$(FLEET_BENCH)' -benchmem $(subst $(comma), ,$(FLEET_PKGS))

# One human-readable pass over the serving ladder (the codec rungs'
# encode must stay 0 allocs/route).
bench-serve:
	$(GO) test -run '^$$' -bench '$(SERVE_BENCH)' -benchmem $(subst $(comma), ,$(SERVE_PKGS))

# One human-readable pass over the wormhole suite (the flit loop must
# stay 0 allocs/op once warm).
bench-wormhole:
	$(GO) test -run '^$$' -bench '$(WORMHOLE_BENCH)' -benchmem $(subst $(comma), ,$(WORMHOLE_PKGS))

comma := ,

# Emit the BENCH_*.json reports for CI tracking (benchjson writes to
# stdout unless -o names a file).
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_simulator.json
	$(GO) run ./cmd/benchjson -pkg '$(ROUTING_PKGS)' -bench '$(ROUTING_BENCH)' -o BENCH_routing.json
	$(GO) run ./cmd/benchjson -pkg '$(FLEET_PKGS)' -bench '$(FLEET_BENCH)' -o BENCH_fleet.json
	$(GO) run ./cmd/benchjson -pkg '$(SERVE_PKGS)' -bench '$(SERVE_BENCH)' -o BENCH_serve.json
	$(GO) run ./cmd/benchjson -pkg '$(WORMHOLE_PKGS)' -bench '$(WORMHOLE_BENCH)' -o BENCH_wormhole.json

# Perf gate: rerun the tracked benchmarks and fail if min_ns_per_op
# regressed against the committed BENCH_*.json baselines. Cells whose
# worker count exceeds the host's nproc (oversubscribed LargeN cells)
# are informational and not gated. benchjson's default tolerance is 10%;
# the shared 2-core reference host is looser (-tolerance 0.25) because
# host throttling still moves single cells by more than 10% between
# runs there — on a dedicated perf host, drop the flag to gate at the
# 10% default. The fresh report goes to /dev/null so the committed
# baseline is only ever replaced deliberately (via bench-json).
bench-compare:
	$(GO) run ./cmd/benchjson -count 5 -o /dev/null -tolerance 0.25 -compare BENCH_simulator.json
	$(GO) run ./cmd/benchjson -count 5 -o /dev/null -tolerance 0.25 \
		-pkg '$(ROUTING_PKGS)' -bench '$(ROUTING_BENCH)' -compare BENCH_routing.json
	$(GO) run ./cmd/benchjson -count 5 -o /dev/null -tolerance 0.25 \
		-pkg '$(FLEET_PKGS)' -bench '$(FLEET_BENCH)' -compare BENCH_fleet.json
	$(GO) run ./cmd/benchjson -count 5 -o /dev/null -tolerance 0.25 \
		-pkg '$(SERVE_PKGS)' -bench '$(SERVE_BENCH)' -compare BENCH_serve.json
	$(GO) run ./cmd/benchjson -count 5 -o /dev/null -tolerance 0.25 \
		-pkg '$(WORMHOLE_PKGS)' -bench '$(WORMHOLE_BENCH)' -compare BENCH_wormhole.json

# End-to-end smoke of the serving stack: boot iadmd (N=1024) on an
# ephemeral port, drive iadmload through a singles phase and a
# batch-heavy phase (mixed /route/batch sizes, including non-multiples
# of 64), enforce zero request errors / zero 5xx / no SSDT request on
# the slow path (admission tickets equal TSDT computations) / every answered
# batch path n+1 switches from its src to its dst, then SIGTERM and
# require a clean drain. A third phase floods a second daemon (a fixed
# admission bound of 8 computes, -admission-max 8, plus an artificial
# slow-path cost) at several times slow-path saturation and requires
# sheds observed, zero 5xx, continued successes, and a bounded client
# p99 (`iadmload -overload -check`).
serve-smoke:
	GO='$(GO)' sh scripts/serve_smoke.sh

# End-to-end smoke of the fleet layer: a capacity phase requiring a
# 3-backend fleet to push >= 2x the success throughput of one
# identically-tuned slow-path-bound daemon, a latency phase requiring
# the best routed p50 over 3 alternating direct/routed rounds to stay
# within 15% of the best direct one against real slow-path work, a
# fast-path phase requiring the best routed p50 on warmed SSDT singles
# to stay within 4x the best direct one, and a mixed phase serving 4
# partitions of batch-heavy traffic while fault/repair churn stays
# confined to partition p0 (zero 5xx, no SSDT request on the slow path,
# every other partition's epoch untouched, the router's merged
# backend_latency /route and /route/batch counts equal to the sums of
# the backends' own), ending in a clean drain of the router and then
# every backend.
fleet-smoke:
	GO='$(GO)' sh scripts/fleet_smoke.sh

fuzz:
	$(GO) test -run FuzzRingQueue -fuzz FuzzRingQueue -fuzztime 30s ./internal/simulator

# Bounded fuzz pass for CI: the ring-buffer model check, the
# optimized-vs-reference differential oracles (packet and wormhole
# modes), the packed-path round-trip/accessor-parity check, the
# sliced-vs-packed kernel parity oracle, the fast REROUTE walk against
# the paper-faithful REROUTE on random fault maps, the wire codec
# against its encoding/json oracle, and the latency histogram's merge
# against recording in sequence, 10s each.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzRingQueue -fuzztime 10s ./internal/simulator
	$(GO) test -run '^$$' -fuzz FuzzDifferential -fuzztime 10s ./internal/refsim
	$(GO) test -run '^$$' -fuzz FuzzWormholeDifferential -fuzztime 10s ./internal/refwh
	$(GO) test -run '^$$' -fuzz FuzzPackedRoundTrip -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzSlicedParity -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzRerouteTag -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzWireCodec -fuzztime 10s ./internal/routesvc
	$(GO) test -run '^$$' -fuzz FuzzLatency -fuzztime 10s ./internal/stats
