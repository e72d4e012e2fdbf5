package simulator

import (
	"fmt"

	"iadm/internal/fanout"
)

// The invariant checker is the simulator's in-core half of the
// correctness tooling built around internal/refsim: after every cycle it
// re-derives the structural invariants the allocation-free hot path is
// supposed to preserve and panics on the first violation, naming the
// cycle and the state that broke. It is opt-in because the checks cost
// O(links) per cycle: the `simcheck` build tag (fanout.Simcheck) turns it
// on for a whole test run (`go test -tags simcheck ./...`, what `make
// race` uses), and tests can flip invariantsEnabled directly for targeted
// runs.
//
// Checked invariants:
//
//  1. Packet conservation: every packet ever accepted into a stage-0
//     buffer is delivered, dropped, or still queued —
//     injected == delivered + dropped + occupied, counted from cycle 0
//     (warmup included) so the balance is exact at every cycle.
//  2. Occupancy-bitset / ring agreement: bit i of the occupancy bitset is
//     set iff ring queue i is nonempty; ring sizes stay within
//     [0, QueueCap], heads within [0, QueueCap); and the incrementally
//     maintained total occupancy equals the sum of ring sizes.
//  3. Latency histogram mass (end of run): sum(latHist) == Delivered, and
//     the folded stats.Stream holds exactly one sample per delivery.
//  4. Shard-merge correctness (sharded engine only): the merged counters,
//     the conservation balance, and the merged latency-histogram mass all
//     equal the exact sums over the per-shard accumulators. Invariants 1
//     and 2's occupancy recount already anchors the merged totals to the
//     ring ground truth every cycle; checkShardMerge re-verifies the
//     merge itself at end of run. The bitset half of invariant 2 is
//     skipped in shard mode, where occ is deliberately unmaintained (see
//     ringQueues.pushQuiet).
var invariantsEnabled = fanout.Simcheck

// invariantCounters shadow the Metrics counters from cycle 0 (Metrics
// only counts the measured window, so it cannot anchor a per-cycle
// balance). dropped counts in-flight drops only: a packet refused a
// stage-0 buffer by blockage was never accepted into the network, and is
// visible in Metrics.Dropped but not in the conservation balance.
type invariantCounters struct {
	injected  int64
	delivered int64
	dropped   int64
}

// checkInvariants verifies invariants 1 and 2 after a cycle. It panics
// (rather than returning an error) because a violation means the core's
// state is corrupt and every later metric would be garbage.
func (s *sim) checkInvariants(cycle int) {
	var total int64
	for i := 0; i < s.L; i++ {
		n := s.q.size[i]
		if n < 0 || n > s.q.cap {
			panic(fmt.Sprintf("simulator invariant: cycle %d: queue %d size %d outside [0,%d]",
				cycle, i, n, s.q.cap))
		}
		if h := s.q.head[i]; h < 0 || h >= s.q.cap {
			panic(fmt.Sprintf("simulator invariant: cycle %d: queue %d head %d outside [0,%d)",
				cycle, i, h, s.q.cap))
		}
		if s.intraP <= 1 { // the sharded engine does not maintain occ
			bit := s.q.occ[i>>6]&(1<<uint(i&63)) != 0
			if (n > 0) != bit {
				panic(fmt.Sprintf("simulator invariant: cycle %d: queue %d length %d disagrees with occupancy bit %v",
					cycle, i, n, bit))
			}
		}
		total += int64(n)
	}
	if total != s.occupied {
		panic(fmt.Sprintf("simulator invariant: cycle %d: incremental occupancy %d != sum of ring lengths %d",
			cycle, s.occupied, total))
	}
	if s.ck.injected != s.ck.delivered+s.ck.dropped+total {
		panic(fmt.Sprintf("simulator invariant: cycle %d: conservation broken: injected %d != delivered %d + dropped %d + occupied %d",
			cycle, s.ck.injected, s.ck.delivered, s.ck.dropped, total))
	}
}

// checkShardMerge verifies invariant 4 at end of a sharded run, after the
// per-shard latency histograms are folded into s.latHist: the merged
// histogram mass and the merged conservation counters must equal the
// exact sums over the shards.
func (s *sim) checkShardMerge() {
	var mergedMass, shardMass int64
	for _, c := range s.latHist {
		mergedMass += int64(c)
	}
	var ckI, ckD, ckX int64
	for k := range s.shards {
		sh := &s.shards[k]
		for _, c := range sh.latHist {
			shardMass += int64(c)
		}
		ckI += sh.ckInjected
		ckD += sh.ckDelivered
		ckX += sh.ckDropped
	}
	if mergedMass != shardMass {
		panic(fmt.Sprintf("simulator invariant: merged latency mass %d != sum over shards %d",
			mergedMass, shardMass))
	}
	if s.ck.injected != ckI || s.ck.delivered != ckD || s.ck.dropped != ckX {
		panic(fmt.Sprintf("simulator invariant: merged conservation counters (%d,%d,%d) != shard sums (%d,%d,%d)",
			s.ck.injected, s.ck.delivered, s.ck.dropped, ckI, ckD, ckX))
	}
	if ckI != ckD+ckX+s.occupied {
		panic(fmt.Sprintf("simulator invariant: shard-summed conservation broken: injected %d != delivered %d + dropped %d + occupied %d",
			ckI, ckD, ckX, s.occupied))
	}
}

// checkLatencyMass verifies invariant 3 once the run's latency histogram
// has been folded into the metrics.
func (s *sim) checkLatencyMass() {
	var mass int64
	for _, c := range s.latHist {
		mass += int64(c)
	}
	if mass != int64(s.m.Delivered) {
		panic(fmt.Sprintf("simulator invariant: latency histogram mass %d != delivered %d",
			mass, s.m.Delivered))
	}
	if s.lat.N() != s.m.Delivered {
		panic(fmt.Sprintf("simulator invariant: latency stream holds %d samples, delivered %d",
			s.lat.N(), s.m.Delivered))
	}
}
