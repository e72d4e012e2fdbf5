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
//  2. Occupancy-bitset / FIFO agreement: bit i of the occupancy bitset is
//     set iff queue i is nonempty; queue sizes stay within [0, QueueCap];
//     and the incrementally maintained total occupancy equals the sum of
//     queue sizes.
//  3. Latency histogram mass (end of run): sum(latHist) == Delivered, and
//     the folded stats.Stream holds exactly one sample per delivery.
//  4. Shard-merge correctness (the wormhole engine at two or more
//     shards; the packet engine runs one): the merged counters, the
//     conservation balance, and the merged latency-histogram mass all
//     equal the exact sums over the per-shard accumulators. Invariants 1
//     and 2's occupancy recount already anchors the merged totals to the
//     queue ground truth every cycle; checkShardMerge re-verifies the
//     merge itself at end of run.
//
// Invariants 1, 3 and 4 are the shared model's (CheckBalance,
// checkLatencyMass, checkShardMerge) and hold for the wormhole engine
// too, counted in flits. The conservation counters count from cycle 0
// (Metrics only counts the measured window, so it cannot anchor a
// per-cycle balance). Drops count in-flight drops only: a packet refused
// a stage-0 buffer by blockage was never accepted into the network, and is
// visible in Metrics.Dropped but not in the balance.
var invariantsEnabled = fanout.Simcheck

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
		if bit := s.q.occ[i>>6]&(1<<uint(i&63)) != 0; (n > 0) != bit {
			panic(fmt.Sprintf("simulator invariant: cycle %d: queue %d length %d disagrees with occupancy bit %v",
				cycle, i, n, bit))
		}
		total += int64(n)
	}
	s.CheckBalance(cycle, total)
}

// CheckBalance verifies invariant 1 against total, the engine's recount of
// its queued units: the merged occupancy must equal it, and every unit
// accepted since cycle 0 must be delivered, dropped or still queued.
func (m *Model) CheckBalance(cycle int, total int64) {
	if total != m.occupied {
		panic(fmt.Sprintf("%s invariant: cycle %d: incremental occupancy %d != sum of buffer sizes %d",
			m.spec.Name, cycle, m.occupied, total))
	}
	if m.ck[0] != m.ck[1]+m.ck[2]+total {
		panic(fmt.Sprintf("%s invariant: cycle %d: conservation broken: injected %d != delivered %d + dropped %d + queued %d",
			m.spec.Name, cycle, m.ck[0], m.ck[1], m.ck[2], total))
	}
}

// checkShardMerge verifies invariant 4 at end of a sharded run, after the
// per-shard latency histograms are folded into latHist: the merged
// histogram mass and the merged conservation counters must equal the
// exact sums over the shards.
func (m *Model) checkShardMerge() {
	var mergedMass, shardMass int64
	for _, c := range m.latHist {
		mergedMass += int64(c)
	}
	var ck [3]int64
	for k := range m.Shards {
		sh := &m.Shards[k]
		for _, c := range sh.LatHist {
			shardMass += int64(c)
		}
		ck[0] += sh.CkIn
		ck[1] += sh.CkOut
		ck[2] += sh.CkDropped
	}
	if mergedMass != shardMass {
		panic(fmt.Sprintf("%s invariant: merged latency mass %d != sum over shards %d",
			m.spec.Name, mergedMass, shardMass))
	}
	if m.ck != ck {
		panic(fmt.Sprintf("%s invariant: merged conservation counters %v != shard sums %v",
			m.spec.Name, m.ck, ck))
	}
	if ck[0] != ck[1]+ck[2]+m.occupied {
		panic(fmt.Sprintf("%s invariant: shard-summed conservation broken: injected %d != delivered %d + dropped %d + queued %d",
			m.spec.Name, ck[0], ck[1], ck[2], m.occupied))
	}
}

// checkLatencyMass verifies invariant 3 once the run's latency histogram
// has been folded into the metrics.
func (m *Model) checkLatencyMass() {
	var mass int64
	for _, c := range m.latHist {
		mass += int64(c)
	}
	if mass != int64(m.totals.Delivered) {
		panic(fmt.Sprintf("%s invariant: latency histogram mass %d != delivered %d",
			m.spec.Name, mass, m.totals.Delivered))
	}
	if m.lat.N() != m.totals.Delivered {
		panic(fmt.Sprintf("%s invariant: latency stream holds %d samples, delivered %d",
			m.spec.Name, m.lat.N(), m.totals.Delivered))
	}
}
