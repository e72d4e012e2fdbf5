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
//  3. Latency histogram mass (end of run): sum(LatHist) == Delivered, and
//     the folded stats.Stream holds exactly one sample per delivery.
//
// Invariants 1 and 3 are the shared model's (CheckBalance,
// checkLatencyMass) and hold for the wormhole engine too, counted in
// flits. The conservation counters count from cycle 0 (Metrics only
// counts the measured window, so it cannot anchor a per-cycle balance). Drops count in-flight drops only: a packet refused
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
// its queued units: the incremental occupancy must equal it, and every
// unit accepted since cycle 0 must be delivered, dropped or still queued.
func (m *Model) CheckBalance(cycle int, total int64) {
	a := &m.Acc
	if total != a.Occupied {
		panic(fmt.Sprintf("%s invariant: cycle %d: incremental occupancy %d != sum of buffer sizes %d",
			m.spec.Name, cycle, a.Occupied, total))
	}
	if a.CkIn != a.CkOut+a.CkDropped+total {
		panic(fmt.Sprintf("%s invariant: cycle %d: conservation broken: injected %d != delivered %d + dropped %d + queued %d",
			m.spec.Name, cycle, a.CkIn, a.CkOut, a.CkDropped, total))
	}
}

// checkLatencyMass verifies invariant 3 once the run's latency histogram
// has been folded into the metrics.
func (m *Model) checkLatencyMass() {
	var mass int64
	for _, c := range m.Acc.LatHist {
		mass += int64(c)
	}
	if mass != int64(m.Acc.Delivered) {
		panic(fmt.Sprintf("%s invariant: latency histogram mass %d != delivered %d",
			m.spec.Name, mass, m.Acc.Delivered))
	}
	if m.lat.N() != m.Acc.Delivered {
		panic(fmt.Sprintf("%s invariant: latency stream holds %d samples, delivered %d",
			m.spec.Name, m.lat.N(), m.Acc.Delivered))
	}
}
