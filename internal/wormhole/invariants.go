package wormhole

import (
	"fmt"
	"math/bits"

	"iadm/internal/fanout"
)

// The wormhole invariant checker, mirroring the packet simulator's: after
// every cycle it re-derives the structural invariants the flat lane/mask
// hot path is supposed to preserve and panics on the first violation. The
// `simcheck` build tag (fanout.Simcheck) turns it on for a whole test
// run (what `make race` uses); tests can flip invariantsEnabled directly
// for targeted runs.
//
// Checked invariants:
//
//  1. Flit conservation: every flit accepted into a stage-0 lane is
//     delivered, dropped, or still queued — counted from cycle 0 so the
//     balance is exact at every cycle.
//  2. Lane/credit state: each lane's size within [0, LaneDepth], head
//     within [0, LaneDepth), and credit + size == LaneDepth (the credit
//     balance); per link, the occupancy mask flags exactly the non-empty
//     lanes, linkFlits equals the sum of lane sizes, an unclaimed lane is
//     empty, and a claimed route points at a lane whose claim bit is set.
//  3. Latency histogram mass (end of run): one sample per delivered
//     packet.
//  4. Shard-merge correctness (sharded engine only): the merged counters
//     and latency mass equal the exact sums over the per-shard
//     accumulators.
var invariantsEnabled = fanout.Simcheck

// checkInvariants verifies invariants 1 and 2 after a cycle. It panics
// (rather than returning an error) because a violation means the core's
// state is corrupt and every later metric would be garbage.
func (s *sim) checkInvariants(cycle int) {
	var total int64
	for e := 0; e < s.L; e++ {
		var linkSum, occ int64
		for l := 0; l < s.V; l++ {
			q := e*s.V + l
			n := s.size[q]
			if n < 0 || n > int32(s.D) {
				panic(fmt.Sprintf("wormhole invariant: cycle %d: lane %d size %d outside [0,%d]",
					cycle, q, n, s.D))
			}
			if h := s.head[q]; h < 0 || h >= int32(s.D) {
				panic(fmt.Sprintf("wormhole invariant: cycle %d: lane %d head %d outside [0,%d)",
					cycle, q, h, s.D))
			}
			if s.credit[q]+n != int32(s.D) {
				panic(fmt.Sprintf("wormhole invariant: cycle %d: lane %d credit %d + size %d != depth %d",
					cycle, q, s.credit[q], n, s.D))
			}
			lbit := uint64(1) << uint(l)
			if (n > 0) != (s.occMask[e]&lbit != 0) {
				panic(fmt.Sprintf("wormhole invariant: cycle %d: lane %d size %d disagrees with occupancy bit %v",
					cycle, q, n, s.occMask[e]&lbit != 0))
			}
			if s.claimMask[e]&lbit == 0 && n != 0 {
				panic(fmt.Sprintf("wormhole invariant: cycle %d: lane %d holds %d flits without a claim",
					cycle, q, n))
			}
			if r := s.route[q]; r >= 0 {
				if r >= int32(len(s.route)) {
					panic(fmt.Sprintf("wormhole invariant: cycle %d: lane %d routes to out-of-range lane %d",
						cycle, q, r))
				}
				e2, l2 := int(r)/s.V, int(r)%s.V
				if s.claimMask[e2]&(uint64(1)<<uint(l2)) == 0 {
					panic(fmt.Sprintf("wormhole invariant: cycle %d: lane %d routes to lane %d, which is not claimed",
						cycle, q, r))
				}
			}
			linkSum += int64(n)
			if n > 0 {
				occ++
			}
		}
		if int64(s.linkFlits[e]) != linkSum {
			panic(fmt.Sprintf("wormhole invariant: cycle %d: link %d flit count %d != sum of lane sizes %d",
				cycle, e, s.linkFlits[e], linkSum))
		}
		if int64(bits.OnesCount64(s.occMask[e])) != occ {
			panic(fmt.Sprintf("wormhole invariant: cycle %d: link %d occupancy mask popcount %d != %d non-empty lanes",
				cycle, e, bits.OnesCount64(s.occMask[e]), occ))
		}
		total += linkSum
	}
	if total != s.occupied {
		panic(fmt.Sprintf("wormhole invariant: cycle %d: merged occupancy %d != sum of lane sizes %d",
			cycle, s.occupied, total))
	}
	if s.ck.fInjected != s.ck.fDelivered+s.ck.fDropped+total {
		panic(fmt.Sprintf("wormhole invariant: cycle %d: flit conservation broken: injected %d != delivered %d + dropped %d + queued %d",
			cycle, s.ck.fInjected, s.ck.fDelivered, s.ck.fDropped, total))
	}
}

// checkShardMerge verifies invariant 4 at end of a sharded run, after
// the per-shard latency histograms are folded into s.latHist.
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
		ckI += sh.ckFInj
		ckD += sh.ckFDel
		ckX += sh.ckFDrop
	}
	if mergedMass != shardMass {
		panic(fmt.Sprintf("wormhole invariant: merged latency mass %d != sum over shards %d",
			mergedMass, shardMass))
	}
	if s.ck.fInjected != ckI || s.ck.fDelivered != ckD || s.ck.fDropped != ckX {
		panic(fmt.Sprintf("wormhole invariant: merged conservation counters (%d,%d,%d) != shard sums (%d,%d,%d)",
			s.ck.fInjected, s.ck.fDelivered, s.ck.fDropped, ckI, ckD, ckX))
	}
	if ckI != ckD+ckX+s.occupied {
		panic(fmt.Sprintf("wormhole invariant: shard-summed flit conservation broken: injected %d != delivered %d + dropped %d + queued %d",
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
		panic(fmt.Sprintf("wormhole invariant: latency histogram mass %d != delivered packets %d",
			mass, s.m.Delivered))
	}
	if s.lat.N() != s.m.Delivered {
		panic(fmt.Sprintf("wormhole invariant: latency stream has %d samples, want %d",
			s.lat.N(), s.m.Delivered))
	}
}
