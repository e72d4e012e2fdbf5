package simulator

import (
	"fmt"

	"iadm/internal/fanout"
	"iadm/internal/topology"
)

// The sharded stepper (IntraWorkers >= 2) runs the phases of a cycle on
// the shared model's phase pool, each shard over its own switch columns
// (see model.go for why the result is bit-identical to the sequential
// stepper's). The occupancy bitset is not maintained here: its 64-link
// words straddle shard boundaries, so the shards go through
// pushQuiet/popQuiet and iterate the In table instead.
//
// The sequential bitset sweep stays beside it because stepping one shard
// through the In table is 1.5–2.2x slower at IntraWorkers 1 (DESIGN §6).

// shardPhase executes one shard's slice of one phase.
func (s *sim) shardPhase(k int, ph fanout.Phase) {
	switch ph.Kind {
	case fanout.Deliver:
		s.shardDeliver(k, ph.Cycle, ph.Measured)
	case fanout.Stage:
		s.shardStage(k, ph.Stage, ph.Cycle, ph.Measured)
	default:
		s.inject(k, ph.Cycle, ph.Measured)
	}
}

// shardDeliver pops the last stage's links into the output ports owned by
// shard k (SingleInput: the first nonempty incoming link wins the cycle).
func (s *sim) shardDeliver(k, cycle int, measured bool) {
	sh := &s.Shards[k]
	rowBase := (s.Stages - 1) * s.N
	for to := int(s.ShardLo[k]); to < int(s.ShardLo[k+1]); to++ {
		inBase := (rowBase + to) * 3
		passed := false
		for j := 0; j < 3; j++ {
			idx := int(s.In[inBase+j])
			if s.q.len(idx) == 0 {
				continue
			}
			if s.SingleInput && passed {
				continue
			}
			pk := s.q.popQuiet(idx)
			sh.OccDelta--
			if s.check {
				sh.CkOut++
			}
			if int(pk.dst) != to {
				panic(fmt.Sprintf("simulator: packet for %d delivered to %d via %v",
					pk.dst, to, topology.LinkFromIndex(s.P, idx)))
			}
			passed = true
			if measured {
				sh.AddLatency(cycle - int(pk.born))
				s.Forwards[idx]++
			}
		}
	}
}

// shardStage advances stage i's links into the stage-i+1 switches owned
// by shard k.
func (s *sim) shardStage(k, i, cycle int, measured bool) {
	sh := &s.Shards[k]
	rowBase := i * s.N
	for at := int(s.ShardLo[k]); at < int(s.ShardLo[k+1]); at++ {
		inBase := (rowBase + at) * 3
		passed := false
		for j := 0; j < 3; j++ {
			idx := int(s.In[inBase+j])
			if s.q.len(idx) == 0 {
				continue
			}
			if s.SingleInput && passed {
				continue
			}
			pk := s.q.front(idx)
			out, ok := s.Choose(i+1, at, int(pk.dst), cycle, uint64(idx), drawRoute)
			if !ok {
				s.q.popQuiet(idx)
				sh.OccDelta--
				if s.check {
					sh.CkDropped++
				}
				if measured {
					sh.Dropped++
				}
				continue
			}
			if ln, pushed := s.q.pushQuiet(out, pk); pushed {
				if ln > sh.MaxOcc {
					sh.MaxOcc = ln
				}
				s.q.popQuiet(idx)
				passed = true
				if measured {
					s.Forwards[idx]++
				}
			}
			// Otherwise the packet stalls in place this cycle.
		}
	}
}
