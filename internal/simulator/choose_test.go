package simulator

import (
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/topology"
)

// refChoose is the routing ladder spelled out as the paper states it, the
// reference the arithmetic Model.Choose is checked against: straight when
// the stage bit matches, dropped if that link is unusable; otherwise the
// one usable nonstraight link, or the policy's pick among two — static-C
// takes the state-C link, random-state a coin, adaptive-SSDT the less
// loaded link with ties to state C.
func refChoose(m *Model, stage, sw, dst, cycle int, entity, purpose uint64) (int, bool) {
	base := (stage*m.N + sw) * 3
	if ((sw^dst)>>uint(stage))&1 == 0 {
		idx := base + 1 // straight
		if m.blockable && m.linkBlocked(idx) {
			return 0, false
		}
		return idx, true
	}
	minus, plus := base, base+2
	if m.blockable {
		mOK, pOK := !m.linkBlocked(minus), !m.linkBlocked(plus)
		switch {
		case !pOK && !mOK:
			return 0, false
		case pOK && !mOK:
			return plus, true
		case mOK && !pOK:
			return minus, true
		}
	}
	stateC := plus // state C: even_i uses +2^i, odd_i uses -2^i
	if (sw>>uint(stage))&1 == 1 {
		stateC = minus
	}
	switch m.mc.Policy {
	case StaticC:
		return stateC, true
	case RandomState:
		if m.rng.Bit(uint64(cycle), entity, purpose) {
			return plus, true
		}
		return minus, true
	default: // AdaptiveSSDT
		lp, lm := m.spec.Load[plus], m.spec.Load[minus]
		switch {
		case lp < lm:
			return plus, true
		case lm < lp:
			return minus, true
		default:
			return stateC, true
		}
	}
}

// TestChooseMatchesReferenceLadder compares the fast ladder with the
// reference on every stage, switch and destination at N=8 and N=16, for
// all three policies, every pair of nonstraight loads in {0..3} (ties
// included), and every combination of usable, statically blocked and
// transiently failed states of the switch's three links — plus a model
// on which no link can ever be blocked, whose ladder skips the checks.
func TestChooseMatchesReferenceLadder(t *testing.T) {
	const cycle = 5
	for _, N := range []int{8, 16} {
		p := topology.MustParams(N)
		for _, pol := range []Policy{StaticC, RandomState, AdaptiveSSDT} {
			for _, blockable := range []bool{false, true} {
				mc := ModelConfig{N: N, Policy: pol, Load: 0.5, Cycles: 20, Seed: 11}
				if blockable {
					mc.Blocked = blockage.NewSet(p) // empty: the test sets the snapshot
					mc.FaultRate, mc.RepairCycles = 0.5, 3
				}
				var m Model
				load := make([]int32, 3*N*p.Stages())
				m.Init(p, mc, Spec{Name: "choose", Load: load, Buffers: 1})
				m.Rewind(mc.Seed, false)
				m.nowCycle = cycle
				if blockable {
					m.staticBlocked = make([]bool, m.L)
					m.hasStatic = true
					clear(m.failUntil)
				}
				combos := 1
				if blockable {
					combos = 27 // each of three links usable, blocked or failed
				}
				calls := 0
				for stage := 0; stage < m.Stages; stage++ {
					for sw := 0; sw < N; sw++ {
						base := (stage*N + sw) * 3
						for combo := 0; combo < combos; combo++ {
							c := combo
							for j := 0; j < 3 && blockable; j++ {
								m.staticBlocked[base+j] = c%3 == 1
								m.failUntil[base+j] = 0
								if c%3 == 2 {
									m.failUntil[base+j] = cycle + 1
								}
								c /= 3
							}
							for lm := int32(0); lm < 4; lm++ {
								for lp := int32(0); lp < 4; lp++ {
									load[base], load[base+2] = lm, lp
									for dst := 0; dst < N; dst++ {
										entity := uint64(dst*16 + int(lm*4+lp))
										gotIdx, gotOK := m.Choose(stage, sw, dst, cycle, entity, drawRoute)
										wantIdx, wantOK := refChoose(&m, stage, sw, dst, cycle, entity, drawRoute)
										if gotOK != wantOK || (wantOK && gotIdx != wantIdx) {
											t.Fatalf("N=%d %v blockable=%v stage %d switch %d dst %d combo %d loads -%d/+%d: Choose = (%d, %v), reference (%d, %v)",
												N, pol, blockable, stage, sw, dst, combo, lm, lp, gotIdx, gotOK, wantIdx, wantOK)
										}
										calls++
									}
								}
							}
						}
						for j := 0; j < 3 && blockable; j++ {
							m.staticBlocked[base+j] = false
							m.failUntil[base+j] = 0
						}
					}
				}
				if want := m.Stages * N * combos * 16 * N; calls != want {
					t.Fatalf("N=%d %v: %d comparisons, want %d", N, pol, calls, want)
				}
			}
		}
	}
}
