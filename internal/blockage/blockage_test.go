package blockage

import (
	"math/rand"
	"slices"
	"testing"

	"iadm/internal/topology"
)

func params(t *testing.T, N int) topology.Params {
	t.Helper()
	return topology.MustParams(N)
}

func TestBlockUnblock(t *testing.T) {
	s := NewSet(params(t, 8))
	l := topology.Link{Stage: 1, From: 3, Kind: topology.Plus}
	if s.Blocked(l) || s.Count() != 0 {
		t.Fatal("fresh set not empty")
	}
	s.Block(l)
	if !s.Blocked(l) || s.Count() != 1 {
		t.Fatal("Block failed")
	}
	s.Block(l) // idempotent
	if s.Count() != 1 {
		t.Fatal("double Block changed count")
	}
	s.Unblock(l)
	if s.Blocked(l) || s.Count() != 0 {
		t.Fatal("Unblock failed")
	}
	s.Unblock(l) // idempotent
	if s.Count() != 0 {
		t.Fatal("double Unblock changed count")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewSet(params(t, 8))
	l1 := topology.Link{Stage: 0, From: 0, Kind: topology.Minus}
	l2 := topology.Link{Stage: 2, From: 7, Kind: topology.Straight}
	s.Block(l1)
	c := s.Clone()
	c.Block(l2)
	if s.Blocked(l2) {
		t.Error("Clone shares storage with original")
	}
	if !c.Blocked(l1) {
		t.Error("Clone lost original blockage")
	}
	if s.Count() != 1 || c.Count() != 2 {
		t.Errorf("counts: s=%d c=%d", s.Count(), c.Count())
	}
}

func TestClear(t *testing.T) {
	s := NewSet(params(t, 8))
	s.RandomLinks(rand.New(rand.NewSource(1)), 10)
	s.Clear()
	if s.Count() != 0 || len(s.Links()) != 0 {
		t.Error("Clear left blockages")
	}
}

func TestLinksDeterministicOrder(t *testing.T) {
	p := params(t, 8)
	s := NewSet(p)
	s.Block(topology.Link{Stage: 2, From: 1, Kind: topology.Plus})
	s.Block(topology.Link{Stage: 0, From: 5, Kind: topology.Minus})
	s.Block(topology.Link{Stage: 0, From: 5, Kind: topology.Straight})
	links := s.Links()
	if len(links) != 3 {
		t.Fatalf("Links len = %d", len(links))
	}
	for i := 1; i < len(links); i++ {
		if links[i-1].Index(p) >= links[i].Index(p) {
			t.Errorf("Links out of order: %v", links)
		}
	}
}

func TestBlockSwitch(t *testing.T) {
	p := params(t, 8)
	s := NewSet(p)
	sw := topology.Switch{Stage: 2, Index: 4}
	blocked, err := s.BlockSwitch(sw)
	if err != nil {
		t.Fatal(err)
	}
	if blocked != 3 {
		t.Errorf("BlockSwitch blocked %d links, want 3", blocked)
	}
	// All stage-1 links leading into switch 4 must now be blocked:
	// from 6 via -2^1, from 4 via straight, from 2 via +2^1.
	want := []topology.Link{
		{Stage: 1, From: 6, Kind: topology.Minus},
		{Stage: 1, From: 4, Kind: topology.Straight},
		{Stage: 1, From: 2, Kind: topology.Plus},
	}
	for _, l := range want {
		if !s.Blocked(l) {
			t.Errorf("BlockSwitch missed input link %v", l)
		}
		if got := l.To(p); got != 4 {
			t.Errorf("test setup wrong: %v leads to %d", l, got)
		}
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
	// Re-blocking counts only newly blocked inputs.
	if again, err := s.BlockSwitch(sw); err != nil || again != 0 {
		t.Errorf("duplicate BlockSwitch = (%d, %v), want (0, nil)", again, err)
	}
}

func TestBlockSwitchErrors(t *testing.T) {
	s := NewSet(params(t, 8))
	if _, err := s.BlockSwitch(topology.Switch{Stage: 0, Index: 1}); err == nil {
		t.Error("BlockSwitch accepted a stage-0 input switch")
	}
	if _, err := s.BlockSwitch(topology.Switch{Stage: 4, Index: 1}); err == nil {
		t.Error("BlockSwitch accepted an out-of-range stage")
	}
	if _, err := s.BlockSwitch(topology.Switch{Stage: 1, Index: 9}); err == nil {
		t.Error("BlockSwitch accepted an out-of-range index")
	}
	if err := s.ValidateSwitch(topology.Switch{Stage: 0, Index: 1}); err == nil {
		t.Error("ValidateSwitch accepted a stage-0 input switch")
	}
	if err := s.ValidateSwitch(topology.Switch{Stage: 1, Index: 1}); err != nil {
		t.Errorf("ValidateSwitch rejected a valid switch: %v", err)
	}
	if s.Count() != 0 {
		t.Errorf("validation mutated the set: Count = %d", s.Count())
	}
}

func TestDoubleNonstraight(t *testing.T) {
	s := NewSet(params(t, 8))
	s.Block(topology.Link{Stage: 1, From: 2, Kind: topology.Plus})
	if s.DoubleNonstraight(1, 2) {
		t.Error("single nonstraight reported as double")
	}
	s.Block(topology.Link{Stage: 1, From: 2, Kind: topology.Minus})
	if !s.DoubleNonstraight(1, 2) {
		t.Error("double nonstraight not detected")
	}
	// Straight blockage does not matter for DoubleNonstraight.
	s2 := NewSet(params(t, 8))
	s2.Block(topology.Link{Stage: 1, From: 2, Kind: topology.Straight})
	if s2.DoubleNonstraight(1, 2) {
		t.Error("straight blockage misclassified")
	}
}

func TestRandomLinksCountAndDistinct(t *testing.T) {
	p := params(t, 16)
	s := NewSet(p)
	rng := rand.New(rand.NewSource(42))
	s.RandomLinks(rng, 20)
	if s.Count() != 20 {
		t.Errorf("Count = %d, want 20", s.Count())
	}
	if len(s.Links()) != 20 {
		t.Errorf("Links len = %d, want 20", len(s.Links()))
	}
	// Requesting more than remain blocks everything, no panic.
	s.RandomLinks(rng, 1<<20)
	total := 3 * 16 * 4
	if s.Count() != total {
		t.Errorf("saturated Count = %d, want %d", s.Count(), total)
	}
}

func TestRandomNonstraightOnlyBlocksNonstraight(t *testing.T) {
	s := NewSet(params(t, 16))
	rng := rand.New(rand.NewSource(7))
	s.RandomNonstraight(rng, 15)
	if s.Count() != 15 {
		t.Fatalf("Count = %d", s.Count())
	}
	for _, l := range s.Links() {
		if !l.Kind.Nonstraight() {
			t.Errorf("RandomNonstraight blocked straight link %v", l)
		}
	}
}

func TestRandomReproducible(t *testing.T) {
	a := NewSet(params(t, 16))
	b := NewSet(params(t, 16))
	a.RandomLinks(rand.New(rand.NewSource(99)), 12)
	b.RandomLinks(rand.New(rand.NewSource(99)), 12)
	al, bl := a.Links(), b.Links()
	if len(al) != len(bl) {
		t.Fatal("different counts")
	}
	for i := range al {
		if al[i] != bl[i] {
			t.Fatalf("same seed produced different sets: %v vs %v", al, bl)
		}
	}
}

func TestStringRendering(t *testing.T) {
	s := NewSet(params(t, 8))
	if s.String() != "{}" {
		t.Errorf("empty String = %q", s.String())
	}
	s.Block(topology.Link{Stage: 0, From: 1, Kind: topology.Straight})
	if s.String() == "{}" {
		t.Error("non-empty set rendered empty")
	}
}

// TestMasksMatchIndexOracle drives random Block/Unblock/RandomLinks
// sequences against a per-link-index bool slice and requires the
// mask-only Set to agree on every link, on Links (in index order), on the
// counts, and on which links a seeded RandomLinks picks.
func TestMasksMatchIndexOracle(t *testing.T) {
	for _, N := range []int{2, 8, 128, 1024} {
		p := params(t, N)
		total := 3 * N * p.Stages()
		rng := rand.New(rand.NewSource(int64(N)))
		s, oracle := NewSet(p), make([]bool, total)
		check := func(step string) {
			t.Helper()
			var want []topology.Link
			stage := make([]int, p.Stages())
			for idx, b := range oracle {
				l := topology.LinkFromIndex(p, idx)
				if s.Blocked(l) != b {
					t.Fatalf("N=%d %s: Blocked(%v)=%v, want %v", N, step, l, !b, b)
				}
				if b {
					want = append(want, l)
					stage[l.Stage]++
				}
			}
			got := s.Links()
			if len(got) != len(want) || s.Count() != len(want) {
				t.Fatalf("N=%d %s: %d links, count %d, want %d", N, step, len(got), s.Count(), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("N=%d %s: Links[%d]=%v, want %v", N, step, i, got[i], want[i])
				}
			}
			for i, c := range stage {
				if s.StageCount(i) != c {
					t.Fatalf("N=%d %s: StageCount(%d)=%d, want %d", N, step, i, s.StageCount(i), c)
				}
			}
		}
		for round := 0; round < 20; round++ {
			for k := 0; k < 1+total/20; k++ {
				idx := rng.Intn(total)
				if rng.Intn(3) == 0 {
					s.Unblock(topology.LinkFromIndex(p, idx))
					oracle[idx] = false
				} else {
					s.Block(topology.LinkFromIndex(p, idx))
					oracle[idx] = true
				}
			}
			check("block/unblock")
			// RandomLinks draws from the unblocked links in index order, so a
			// seed picks the same links the index-slice layout picked.
			seed := rng.Int63()
			var free []int
			for idx, b := range oracle {
				if !b {
					free = append(free, idx)
				}
			}
			n := min(rng.Intn(8), len(free))
			r := rand.New(rand.NewSource(seed))
			r.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
			for _, idx := range free[:n] {
				oracle[idx] = true
			}
			s.RandomLinks(rand.New(rand.NewSource(seed)), n)
			check("RandomLinks")
			if round%5 == 4 {
				c, saved := s.Clone(), slices.Clone(oracle)
				s.Clear()
				clear(oracle)
				check("Clear")
				s, oracle = c, saved
				check("Clone")
			}
		}
	}
}
