package paths

import (
	"math/rand"
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/topology"
)

// blockageStrata builds blockage sets of increasing density for the
// differential sweeps: empty, sparse, medium, dense, and nonstraight-only.
func blockageStrata(p topology.Params, rng *rand.Rand) []*blockage.Set {
	total := 3 * p.Size() * p.Stages()
	out := []*blockage.Set{blockage.NewSet(p)}
	for _, frac := range []float64{0.02, 0.15, 0.5} {
		b := blockage.NewSet(p)
		b.RandomLinks(rng, int(float64(total)*frac))
		out = append(out, b)
	}
	ns := blockage.NewSet(p)
	ns.RandomNonstraight(rng, p.Size())
	return append(out, ns)
}

// TestExistsMatchesReference: the allocation-free frontier walk decides
// exactly like the original slice-based walk across stratified (N,
// blockage) combinations.
func TestExistsMatchesReference(t *testing.T) {
	for _, N := range []int{2, 4, 8, 64, 256} {
		p := topology.MustParams(N)
		rng := rand.New(rand.NewSource(int64(5100 + N)))
		for bi, blk := range blockageStrata(p, rng) {
			trials := 200
			if N <= 8 {
				trials = N * N // exhaustive on small networks
			}
			for trial := 0; trial < trials; trial++ {
				var s, d int
				if N <= 8 {
					s, d = trial/N, trial%N
				} else {
					s, d = rng.Intn(N), rng.Intn(N)
				}
				want := existsRef(p, s, d, blk)
				if got := Exists(p, s, d, blk); got != want {
					t.Fatalf("N=%d blk#%d (%d->%d): Exists=%v, reference=%v", N, bi, s, d, got, want)
				}
			}
		}
	}
}

// TestFindMatchesReference: Find agrees with the reference walk on
// existence, and when both find a path each one is sound (blockage-free,
// correct endpoints). The walks may legitimately pick different paths only
// if frontier insertion order differed — it does not, so we require
// link-for-link equality to pin the rewrite to the original semantics.
func TestFindMatchesReference(t *testing.T) {
	for _, N := range []int{2, 4, 8, 64, 256} {
		p := topology.MustParams(N)
		rng := rand.New(rand.NewSource(int64(5200 + N)))
		for bi, blk := range blockageStrata(p, rng) {
			trials := 200
			if N <= 8 {
				trials = N * N
			}
			for trial := 0; trial < trials; trial++ {
				var s, d int
				if N <= 8 {
					s, d = trial/N, trial%N
				} else {
					s, d = rng.Intn(N), rng.Intn(N)
				}
				want, wantOK := findRef(p, s, d, blk)
				got, gotOK := Find(p, s, d, blk)
				if gotOK != wantOK {
					t.Fatalf("N=%d blk#%d (%d->%d): Find ok=%v, reference ok=%v", N, bi, s, d, gotOK, wantOK)
				}
				if !gotOK {
					continue
				}
				if !got.Equal(want) {
					t.Fatalf("N=%d blk#%d (%d->%d): Find %v, reference %v", N, bi, s, d, got, want)
				}
			}
		}
	}
}

// TestFindPackedMatchesFind: the packed and unpacked entry points agree.
func TestFindPackedMatchesFind(t *testing.T) {
	p := topology.MustParams(64)
	rng := rand.New(rand.NewSource(5300))
	for _, blk := range blockageStrata(p, rng) {
		for trial := 0; trial < 300; trial++ {
			s, d := rng.Intn(64), rng.Intn(64)
			pp, okP := FindPacked(p, s, d, blk)
			pa, okF := Find(p, s, d, blk)
			if okP != okF {
				t.Fatalf("(%d->%d): packed ok=%v, find ok=%v", s, d, okP, okF)
			}
			if okP && !pp.Unpack(p, nil).Equal(pa) {
				t.Fatalf("(%d->%d): packed %v vs find %v", s, d, pp, pa)
			}
		}
	}
}

// TestExistsConsistentWithFind: Exists and FindPacked agree on existence
// (they share the walk, but the parent bookkeeping must not change the
// decision).
func TestExistsConsistentWithFind(t *testing.T) {
	p := topology.MustParams(128)
	rng := rand.New(rand.NewSource(5400))
	for _, blk := range blockageStrata(p, rng) {
		for trial := 0; trial < 300; trial++ {
			s, d := rng.Intn(128), rng.Intn(128)
			_, okF := FindPacked(p, s, d, blk)
			if okE := Exists(p, s, d, blk); okE != okF {
				t.Fatalf("(%d->%d): Exists=%v, FindPacked=%v", s, d, okE, okF)
			}
		}
	}
}

// TestPackedWalkAllocFree: the hot oracle entry points perform zero heap
// allocations.
func TestPackedWalkAllocFree(t *testing.T) {
	p := topology.MustParams(4096)
	rng := rand.New(rand.NewSource(5500))
	blk := blockage.NewSet(p)
	blk.RandomLinks(rng, 256)
	s := 0
	if avg := testing.AllocsPerRun(200, func() {
		Exists(p, s, (s*7+1)%4096, blk)
		s++
	}); avg != 0 {
		t.Errorf("Exists: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		FindPacked(p, s, (s*7+1)%4096, blk)
		s++
	}); avg != 0 {
		t.Errorf("FindPacked: %v allocs/op, want 0", avg)
	}
}
