package core

import (
	"fmt"
	"math/rand"
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/topology"
)

// diffSizes is the stratified (N) sweep the packed-vs-legacy differential
// tests run over: the smallest network, the paper's running example, and
// two sizes with multi-word state arrays.
var diffSizes = []int{2, 4, 8, 64, 256}

// stratifiedStates yields network states of increasing disorder: all-C,
// all-C̄, and random.
func stratifiedStates(p topology.Params, rng *rand.Rand) []*NetworkState {
	return []*NetworkState{
		NewNetworkState(p),
		UniformState(p, StateCBar),
		RandomState(p, rng),
	}
}

// TestFollowStatePackedMatchesLegacy: FollowStatePacked agrees
// link-for-link with FollowState for every state stratum and many pairs.
func TestFollowStatePackedMatchesLegacy(t *testing.T) {
	for _, N := range diffSizes {
		p := topology.MustParams(N)
		rng := rand.New(rand.NewSource(int64(4100 + N)))
		for _, ns := range stratifiedStates(p, rng) {
			for trial := 0; trial < 50; trial++ {
				s, d := rng.Intn(N), rng.Intn(N)
				want := FollowState(p, s, d, ns)
				got := FollowStatePacked(p, s, d, ns)
				if err := got.Validate(p); err != nil {
					t.Fatalf("N=%d: %v", N, err)
				}
				if !got.Unpack(p, nil).Equal(want) {
					t.Fatalf("N=%d (%d->%d): packed %v vs legacy %v", N, s, d, got, want)
				}
				if got.Destination(p) != want.Destination() {
					t.Fatalf("N=%d: destination %d vs %d", N, got.Destination(p), want.Destination())
				}
			}
		}
	}
}

// TestRouteTSDTPackedMatchesLegacy: RouteTSDTPacked agrees with Tag.Follow
// for random tags (random destination and state bits).
func TestRouteTSDTPackedMatchesLegacy(t *testing.T) {
	for _, N := range diffSizes {
		p := topology.MustParams(N)
		rng := rand.New(rand.NewSource(int64(4200 + N)))
		for trial := 0; trial < 100; trial++ {
			tag := MustTag(p, rng.Intn(N))
			tag.bits |= uint64(rng.Intn(N)) << uint(p.Stages()) // random state bits
			s := rng.Intn(N)
			want := tag.Follow(p, s)
			got := RouteTSDTPacked(p, s, tag)
			if !got.Unpack(p, nil).Equal(want) {
				t.Fatalf("N=%d tag %v from %d: packed %v vs legacy %v", N, tag, s, got, want)
			}
		}
	}
}

// TestRouteSSDTPackedMatchesLegacy: on identical cloned network states and
// identical blockage strata, RouteSSDTPacked must return the same path,
// the same flipped stages (mask vs slice), the same error disposition, and
// leave the network state identical to legacy RouteSSDT — the self-repair
// side effect is part of the contract.
func TestRouteSSDTPackedMatchesLegacy(t *testing.T) {
	for _, N := range diffSizes {
		p := topology.MustParams(N)
		rng := rand.New(rand.NewSource(int64(4300 + N)))
		// Blockage strata: none, sparse nonstraight, dense nonstraight,
		// arbitrary links (provokes the straight-blockage error path).
		blks := []*blockage.Set{blockage.NewSet(p)}
		sparse := blockage.NewSet(p)
		sparse.RandomNonstraight(rng, p.Size()/2+1)
		dense := blockage.NewSet(p)
		dense.RandomNonstraight(rng, p.Size()*p.Stages()/2)
		anyKind := blockage.NewSet(p)
		anyKind.RandomLinks(rng, p.Size())
		blks = append(blks, sparse, dense, anyKind)
		for bi, blk := range blks {
			for _, base := range stratifiedStates(p, rng) {
				for trial := 0; trial < 30; trial++ {
					s, d := rng.Intn(N), rng.Intn(N)
					nsLegacy, nsPacked := base.Clone(), base.Clone()
					want, errLegacy := RouteSSDT(p, s, d, nsLegacy, blk)
					got, mask, errPacked := RouteSSDTPacked(p, s, d, nsPacked, blk)
					if (errLegacy == nil) != (errPacked == nil) {
						t.Fatalf("N=%d blk#%d (%d->%d): legacy err %v, packed err %v", N, bi, s, d, errLegacy, errPacked)
					}
					if errLegacy != nil {
						if errLegacy.Error() != errPacked.Error() {
							t.Fatalf("N=%d blk#%d: error text %q vs %q", N, bi, errLegacy, errPacked)
						}
						continue
					}
					if !got.Unpack(p, nil).Equal(want.Path) {
						t.Fatalf("N=%d blk#%d (%d->%d): packed %v vs legacy %v", N, bi, s, d, got, want.Path)
					}
					var wantMask uint64
					for _, i := range want.Flipped {
						wantMask |= 1 << uint(i)
					}
					if mask != wantMask {
						t.Fatalf("N=%d blk#%d: flip mask %b vs legacy %b", N, bi, mask, wantMask)
					}
					for i := 0; i < p.Stages(); i++ {
						for j := 0; j < N; j++ {
							if nsLegacy.Get(i, j) != nsPacked.Get(i, j) {
								t.Fatalf("N=%d blk#%d: state diverged at %d∈S_%d", N, bi, j, i)
							}
						}
					}
				}
			}
		}
	}
}

// TestPackUnpackRoundTrip: Path -> PackedPath -> Path is the identity on
// routed paths, and accessors agree between the representations.
func TestPackUnpackRoundTrip(t *testing.T) {
	for _, N := range diffSizes {
		p := topology.MustParams(N)
		rng := rand.New(rand.NewSource(int64(4400 + N)))
		ns := RandomState(p, rng)
		buf := make([]int, 0, p.Stages()+1)
		for trial := 0; trial < 100; trial++ {
			s, d := rng.Intn(N), rng.Intn(N)
			pa := FollowState(p, s, d, ns)
			pp := PackPath(pa)
			if !pp.Unpack(p, nil).Equal(pa) {
				t.Fatalf("N=%d: round trip broke %v", N, pa)
			}
			if pp != FollowStatePacked(p, s, d, ns) {
				t.Fatalf("N=%d: PackPath disagrees with packed kernel", N)
			}
			buf = pp.SwitchesInto(p, buf[:0])
			for i, sw := range pa.Switches() {
				if buf[i] != sw || pp.SwitchAt(p, i) != sw {
					t.Fatalf("N=%d: switch %d is %d/%d, want %d", N, i, buf[i], pp.SwitchAt(p, i), sw)
				}
			}
		}
	}
}

// TestPackedFirstBlockedMatchesLegacy: the packed blockage scan agrees with
// Path.FirstBlocked on random blockage sets.
func TestPackedFirstBlockedMatchesLegacy(t *testing.T) {
	p := topology.MustParams(64)
	rng := rand.New(rand.NewSource(4500))
	ns := RandomState(p, rng)
	for trial := 0; trial < 200; trial++ {
		blk := blockage.NewSet(p)
		blk.RandomLinks(rng, rng.Intn(3*64*6/2))
		s, d := rng.Intn(64), rng.Intn(64)
		pa := FollowState(p, s, d, ns)
		pp := PackPath(pa)
		wantStage, wantHit := pa.FirstBlocked(blk)
		gotStage, gotHit := pp.FirstBlocked(p, blk)
		if wantStage != gotStage || wantHit != gotHit {
			t.Fatalf("(%d->%d): packed (%d,%v) vs legacy (%d,%v)", s, d, gotStage, gotHit, wantStage, wantHit)
		}
	}
}

// TestFollowStateBatch: batch output equals per-call output, for both the
// explicit-sources and the permutation (nil sources) shapes, and the
// buffer/endpoint validation errors fire.
func TestFollowStateBatch(t *testing.T) {
	p := topology.MustParams(16)
	rng := rand.New(rand.NewSource(4600))
	ns := RandomState(p, rng)
	dsts := rng.Perm(16)
	srcs := rng.Perm(16)
	out := make([]PackedPath, 16)
	if err := FollowStateBatch(p, ns, srcs, dsts, out); err != nil {
		t.Fatal(err)
	}
	for k := range dsts {
		if out[k] != FollowStatePacked(p, srcs[k], dsts[k], ns) {
			t.Fatalf("batch[%d] diverges", k)
		}
	}
	if err := FollowStateBatch(p, ns, nil, dsts, out); err != nil {
		t.Fatal(err)
	}
	for k := range dsts {
		if out[k] != FollowStatePacked(p, k, dsts[k], ns) {
			t.Fatalf("perm batch[%d] diverges", k)
		}
	}
	if err := FollowStateBatch(p, ns, srcs[:3], dsts, out); err == nil {
		t.Error("accepted mismatched sources")
	}
	if err := FollowStateBatch(p, ns, nil, dsts, out[:4]); err == nil {
		t.Error("accepted short buffer")
	}
	if err := FollowStateBatch(p, ns, nil, []int{99}, out); err == nil {
		t.Error("accepted out-of-range destination")
	}
}

// TestPackedValidate: malformed encodings are rejected.
func TestPackedValidate(t *testing.T) {
	p := topology.MustParams(8)
	good := FollowStatePacked(p, 1, 6, NewNetworkState(p))
	if err := good.Validate(p); err != nil {
		t.Fatal(err)
	}
	cases := []PackedPath{
		{src: 1, n: 2, kinds: good.kinds},         // wrong stage count
		{src: 9, n: 3, kinds: good.kinds},         // source out of range
		{src: 1, n: 3, kinds: 0b11},               // invalid kind code
		{src: 1, n: 3, kinds: good.kinds | 1<<10}, // stray high bits
	}
	for i, pp := range cases {
		if err := pp.Validate(p); err == nil {
			t.Errorf("case %d (%v): invalid encoding accepted", i, pp)
		}
	}
}

// TestPackedKernelsAllocFree: the packed kernels perform zero heap
// allocations in steady state.
func TestPackedKernelsAllocFree(t *testing.T) {
	p := topology.MustParams(256)
	rng := rand.New(rand.NewSource(4700))
	ns := RandomState(p, rng)
	blk := blockage.NewSet(p)
	blk.RandomNonstraight(rng, 32)
	tag := MustTag(p, 200)
	out := make([]PackedPath, 256)
	dsts := rng.Perm(256)
	for name, fn := range map[string]func(){
		"FollowStatePacked": func() { FollowStatePacked(p, 3, 200, ns) },
		"RouteTSDTPacked":   func() { RouteTSDTPacked(p, 3, tag) },
		"RouteSSDTPacked": func() {
			if _, _, err := RouteSSDTPacked(p, 3, 200, ns, blk); err != nil {
				t.Fatal(err)
			}
		},
		"FollowStateBatch": func() {
			if err := FollowStateBatch(p, ns, nil, dsts, out); err != nil {
				t.Fatal(err)
			}
		},
	} {
		if avg := testing.AllocsPerRun(100, fn); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, avg)
		}
	}
}

func ExamplePackedPath() {
	p := topology.MustParams(8)
	pp := FollowStatePacked(p, 1, 6, NewNetworkState(p))
	fmt.Println(pp)
	fmt.Println(pp.Unpack(p, nil))
	// Output:
	// 1:-++
	// 1∈S_0 → 0∈S_1 → 2∈S_2 → 6∈S_3
}
