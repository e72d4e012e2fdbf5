package core

import (
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/topology"
)

// FuzzParseTag: ParseTag must round-trip with String or reject, never
// panic or mangle.
func FuzzParseTag(f *testing.F) {
	f.Add("000000")
	f.Add("000110")
	f.Add("111111")
	f.Add("01")
	f.Add("abc")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		tag, err := ParseTag(3, s)
		if err != nil {
			return
		}
		if tag.String() != s {
			t.Fatalf("round trip %q -> %q", s, tag.String())
		}
		if tag.Destination() < 0 || tag.Destination() > 7 {
			t.Fatalf("destination %d out of range", tag.Destination())
		}
	})
}

// FuzzPackedRoundTrip: Path ⇄ PackedPath conversion must be lossless and
// every packed accessor must agree with its slice-backed counterpart, for
// arbitrary sizes, endpoints, and switch-state bitmaps.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint8(0), uint8(0))
	f.Add(uint64(0xFFFFFFFFFFFFFFFF), uint8(255), uint8(255))
	f.Add(uint64(0x123456789ABCDEF), uint8(7), uint8(3))
	f.Fuzz(func(t *testing.T, bits uint64, sv, nv uint8) {
		n := 1 + int(nv)%5
		p := topology.MustParams(1 << uint(n))
		ns := NewNetworkState(p)
		b := 0
		for i := 0; i < p.Stages(); i++ {
			for j := 0; j < p.Size(); j++ {
				if bits>>uint(b%64)&1 == 1 {
					ns.Flip(i, j)
				}
				b++
			}
		}
		s := int(sv) & (p.Size() - 1)
		d := int(bits>>32) & (p.Size() - 1)
		pa := FollowState(p, s, d, ns)
		pp := PackPath(pa)
		if !pp.Unpack(p, nil).Equal(pa) {
			t.Fatalf("round trip: %v -> %v -> %v", pa, pp, pp.Unpack(p, nil))
		}
		if err := pp.Validate(p); err != nil {
			t.Fatalf("packed form of valid path invalid: %v", err)
		}
		if pp.Source() != pa.Source || pp.Stages() != len(pa.Links) || pp.Destination(p) != pa.Destination() {
			t.Fatalf("endpoint accessors disagree: %v vs %v", pp, pa)
		}
		for i, l := range pa.Links {
			if pp.KindAt(i) != l.Kind {
				t.Fatalf("kind at stage %d: %v vs %v", i, pp.KindAt(i), l.Kind)
			}
			if pp.SwitchAt(p, i) != pa.SwitchAt(i) {
				t.Fatalf("switch at stage %d: %d vs %d", i, pp.SwitchAt(p, i), pa.SwitchAt(i))
			}
		}
		if got := FollowStatePacked(p, s, d, ns); got != pp {
			t.Fatalf("FollowStatePacked %v, PackPath(FollowState) %v", got, pp)
		}
	})
}

// FuzzReroute: arbitrary blockage bitmaps and endpoints must never panic,
// and successful reroutes must be sound.
func FuzzReroute(f *testing.F) {
	f.Add(uint64(0), uint8(1), uint8(0))
	f.Add(uint64(0xFFFFFFFFFFFFFFFF), uint8(3), uint8(5))
	f.Add(uint64(0x123456789ABCDEF), uint8(7), uint8(7))
	p := topology.MustParams(8)
	f.Fuzz(func(t *testing.T, bits uint64, sv, dv uint8) {
		s, d := int(sv)&7, int(dv)&7
		blk := blockage.NewSet(p)
		for idx := 0; idx < 72; idx++ {
			if bits&(1<<uint(idx%64)) != 0 && idx%3 != 2 {
				blk.Block(topology.LinkFromIndex(p, idx))
			}
		}
		tag, path, err := Reroute(p, blk, s, MustTag(p, d))
		if err != nil {
			return
		}
		if path.Destination() != d || path.Source != s {
			t.Fatalf("endpoints wrong: %v", path)
		}
		if _, hit := path.FirstBlocked(blk); hit {
			t.Fatal("blocked path returned")
		}
		if !tag.Follow(p, s).Equal(path) {
			t.Fatal("tag/path mismatch")
		}
	})
}

// FuzzSlicedParity: for arbitrary sizes, batches, fault sets and switch
// states, the sliced kernels must be bit-identical to the per-request
// packed loops — paths, SSDT error/blocked masks, per-lane flip masks, and
// the post-route network state.
func FuzzSlicedParity(f *testing.F) {
	f.Add(uint8(2), uint8(64), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(3), uint8(7), uint64(0xDEADBEEF), uint64(0x12345), uint64(^uint64(0)))
	f.Add(uint8(4), uint8(65), uint64(0xFFFFFFFFFFFFFFFF), uint64(0), uint64(1))
	f.Fuzz(func(t *testing.T, nv, countv uint8, faultBits, stateBits, pairBits uint64) {
		n := 1 + int(nv)%4 // N in 2..16: dense lane interaction on shared switches
		p := topology.MustParams(1 << uint(n))
		count := 1 + int(countv)%Lanes

		blk := blockage.NewSet(p)
		for idx := 0; idx < 3*p.Size()*p.Stages(); idx++ {
			// Sparse-ish faults from the bit soup; rotate so big networks
			// still see variety beyond bit 63.
			if faultBits>>uint(idx%64)&1 == 1 && (idx/64+idx)%3 == 0 {
				blk.Block(topology.LinkFromIndex(p, idx))
			}
		}
		base := NewNetworkState(p)
		b := 0
		for i := 0; i < p.Stages(); i++ {
			for j := 0; j < p.Size(); j++ {
				if stateBits>>uint(b%64)&1 == 1 {
					base.Flip(i, j)
				}
				b++
			}
		}
		srcs, dsts := make([]int, count), make([]int, count)
		tags := make([]Tag, count)
		for l := range srcs {
			srcs[l] = int(pairBits>>uint((2*l)%63)) & (p.Size() - 1)
			dsts[l] = int(pairBits>>uint((2*l+17)%63)) & (p.Size() - 1)
			tags[l] = Tag{n: n, bits: (pairBits ^ uint64(l)*0x9E3779B97F4A7C15) & (1<<uint(2*n) - 1)}
		}
		var lb LaneBlock

		// FollowState parity.
		if err := lb.LoadInts(p, srcs, dsts); err != nil {
			t.Fatal(err)
		}
		FollowStateSliced(p, base, &lb)
		for l, pp := range lb.PathsInto(nil) {
			if want := FollowStatePacked(p, srcs[l], dsts[l], base); pp != want {
				t.Fatalf("follow lane %d: %v vs %v", l, pp, want)
			}
		}

		// TSDT parity.
		if err := lb.LoadTags(p, srcs, tags); err != nil {
			t.Fatal(err)
		}
		RouteTSDTSliced(p, &lb)
		for l, pp := range lb.PathsInto(nil) {
			if want := RouteTSDTPacked(p, srcs[l], tags[l]); pp != want {
				t.Fatalf("tsdt lane %d: %v vs %v", l, pp, want)
			}
		}

		// SSDT parity, including mutation coupling between lanes.
		nsPacked, nsSliced := base.Clone(), base.Clone()
		wantPaths := make([]PackedPath, count)
		var wantErr, wantBlocked uint64
		wantFlips := make([]uint64, count)
		for l := range srcs {
			pp, flips, err := RouteSSDTPacked(p, srcs[l], dsts[l], nsPacked, blk)
			wantPaths[l], wantFlips[l] = pp, flips
			if err != nil {
				wantErr |= 1 << uint(l)
			}
			if err != nil || flips != 0 {
				wantBlocked |= 1 << uint(l)
			}
		}
		if err := lb.LoadInts(p, srcs, dsts); err != nil {
			t.Fatal(err)
		}
		if errMask := RouteSSDTSliced(p, nsSliced, blk, &lb); errMask != wantErr {
			t.Fatalf("ssdt err mask %b vs %b", errMask, wantErr)
		}
		if lb.BlockedMask() != wantBlocked {
			t.Fatalf("ssdt blocked mask %b vs %b", lb.BlockedMask(), wantBlocked)
		}
		for l, pp := range lb.PathsInto(nil) {
			if pp != wantPaths[l] {
				t.Fatalf("ssdt lane %d: %v vs %v", l, pp, wantPaths[l])
			}
			if lb.Flipped(l) != wantFlips[l] {
				t.Fatalf("ssdt lane %d flips: %b vs %b", l, lb.Flipped(l), wantFlips[l])
			}
		}
		for i := 0; i < p.Stages(); i++ {
			for j := 0; j < p.Size(); j++ {
				if nsPacked.Get(i, j) != nsSliced.Get(i, j) {
					t.Fatalf("ssdt state diverged at %d∈S_%d", j, i)
				}
			}
		}
	})
}
