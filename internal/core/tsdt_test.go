package core

import (
	"strings"
	"testing"

	"iadm/internal/blockage"
	"iadm/internal/topology"
)

var p8 = topology.MustParams(8)

func mustParseTag(t *testing.T, n int, s string) Tag {
	t.Helper()
	tag, err := ParseTag(n, s)
	if err != nil {
		t.Fatalf("ParseTag(%q): %v", s, err)
	}
	return tag
}

func switchesOf(pa Path) []int { return pa.Switches() }

func wantSwitches(t *testing.T, pa Path, want ...int) {
	t.Helper()
	got := switchesOf(pa)
	if len(got) != len(want) {
		t.Fatalf("path %v has %d switches, want %d", pa, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path %v, want switches %v", pa, want)
		}
	}
}

func TestNewTag(t *testing.T) {
	tag, err := NewTag(p8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tag.Destination() != 5 || tag.StateBits() != 0 || tag.Stages() != 3 {
		t.Errorf("NewTag(5) = %v", tag)
	}
	if _, err := NewTag(p8, 8); err == nil {
		t.Error("NewTag accepted out-of-range destination")
	}
	if _, err := NewTag(p8, -1); err == nil {
		t.Error("NewTag accepted negative destination")
	}
}

func TestTagStringRoundTrip(t *testing.T) {
	// Paper's example tag: b_{0/5} = 000110 means d = 0, state bits at
	// stages 0 and 1 set.
	tag := mustParseTag(t, 3, "000110")
	if tag.Destination() != 0 {
		t.Errorf("Destination = %d", tag.Destination())
	}
	if tag.StateBit(0) != 1 || tag.StateBit(1) != 1 || tag.StateBit(2) != 0 {
		t.Errorf("state bits wrong: %v", tag)
	}
	if tag.String() != "000110" {
		t.Errorf("String = %q", tag.String())
	}
	if _, err := ParseTag(3, "0101"); err == nil {
		t.Error("ParseTag accepted wrong length")
	}
}

func TestTagStateAt(t *testing.T) {
	tag := mustParseTag(t, 3, "000010")
	if tag.StateAt(0) != StateC || tag.StateAt(1) != StateCBar || tag.StateAt(2) != StateC {
		t.Error("StateAt wrong")
	}
}

// TestTSDTLinkDecodeTable verifies the bit-pair semantics stated in
// Section 4: for an even_i switch b_i b_{n+i} = 00 and 01 are straight, 10
// is +2^i, 11 is -2^i; for an odd_i switch 10 and 11 are straight, 01 is
// +2^i, 00 is -2^i.
func TestTSDTLinkDecodeTable(t *testing.T) {
	cases := []struct {
		odd      bool
		db, sb   int
		wantKind topology.LinkKind
	}{
		{false, 0, 0, topology.Straight},
		{false, 0, 1, topology.Straight},
		{false, 1, 0, topology.Plus},
		{false, 1, 1, topology.Minus},
		{true, 1, 0, topology.Straight},
		{true, 1, 1, topology.Straight},
		{true, 0, 1, topology.Plus},
		{true, 0, 0, topology.Minus},
	}
	for _, c := range cases {
		for i := 0; i < p8.Stages(); i++ {
			// Pick a switch of the right parity at stage i.
			j := 0
			if c.odd {
				j = 1 << uint(i)
			}
			var tag Tag
			tag.n = 3
			tag.bits = 0
			if c.db == 1 {
				tag.bits |= 1 << uint(i)
			}
			if c.sb == 1 {
				tag.bits |= 1 << uint(3+i)
			}
			l := tag.LinkAt(i, j)
			if l.Kind != c.wantKind {
				t.Errorf("odd=%v b_i=%d b_{n+i}=%d at stage %d: got %v, want %v",
					c.odd, c.db, c.sb, i, l.Kind, c.wantKind)
			}
		}
	}
}

// TestFigure7OriginalPath reproduces the Section 4 example: in an N=8 IADM
// network, tag 000000 routes s=1 to d=0 via (1∈S_0, 0∈S_1, 0∈S_2, 0∈S_3).
func TestFigure7OriginalPath(t *testing.T) {
	tag := mustParseTag(t, 3, "000000")
	wantSwitches(t, tag.Follow(p8, 1), 1, 0, 0, 0)
}

// TestCorollary41PaperExample reproduces the two-step rerouting example of
// Section 4 (Figure 7): blocking (1∈S_0, 0∈S_1) yields rerouting tag 000100
// and path (1, 2, 0, 0); additionally blocking (2∈S_1, 0∈S_2) yields 000110
// and path (1, 2, 4, 0).
func TestCorollary41PaperExample(t *testing.T) {
	tag := mustParseTag(t, 3, "000000")
	// First blockage: the -2^0 link from 1∈S_0 (to 0∈S_1).
	re1 := tag.RerouteNonstraight(0)
	if re1.String() != "000100" {
		t.Errorf("first rerouting tag = %q, want 000100", re1.String())
	}
	wantSwitches(t, re1.Follow(p8, 1), 1, 2, 0, 0)
	// Second blockage: the -2^1 link from 2∈S_1 (to 0∈S_2).
	re2 := re1.RerouteNonstraight(1)
	if re2.String() != "000110" {
		t.Errorf("second rerouting tag = %q, want 000110", re2.String())
	}
	wantSwitches(t, re2.Follow(p8, 1), 1, 2, 4, 0)
}

// TestCorollary42StraightExample reproduces Section 4 example (a): with tag
// 000000 (path 1,0,0,0) and straight link (0∈S_1, 0∈S_2) blocked, the
// backtracking rerouting tag is 000100 (state bits above the backtrack
// range are left unchanged; the paper notes both 000110 and 000100 are
// valid), giving path (1, 2, 0, 0).
func TestCorollary42StraightExample(t *testing.T) {
	tag := mustParseTag(t, 3, "000000")
	path := tag.Follow(p8, 1)
	re, err := tag.RerouteBacktrack(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if re.String() != "000100" {
		t.Errorf("rerouting tag = %q, want 000100", re.String())
	}
	wantSwitches(t, re.Follow(p8, 1), 1, 2, 0, 0)
}

// TestCorollary42DoubleExample reproduces Section 4 example (b): with tag
// 000110 (path 1,2,4,0) and both nonstraight output links of 4∈S_2 blocked,
// the rerouting tag 000100 gives path (1, 2, 0, 0). (The paper notes
// 000101 — arbitrary b'_{n+2} — is equally valid.)
func TestCorollary42DoubleExample(t *testing.T) {
	tag := mustParseTag(t, 3, "000110")
	path := tag.Follow(p8, 1)
	wantSwitches(t, path, 1, 2, 4, 0)
	re, err := tag.RerouteBacktrack(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if re.String() != "000100" {
		t.Errorf("rerouting tag = %q, want 000100", re.String())
	}
	wantSwitches(t, re.Follow(p8, 1), 1, 2, 0, 0)
}

func TestRerouteBacktrackNoNonstraight(t *testing.T) {
	// s == d: the unique path is all straight; rerouting must be impossible.
	tag := MustTag(p8, 3)
	path := tag.Follow(p8, 3)
	if _, err := tag.RerouteBacktrack(path, 2); err == nil {
		t.Error("RerouteBacktrack succeeded on an all-straight path")
	}
}

func TestFollowAlwaysReachesDestination(t *testing.T) {
	// Theorem 3.1 in TSDT form: every 2n-bit tag reaches its destination
	// bits from every source. Exhaustive for N=8.
	for s := 0; s < 8; s++ {
		for bits := uint64(0); bits < 64; bits++ {
			tag := Tag{n: 3, bits: bits}
			path := tag.Follow(p8, s)
			if err := path.Validate(); err != nil {
				t.Fatalf("s=%d tag=%v: %v", s, tag, err)
			}
			if path.Destination() != tag.Destination() {
				t.Fatalf("s=%d tag=%v: reached %d, want %d", s, tag, path.Destination(), tag.Destination())
			}
		}
	}
}

func TestFollowBlocked(t *testing.T) {
	blk := blockage.NewSet(p8)
	tag := MustTag(p8, 0)
	if _, stage, hit := tag.FollowBlocked(p8, 1, blk); hit || stage != -1 {
		t.Error("unblocked path reported blocked")
	}
	blk.Block(topology.Link{Stage: 1, From: 0, Kind: topology.Straight})
	_, stage, hit := tag.FollowBlocked(p8, 1, blk)
	if !hit || stage != 1 {
		t.Errorf("FollowBlocked = (%d, %v), want (1, true)", stage, hit)
	}
}

func TestWithStateField(t *testing.T) {
	tag := MustTag(p8, 0)
	got := tag.WithStateField(0, 2, 0b101)
	if got.StateBit(0) != 1 || got.StateBit(1) != 0 || got.StateBit(2) != 1 {
		t.Errorf("WithStateField wrong: %v", got)
	}
	if got.Destination() != 0 {
		t.Error("WithStateField disturbed destination bits")
	}
}

func TestFlipStateBitInvolution(t *testing.T) {
	tag := MustTag(p8, 6)
	if tag.FlipStateBit(1).FlipStateBit(1) != tag {
		t.Error("FlipStateBit not an involution")
	}
}

func TestTagTooLarge(t *testing.T) {
	// 2n must fit in 64 bits: N = 2^33 would need 66 bits.
	p, err := topology.NewParams(1 << 29)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTag(p, 0); err != nil {
		t.Errorf("NewTag rejected representable size: %v", err)
	}
}

func TestPathString(t *testing.T) {
	tag := mustParseTag(t, 3, "000110")
	got := tag.Follow(p8, 1).String()
	want := "1∈S_0 → 2∈S_1 → 4∈S_2 → 0∈S_3"
	if got != want {
		t.Errorf("Path.String = %q, want %q", got, want)
	}
	if !strings.Contains(got, "S_3") {
		t.Error("missing output column")
	}
}

func TestTagFromState(t *testing.T) {
	p := topology.MustParams(64)
	blk := blockage.NewSet(p)
	blk.Block(topology.Link{Stage: 2, From: 5, Kind: topology.Plus})
	blk.Block(topology.Link{Stage: 0, From: 40, Kind: topology.Minus})
	for s := 0; s < p.Size(); s += 7 {
		for d := 0; d < p.Size(); d += 5 {
			tag, _, err := Reroute(p, blk, s, MustTag(p, d))
			if err != nil {
				continue
			}
			got := TagFromState(p, tag.Destination(), tag.StateBits())
			if got != tag {
				t.Fatalf("(%d,%d): TagFromState = %v, want %v", s, d, got, tag)
			}
		}
	}
}
