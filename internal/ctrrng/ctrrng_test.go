package ctrrng

import (
	"math"
	"testing"
)

// TestWordGolden pins Word to the values the engines' private generators
// produced before they shared this package: the simulator's goldens and
// the refsim/refwh differential oracles depend on every bit.
func TestWordGolden(t *testing.T) {
	for _, c := range []struct {
		seed                   uint64
		cycle, entity, purpose uint64
		want                   uint64
	}{
		{0, 0, 0, 0, 0xe220a8397b1dcdaf},
		{1, 0, 0, 0xa0761d6478bd642f, 0x5fa72aeb3868ea76},
		{42, 7, 3, 0x589965cc75374cc3, 0xbf6cd63eb8fb7181},
		{math.MaxUint64, 1 << 40, 12345, 0xe59a3d7c61b08f27, 0xf997261fc9b81f05},
		{0x123456789abcdef0, 99, 1023, 0x9e6c63d0a161fe15, 0x2d76e5c86325587d},
		{7, 1, 2, 0x589965cc75374cc3, 0x2409e5e41dca0b99},
	} {
		r := New(int64(c.seed))
		w := r.Word(c.cycle, c.entity, c.purpose)
		if w != c.want {
			t.Errorf("Word(seed %#x, %d, %d, %#x) = %#x, want %#x", c.seed, c.cycle, c.entity, c.purpose, w, c.want)
		}
		if got := r.Intn(1023, c.cycle, c.entity, c.purpose); got != int(c.want&1023) {
			t.Errorf("Intn = %d, want %d", got, c.want&1023)
		}
		if got := r.Bit(c.cycle, c.entity, c.purpose); got != (c.want&1 == 0) {
			t.Errorf("Bit = %v for word %#x", got, c.want)
		}
		if r.Hit(c.want, c.cycle, c.entity, c.purpose) || !r.Hit(c.want+1, c.cycle, c.entity, c.purpose) {
			t.Errorf("Hit is not Word < t at the edge t = %#x", c.want)
		}
	}
	if Mix64(0) != 0 || Mix64(1) != 6238072747940578789 {
		t.Errorf("Mix64(0), Mix64(1) = %d, %d", Mix64(0), Mix64(1))
	}
	if SplitMix64(0) != 0xe220a8397b1dcdaf || SplitMix64(3<<32|1000) != 0xdc97fabb82cf456a {
		t.Errorf("SplitMix64 = %#x, %#x", SplitMix64(0), SplitMix64(3<<32|1000))
	}
}

func TestBernoulliThreshold(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want uint64
	}{
		{math.Inf(-1), 0},
		{-1, 0},
		{0, 0},
		{1e-9, 0x44b82fa09},
		{0.25, 0x4000000000000000},
		{0.5, 0x8000000000000000},
		{0.7, 0xb333333333333000},
		{1, math.MaxUint64},
		{2, math.MaxUint64},
		{math.Inf(1), math.MaxUint64},
	} {
		if got := BernoulliThreshold(c.p); got != c.want {
			t.Errorf("BernoulliThreshold(%v) = %#x, want %#x", c.p, got, c.want)
		}
	}
}

func TestGeometricSkipFromWord(t *testing.T) {
	inv := 1 / math.Log1p(-0.01)
	for _, c := range []struct {
		u    uint64
		want int64
	}{
		{0, 3656},
		{1, 3656},
		{1 << 63, 69},
		{math.MaxUint64, 1},
		{0x9e3779b97f4a7c15, 48},
	} {
		if got := GeometricSkipFromWord(c.u, inv); got != c.want {
			t.Errorf("GeometricSkipFromWord(%#x, p=0.01) = %d, want %d", c.u, got, c.want)
		}
		// invLn1mP == 0 signals p >= 1: every trial hits.
		if got := GeometricSkipFromWord(c.u, 0); got != 1 {
			t.Errorf("GeometricSkipFromWord(%#x, 0) = %d, want 1", c.u, got)
		}
	}
}
