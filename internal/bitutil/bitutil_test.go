package bitutil

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBit(t *testing.T) {
	cases := []struct {
		v    uint64
		i    int
		want uint64
	}{
		{0b1010, 0, 0},
		{0b1010, 1, 1},
		{0b1010, 2, 0},
		{0b1010, 3, 1},
		{0, 63, 0},
		{1 << 63, 63, 1},
	}
	for _, c := range cases {
		if got := Bit(c.v, c.i); got != c.want {
			t.Errorf("Bit(%#b, %d) = %d, want %d", c.v, c.i, got, c.want)
		}
	}
}

func TestSetBit(t *testing.T) {
	if got := SetBit(0, 3, 1); got != 8 {
		t.Errorf("SetBit(0,3,1) = %d, want 8", got)
	}
	if got := SetBit(0xFF, 3, 0); got != 0xF7 {
		t.Errorf("SetBit(0xFF,3,0) = %#x, want 0xF7", got)
	}
	// Setting a bit to its current value is a no-op.
	if got := SetBit(0b101, 0, 1); got != 0b101 {
		t.Errorf("SetBit noop = %#b", got)
	}
}

func TestFlipBit(t *testing.T) {
	if got := FlipBit(0b100, 2); got != 0 {
		t.Errorf("FlipBit(0b100,2) = %d, want 0", got)
	}
	if got := FlipBit(FlipBit(12345, 7), 7); got != 12345 {
		t.Errorf("FlipBit involution broken: %d", got)
	}
}

func TestMask(t *testing.T) {
	if got := Mask(0, 2); got != 0b111 {
		t.Errorf("Mask(0,2) = %#b", got)
	}
	if got := Mask(2, 4); got != 0b11100 {
		t.Errorf("Mask(2,4) = %#b", got)
	}
	if got := Mask(0, 63); got != ^uint64(0) {
		t.Errorf("Mask(0,63) = %#x", got)
	}
	if got := Mask(5, 5); got != 1<<5 {
		t.Errorf("Mask(5,5) = %#b", got)
	}
}

func TestMaskPanics(t *testing.T) {
	for _, pq := range [][2]int{{-1, 3}, {3, 64}, {4, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Mask(%d,%d) did not panic", pq[0], pq[1])
				}
			}()
			Mask(pq[0], pq[1])
		}()
	}
}

func TestField(t *testing.T) {
	// v = 0b110100; bits 2..4 are 1,0,1 -> right aligned 0b101.
	if got := Field(0b110100, 2, 4); got != 0b101 {
		t.Errorf("Field = %#b, want 0b101", got)
	}
	if got := Field(0xABCD, 0, 15); got != 0xABCD {
		t.Errorf("full Field = %#x", got)
	}
}

func TestReplaceField(t *testing.T) {
	// Replace bits 1..3 of 0b0000 with 0b111 -> 0b1110.
	if got := ReplaceField(0, 1, 3, 0b111); got != 0b1110 {
		t.Errorf("ReplaceField = %#b, want 0b1110", got)
	}
	// Excess bits of f are masked off.
	if got := ReplaceField(0, 0, 1, 0xFF); got != 0b11 {
		t.Errorf("ReplaceField mask = %#b, want 0b11", got)
	}
	// Replacing with the existing field is a no-op.
	v := uint64(0b101101)
	if got := ReplaceField(v, 2, 4, Field(v, 2, 4)); got != v {
		t.Errorf("ReplaceField noop = %#b, want %#b", got, v)
	}
}

func TestComplementField(t *testing.T) {
	if got := ComplementField(0b0000, 1, 2); got != 0b0110 {
		t.Errorf("ComplementField = %#b, want 0b0110", got)
	}
	if got := ComplementField(ComplementField(9999, 3, 9), 3, 9); got != 9999 {
		t.Errorf("ComplementField involution broken: %d", got)
	}
}

func TestStringLSBFirst(t *testing.T) {
	// The paper prints tag b_{0/5} = 000110 for bits b3=1,b4=1 (value 0b011000).
	if got := String(0b011000, 6); got != "000110" {
		t.Errorf("String = %q, want 000110", got)
	}
	if got := String(1, 4); got != "1000" {
		t.Errorf("String(1,4) = %q, want 1000", got)
	}
	if got := String(0, 3); got != "000" {
		t.Errorf("String(0,3) = %q", got)
	}
}

func TestParse(t *testing.T) {
	v, err := Parse("000110")
	if err != nil {
		t.Fatal(err)
	}
	if v != 0b011000 {
		t.Errorf("Parse = %#b, want 0b011000", v)
	}
	if _, err := Parse("01x"); err == nil {
		t.Error("Parse accepted invalid character")
	}
	if _, err := Parse(string(make([]byte, 65))); err == nil {
		t.Error("Parse accepted overlong string")
	}
}

// parseBranchy is Parse as a per-bit switch, the reference the
// branch-free loop is held to: same value, same error text.
func parseBranchy(s string) (uint64, error) {
	if len(s) > 64 {
		return 0, fmt.Errorf("bitutil: bit string %q longer than 64 bits", s)
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			v |= 1 << uint(i)
		default:
			return 0, fmt.Errorf("bitutil: invalid character %q in bit string %q", s[i], s)
		}
	}
	return v, nil
}

// TestParseBadByteEveryPosition puts every non-digit byte value at every
// position of a 1..64-bit string (a second bad byte after it, where one
// fits), and requires Parse to refuse it naming the first bad byte, as
// the per-bit reference does.
func TestParseBadByteEveryPosition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 64; n++ {
		digits := make([]byte, n)
		for i := range digits {
			digits[i] = '0' + byte(rng.Intn(2))
		}
		if got, err := Parse(string(digits)); err != nil || got != MustParse(string(digits)) {
			t.Fatalf("Parse(%q) = %d, %v", digits, got, err)
		}
		for pos := 0; pos < n; pos++ {
			for c := 0; c < 256; c++ {
				if c == '0' || c == '1' {
					continue
				}
				b := append([]byte(nil), digits...)
				b[pos] = byte(c)
				if pos+1 < n {
					b[n-1] = 'x'
				}
				_, err := Parse(string(b))
				_, want := parseBranchy(string(b))
				if err == nil || err.Error() != want.Error() {
					t.Fatalf("Parse(%q) error %v, want %v", b, err, want)
				}
			}
		}
	}
}

func BenchmarkParse20(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tags := make([]string, 256)
	for i := range tags {
		tags[i] = String(rng.Uint64(), 20)
	}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := Parse(tags[i&255])
		sink += v
	}
	_ = sink
}

func TestParseStringRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		v &= (1 << 20) - 1
		return MustParse(String(v, 20)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFieldReplaceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 1000; iter++ {
		v := rng.Uint64()
		p := rng.Intn(60)
		q := p + rng.Intn(63-p)
		f := rng.Uint64()
		got := Field(ReplaceField(v, p, q, f), p, q)
		want := f & Mask(0, q-p)
		if got != want {
			t.Fatalf("Field(ReplaceField(v,%d,%d,f)) = %#x, want %#x", p, q, got, want)
		}
		// Bits outside the field are untouched.
		outside := ReplaceField(v, p, q, f) &^ Mask(p, q)
		if outside != v&^Mask(p, q) {
			t.Fatalf("ReplaceField disturbed bits outside %d/%d", p, q)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, v := range []int{1, 2, 4, 8, 1024, 1 << 30} {
		if !IsPow2(v) {
			t.Errorf("IsPow2(%d) = false", v)
		}
	}
	for _, v := range []int{0, -1, -8, 3, 6, 12, 1000} {
		if IsPow2(v) {
			t.Errorf("IsPow2(%d) = true", v)
		}
	}
}

func TestLog2(t *testing.T) {
	for i := 0; i < 30; i++ {
		if got := Log2(1 << uint(i)); got != i {
			t.Errorf("Log2(1<<%d) = %d", i, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Log2(12) did not panic")
		}
	}()
	Log2(12)
}

func TestOnesCount(t *testing.T) {
	if got := OnesCount(0b10110, 5); got != 3 {
		t.Errorf("OnesCount = %d, want 3", got)
	}
	if got := OnesCount(0b10110, 2); got != 1 {
		t.Errorf("OnesCount limited = %d, want 1", got)
	}
}
