// Package bitutil provides least-significant-bit-first bit-field helpers
// matching the notation of Rau, Fortes and Siegel's IADM state-model paper.
//
// The paper writes an integer j as the bit string j_0 j_1 ... j_{n-1} where
// j_0 is the LEAST significant bit and j_{n-1} the most significant bit, and
// uses j_{p/q} for the field of bits p..q inclusive. All helpers here follow
// that convention: bit index 0 is the LSB, and textual renderings print bit 0
// first (leftmost), exactly as the paper prints tags such as b_{0/5}=000110.
package bitutil

import (
	"fmt"
	"strings"
)

// Bit returns bit i of v (0 or 1). Bit 0 is the least significant bit.
func Bit(v uint64, i int) uint64 {
	return (v >> uint(i)) & 1
}

// SetBit returns v with bit i set to b (b must be 0 or 1).
func SetBit(v uint64, i int, b uint64) uint64 {
	if b&1 == 1 {
		return v | (1 << uint(i))
	}
	return v &^ (1 << uint(i))
}

// FlipBit returns v with bit i complemented.
func FlipBit(v uint64, i int) uint64 {
	return v ^ (1 << uint(i))
}

// Mask returns a mask with bits p..q (inclusive) set. It panics if the range
// is invalid. Mask(0, 63) is all ones.
func Mask(p, q int) uint64 {
	if p < 0 || q > 63 || p > q {
		panic(fmt.Sprintf("bitutil: invalid bit range %d/%d", p, q))
	}
	width := uint(q - p + 1)
	if width == 64 {
		return ^uint64(0)
	}
	return ((uint64(1) << width) - 1) << uint(p)
}

// Field extracts bits p..q of v (the paper's v_{p/q}), right-aligned: the
// result's bit 0 is v's bit p.
func Field(v uint64, p, q int) uint64 {
	return (v & Mask(p, q)) >> uint(p)
}

// ReplaceField returns v with bits p..q replaced by the low bits of f
// (f's bit 0 lands at v's bit p).
func ReplaceField(v uint64, p, q int, f uint64) uint64 {
	m := Mask(p, q)
	return (v &^ m) | ((f << uint(p)) & m)
}

// ComplementField returns v with bits p..q complemented (the paper's
// \overline{d}_{p/q} substitution).
func ComplementField(v uint64, p, q int) uint64 {
	return v ^ Mask(p, q)
}

// String renders the low n bits of v LSB-first, as the paper prints tags:
// String(0b110, 6) == "011000" (bit 0 first).
func String(v uint64, n int) string {
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < n; i++ {
		sb.WriteByte(byte('0' + Bit(v, i)))
	}
	return sb.String()
}

// Parse parses an LSB-first bit string (the inverse of String). Only '0' and
// '1' characters are allowed.
func Parse(s string) (uint64, error) {
	if len(s) > 64 {
		return 0, fmt.Errorf("bitutil: bit string %q longer than 64 bits", s)
	}
	// One branch-free pass: c^'0' is 0 or 1 exactly for '0' and '1', so
	// any other byte leaves a bit above bit 0 in bad, and c&1 is the
	// digit's value. Only a refused string is scanned again, for the
	// first bad byte the error names.
	var v, bad uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		bad |= uint64((c ^ '0') &^ 1)
		v |= uint64(c&1) << uint(i)
	}
	if bad != 0 {
		for i := 0; i < len(s); i++ {
			if c := s[i]; c != '0' && c != '1' {
				return 0, fmt.Errorf("bitutil: invalid character %q in bit string %q", c, s)
			}
		}
	}
	return v, nil
}

// MustParse is Parse but panics on error; for tests and fixed literals.
func MustParse(s string) uint64 {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int) bool {
	return v > 0 && v&(v-1) == 0
}

// Log2 returns log2(v) for a positive power of two, panicking otherwise.
func Log2(v int) int {
	if !IsPow2(v) {
		panic(fmt.Sprintf("bitutil: %d is not a positive power of two", v))
	}
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// OnesCount returns the number of set bits in the low n bits of v.
func OnesCount(v uint64, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		if Bit(v, i) == 1 {
			c++
		}
	}
	return c
}
