package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// LatencySubBits is the log2 of the number of sub-buckets a Latency
// splits each power of two into. A histogram shipped between processes
// carries it, so a receiver can refuse to merge another geometry.
const LatencySubBits = 5

// latencyBuckets bounds the bucket index of any uint64 value: the top
// octave (shift 58) ends at bucket 58<<5 + 63.
const latencyBuckets = (64-LatencySubBits-1)<<LatencySubBits + 2<<LatencySubBits

// Latency is a log-linear histogram of non-negative integer observations
// (the serving layer records microseconds). Values below 64 each own a
// bucket; above that, every power of two splits into 32 equal-width
// buckets, so a value's bucket floor is below it by at most 1/32 of the
// value. There is no overflow bin: the counts grow, one octave at a time,
// to span the buckets recorded, so a histogram of values from 1 µs to
// 20 ms (20,000 µs) holds 352 counts and one of a few values holds 32.
//
// N, Sum, Min and Max are exact, and so is Mean. Percentile reports the
// nearest-rank bucket's floor clamped into [Min, Max]. Merge adds counts
// bucket by bucket, so a merged histogram equals one that recorded every
// observation of both.
//
// The zero value is an empty histogram ready for use.
type Latency struct {
	n, sum   uint64
	min, max uint64
	lo       int      // bucket index of counts[0], a multiple of latencyOctave
	counts   []uint64 // whole octaves spanning the buckets recorded
}

// latencyOctave is the bucket count of one power of two.
const latencyOctave = 1 << LatencySubBits

// latencyBucket returns the index of the bucket holding v.
func latencyBucket(v uint64) int {
	if v < 2<<LatencySubBits {
		return int(v)
	}
	shift := bits.Len64(v) - LatencySubBits - 1
	return shift<<LatencySubBits + int(v>>uint(shift))
}

// latencyFloor returns the smallest value bucket b holds.
func latencyFloor(b int) uint64 {
	if b < 2<<LatencySubBits {
		return uint64(b)
	}
	shift := b>>LatencySubBits - 1
	return uint64(b-shift<<LatencySubBits) << uint(shift)
}

// cover extends the counts, in whole octaves, to span buckets first
// through last.
func (l *Latency) cover(first, last int) {
	lo, hi := first, last+1
	if len(l.counts) > 0 {
		lo, hi = min(l.lo, lo), max(l.lo+len(l.counts), hi)
	}
	lo &^= latencyOctave - 1
	hi = ((hi - 1) | (latencyOctave - 1)) + 1
	c := make([]uint64, hi-lo)
	if len(l.counts) > 0 {
		copy(c[l.lo-lo:], l.counts)
	}
	l.lo, l.counts = lo, c
}

// Add records one observation.
func (l *Latency) Add(v uint64) {
	b := latencyBucket(v)
	if uint(b-l.lo) >= uint(len(l.counts)) {
		l.cover(b, b)
	}
	l.counts[b-l.lo]++
	if l.n == 0 || v < l.min {
		l.min = v
	}
	if v > l.max {
		l.max = v
	}
	l.n++
	l.sum += v
}

// Merge folds o's observations into l, as if each had been recorded into
// l. o is unchanged.
func (l *Latency) Merge(o *Latency) {
	if o.n == 0 {
		return
	}
	if o.lo < l.lo || o.lo+len(o.counts) > l.lo+len(l.counts) {
		l.cover(o.lo, o.lo+len(o.counts)-1)
	}
	off := o.lo - l.lo
	for k, c := range o.counts {
		l.counts[off+k] += c
	}
	if l.n == 0 || o.min < l.min {
		l.min = o.min
	}
	if o.max > l.max {
		l.max = o.max
	}
	l.n += o.n
	l.sum += o.sum
}

// N returns the number of observations.
func (l *Latency) N() uint64 { return l.n }

// Sum returns the sum of the observations.
func (l *Latency) Sum() uint64 { return l.sum }

// Min returns the smallest observation, or 0 for an empty histogram.
func (l *Latency) Min() uint64 { return l.min }

// Max returns the largest observation, or 0 for an empty histogram.
func (l *Latency) Max() uint64 { return l.max }

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (l *Latency) Mean() float64 {
	if l.n == 0 {
		return 0
	}
	return float64(l.sum) / float64(l.n)
}

// Percentile returns the p-th percentile by nearest rank: the floor of the
// bucket holding the ceil(p/100*N)-th smallest observation, clamped into
// [Min, Max]. p <= 0 gives Min, p >= 100 gives Max and an empty histogram
// gives 0.
func (l *Latency) Percentile(p float64) uint64 {
	if l.n == 0 {
		return 0
	}
	if p <= 0 {
		return l.min
	}
	if p >= 100 {
		return l.max
	}
	rank := max(uint64(math.Ceil(p/100*float64(l.n))), 1)
	var cum uint64
	for k, c := range l.counts {
		cum += c
		if cum >= rank {
			return min(max(latencyFloor(l.lo+k), l.min), l.max)
		}
	}
	return l.max
}

// Buckets appends the histogram's nonzero buckets to dst as (index,
// count) pairs in index order, the sparse form a histogram travels in.
func (l *Latency) Buckets(dst [][2]uint64) [][2]uint64 {
	for k, c := range l.counts {
		if c > 0 {
			dst = append(dst, [2]uint64{uint64(l.lo + k), c})
		}
	}
	return dst
}

// LatencyFromBuckets rebuilds a histogram from its sparse buckets (as
// Buckets wrote them) and its exact sum, min and max. It rejects a bucket
// index no value can reach, so input from another process cannot make it
// allocate without bound.
func LatencyFromBuckets(buckets [][2]uint64, sum, lo, hi uint64) (Latency, error) {
	var l Latency
	for _, bc := range buckets {
		if bc[0] >= latencyBuckets {
			return Latency{}, fmt.Errorf("stats: latency bucket %d out of range", bc[0])
		}
		if bc[1] == 0 {
			continue
		}
		b := int(bc[0])
		if uint(b-l.lo) >= uint(len(l.counts)) {
			l.cover(b, b)
		}
		l.counts[b-l.lo] += bc[1]
		l.n += bc[1]
	}
	if l.n > 0 {
		l.sum, l.min, l.max = sum, lo, hi
	}
	return l, nil
}
