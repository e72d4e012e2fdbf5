package stats

import (
	"fmt"
	"math"
)

// Stream accumulates observations in O(1) memory: streaming moments
// (Welford's algorithm) for mean/variance plus a fixed-width histogram for
// percentiles. It replaces Sample in hot paths where retaining one float64
// per observation (e.g. per delivered packet over millions of simulated
// cycles) is too expensive.
//
// Percentiles are computed by nearest rank over the histogram buckets and
// are exact whenever the observations are integers and the bucket width is
// 1 (the latency case); otherwise they are accurate to one bucket width.
// Observations at or above width*len(buckets) are counted in an overflow
// bin and reported as Max by Percentile.
//
// The zero value is ready for use with a default geometry (unit-width
// buckets); use NewStream to pick the geometry explicitly. A Stream can be
// reused across runs via Reset, which keeps the bucket storage.
type Stream struct {
	n        int
	mean, m2 float64 // running mean and sum of squared deviations (Welford)
	min, max float64
	width    float64
	invWidth float64
	counts   []int
	overflow int
}

// defaultStreamBuckets is the histogram size a zero-value Stream allocates
// on first Add.
const defaultStreamBuckets = 1024

// NewStream returns a Stream whose histogram has the given bucket width
// and bucket count. Width must be positive and buckets at least 1.
func NewStream(width float64, buckets int) Stream {
	if width <= 0 {
		panic(fmt.Sprintf("stats: stream bucket width %v <= 0", width))
	}
	if buckets < 1 {
		panic(fmt.Sprintf("stats: stream bucket count %d < 1", buckets))
	}
	return Stream{width: width, invWidth: 1 / width, counts: make([]int, buckets)}
}

// Reset clears all accumulated state, retaining the histogram storage.
func (s *Stream) Reset() {
	s.n, s.overflow = 0, 0
	s.mean, s.m2, s.min, s.max = 0, 0, 0, 0
	for i := range s.counts {
		s.counts[i] = 0
	}
}

// Clone returns a copy of s that shares no storage with it.
func (s *Stream) Clone() Stream {
	c := *s
	c.counts = append([]int(nil), s.counts...)
	return c
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	if s.counts == nil {
		s.width, s.invWidth = 1, 1
		s.counts = make([]int, defaultStreamBuckets)
	}
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	b := int(x * s.invWidth)
	switch {
	case b < 0:
		s.counts[0]++
	case b >= len(s.counts):
		s.overflow++
	default:
		s.counts[b]++
	}
}

// AddInt records one integer observation.
func (s *Stream) AddInt(x int) { s.Add(float64(x)) }

// AddN records count observations all equal to x. It lets a caller that
// already aggregated its data into a histogram (e.g. the simulator's
// per-cycle latency counts) transfer it in one pass instead of one Add
// per observation.
func (s *Stream) AddN(x float64, count int) {
	if count <= 0 {
		return
	}
	if s.counts == nil {
		s.width, s.invWidth = 1, 1
		s.counts = make([]int, defaultStreamBuckets)
	}
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	// Chan et al. parallel update: merge a batch of `count` identical
	// observations (batch mean x, batch M2 = 0) into the running moments.
	prev := float64(s.n)
	c := float64(count)
	s.n += count
	delta := x - s.mean
	s.mean += delta * c / float64(s.n)
	s.m2 += delta * delta * prev * c / float64(s.n)
	b := int(x * s.invWidth)
	switch {
	case b < 0:
		s.counts[0] += count
	case b >= len(s.counts):
		s.overflow += count
	default:
		s.counts[b] += count
	}
}

// Merge folds another stream's observations into s, as if every
// observation recorded into o had been recorded into s instead. Moments
// combine by Chan et al.'s pairwise parallel formula and histograms by
// bucket-wise addition, so merging per-worker streams costs O(buckets)
// regardless of observation counts. Both streams must share the same
// histogram geometry (width and bucket count); o is unchanged.
//
// Note that while counts, min/max and percentiles merge exactly, the
// floating-point mean/M2 of a merged stream can differ in the last ulp
// from the sequentially-accumulated ones — callers that need bit-identical
// metrics across worker counts (the simulator's sharded engine) must
// merge integer histograms instead and fold once at the end.
func (s *Stream) Merge(o *Stream) {
	if o.n == 0 {
		return
	}
	if s.counts == nil && s.n == 0 {
		// Adopt o's geometry: an untouched zero-value s merges like an
		// empty stream of the same shape.
		s.width, s.invWidth = o.width, o.invWidth
		s.counts = make([]int, len(o.counts))
	}
	if s.width != o.width || len(s.counts) != len(o.counts) {
		panic(fmt.Sprintf("stats: merging streams with different geometries: width %v/%d buckets vs width %v/%d buckets",
			s.width, len(s.counts), o.width, len(o.counts)))
	}
	if s.n == 0 {
		s.min, s.max = o.min, o.max
	} else {
		if o.min < s.min {
			s.min = o.min
		}
		if o.max > s.max {
			s.max = o.max
		}
	}
	prev := float64(s.n)
	c := float64(o.n)
	s.n += o.n
	delta := o.mean - s.mean
	s.mean += delta * c / float64(s.n)
	s.m2 += o.m2 + delta*delta*prev*c/float64(s.n)
	for b, cnt := range o.counts {
		s.counts[b] += cnt
	}
	s.overflow += o.overflow
}

// N returns the number of observations.
func (s *Stream) N() int { return s.n }

// Mean returns the arithmetic mean, or 0 for an empty stream.
func (s *Stream) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance, or 0 for fewer than two
// observations. The running M2 accumulator is a sum of nonnegative terms,
// so unlike the textbook sum-of-squares formula it cannot cancel into a
// negative value on near-constant data with a large mean.
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or 0 for an empty stream.
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty stream.
func (s *Stream) Max() float64 { return s.max }

// Percentile returns the p-th percentile (0 <= p <= 100) by nearest rank
// over the histogram, or 0 for an empty stream. Ranks that fall in the
// overflow bin report Max.
func (s *Stream) Percentile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	rank := int(math.Ceil(p / 100 * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	cum := 0
	for b, c := range s.counts {
		cum += c
		if cum >= rank {
			// Report the bucket's floor, clamped into the observed
			// range. Bucket 0 also holds underflowing (negative)
			// observations, so its effective floor is the true min.
			v := float64(b) * s.width
			if b == 0 && s.min < v {
				v = s.min
			}
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}

// String renders a one-line summary in the same format as Sample.String.
func (s *Stream) String() string {
	return fmt.Sprintf("n=%d mean=%.3f sd=%.3f min=%g p50=%g p99=%g max=%g",
		s.N(), s.Mean(), s.StdDev(), s.Min(), s.Percentile(50), s.Percentile(99), s.Max())
}
