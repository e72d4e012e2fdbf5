package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// checkLatencyBucket pins the geometry for one value: v lies in its
// bucket's range, the floor is within 1/32 of v, and values below 64 are
// exact.
func checkLatencyBucket(t *testing.T, v uint64) {
	t.Helper()
	b := latencyBucket(v)
	lo, hi := latencyFloor(b), latencyFloor(b+1)
	if lo > v || v >= hi {
		t.Fatalf("v=%d: bucket %d spans [%d, %d)", v, b, lo, hi)
	}
	if v < 64 && lo != v {
		t.Fatalf("v=%d: floor %d, want exact below 64", v, lo)
	}
	if v > 0 && float64(v-lo)/float64(v) > 1.0/32 {
		t.Fatalf("v=%d: floor %d is more than 1/32 below", v, lo)
	}
}

func TestLatencyBucketBounds(t *testing.T) {
	for v := uint64(0); v < 1<<16; v++ {
		checkLatencyBucket(t, v)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		checkLatencyBucket(t, uint64(rng.Int63n(1<<40)))
	}
	// The top of the range has buckets too: there is no overflow bin.
	for _, v := range []uint64{1<<40 - 1, 1 << 40, math.MaxUint64 - 1} {
		if b := latencyBucket(v); b >= latencyBuckets || latencyFloor(b) > v {
			t.Fatalf("v=%d: bucket %d, floor %d", v, b, latencyFloor(b))
		}
	}
	if b := latencyBucket(math.MaxUint64); b != latencyBuckets-1 {
		t.Fatalf("MaxUint64 in bucket %d, want %d", b, latencyBuckets-1)
	}
}

// TestLatencyFootprint pins the on-demand growth: counts span whole
// octaves from the smallest value's to the largest's.
func TestLatencyFootprint(t *testing.T) {
	for _, c := range []struct {
		min, max uint64
		want     int
	}{
		{1, 1, 32}, {1, 63, 64}, {1, 20000, 352}, {0, 1<<40 - 1, 1152},
		{20000, 20000, 32}, {3000, 20000, 128}, {20000, 1<<40 - 1, 832},
	} {
		var l Latency
		l.Add(c.max)
		l.Add(c.min)
		if len(l.counts) != c.want {
			t.Errorf("[%d, %d]: %d counts, want %d", c.min, c.max, len(l.counts), c.want)
		}
	}
}

// latencySamples draws n values spread over several octaves.
func latencySamples(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(rng.Int63n(1 << uint(rng.Intn(25))))
	}
	return out
}

func recordLatency(vs []uint64) Latency {
	var l Latency
	for _, v := range vs {
		l.Add(v)
	}
	return l
}

// TestLatencyPercentile compares every reported percentile against the
// exact nearest rank of the sorted samples: the report is the floor of
// the exact value's bucket, clamped into [min, max].
func TestLatencyPercentile(t *testing.T) {
	var empty Latency
	if empty.Percentile(50) != 0 || empty.Mean() != 0 || empty.Max() != 0 {
		t.Fatal("empty histogram reports nonzero")
	}
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 7, 100, 5000} {
		vs := latencySamples(rng, n)
		l := recordLatency(vs)
		sorted := slices.Clone(vs)
		slices.Sort(sorted)
		var sum uint64
		for _, v := range vs {
			sum += v
		}
		if l.N() != uint64(n) || l.Sum() != sum || l.Min() != sorted[0] || l.Max() != sorted[n-1] {
			t.Fatalf("n=%d: N=%d sum=%d min=%d max=%d", n, l.N(), l.Sum(), l.Min(), l.Max())
		}
		if l.Mean() != float64(sum)/float64(n) {
			t.Fatalf("n=%d: mean %v", n, l.Mean())
		}
		if l.Percentile(0) != sorted[0] || l.Percentile(-1) != sorted[0] ||
			l.Percentile(100) != sorted[n-1] || l.Percentile(101) != sorted[n-1] {
			t.Fatalf("n=%d: p0/p100 are not min/max", n)
		}
		for _, p := range []float64{0.1, 1, 10, 25, 50, 75, 90, 99, 99.9} {
			rank := int(math.Ceil(p / 100 * float64(n)))
			exact := sorted[max(rank, 1)-1]
			got := l.Percentile(p)
			if got > exact || latencyBucket(got) != latencyBucket(exact) {
				t.Fatalf("n=%d p%v: got %d, exact %d (buckets %d, %d)",
					n, p, got, exact, latencyBucket(got), latencyBucket(exact))
			}
			if got < sorted[0] || got > sorted[n-1] {
				t.Fatalf("n=%d p%v: got %d outside [%d, %d]", n, p, got, sorted[0], sorted[n-1])
			}
		}
	}
}

// checkLatencyMerge requires Merge(A, B) to equal recording A then B, in
// every bucket, count, sum, extreme and percentile, and the sparse form to
// round-trip.
func checkLatencyMerge(t *testing.T, a, b []uint64) {
	t.Helper()
	want := recordLatency(append(slices.Clone(a), b...))
	got := recordLatency(a)
	lb := recordLatency(b)
	got.Merge(&lb)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge of %d+%d samples:\n got %+v\nwant %+v", len(a), len(b), got, want)
	}
	for _, p := range []float64{0, 50, 90, 99, 100} {
		if got.Percentile(p) != want.Percentile(p) {
			t.Fatalf("p%v: merged %d, sequential %d", p, got.Percentile(p), want.Percentile(p))
		}
	}
	back, err := LatencyFromBuckets(got.Buckets(nil), got.Sum(), got.Min(), got.Max())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("sparse round trip:\n got %+v\nwant %+v", back, want)
	}
}

func TestLatencyMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checkLatencyMerge(t, nil, nil)
	checkLatencyMerge(t, latencySamples(rng, 10), nil)
	checkLatencyMerge(t, nil, latencySamples(rng, 10))
	for i := 0; i < 50; i++ {
		checkLatencyMerge(t, latencySamples(rng, rng.Intn(500)), latencySamples(rng, rng.Intn(500)))
	}
	// Disjoint ranges, either order, so one side grows the other.
	checkLatencyMerge(t, []uint64{1, 2, 3}, []uint64{1 << 30, 1 << 35})
	checkLatencyMerge(t, []uint64{1 << 30, 1 << 35}, []uint64{1, 2, 3})
}

func TestLatencyFromBucketsRejectsOutOfRange(t *testing.T) {
	if _, err := LatencyFromBuckets([][2]uint64{{latencyBuckets, 1}}, 0, 0, 0); err == nil {
		t.Fatal("accepted a bucket index no value reaches")
	}
	l, err := LatencyFromBuckets(nil, 7, 1, 9)
	if err != nil || !reflect.DeepEqual(l, Latency{}) {
		t.Fatalf("empty buckets: %+v, %v", l, err)
	}
}

// FuzzLatency: an arbitrary sample list, split at an arbitrary point and
// merged, equals the list recorded in sequence.
func FuzzLatency(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 200, 0, 0, 0, 0, 0, 0, 0}, uint16(1))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<40), math.MaxUint64), uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, split uint16) {
		vs := make([]uint64, 0, len(raw)/8)
		for len(raw) >= 8 {
			v := binary.LittleEndian.Uint64(raw)
			// Shift by the low byte so small values are as likely as large.
			vs = append(vs, v>>(v&63))
			raw = raw[8:]
		}
		k := 0
		if len(vs) > 0 {
			k = int(split) % (len(vs) + 1)
		}
		checkLatencyMerge(t, vs[:k], vs[k:])
	})
}
