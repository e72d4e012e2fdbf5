package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestStreamMatchesSample checks every summary statistic against the
// exact Sample implementation on the same data. With integer data and
// unit-width buckets the percentiles must agree exactly; moments agree up
// to floating-point rounding.
func TestStreamMatchesSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sm Sample
	st := NewStream(1, 256)
	for i := 0; i < 10000; i++ {
		x := rng.Intn(200)
		sm.AddInt(x)
		st.AddInt(x)
	}
	if st.N() != sm.N() {
		t.Fatalf("N: stream %d, sample %d", st.N(), sm.N())
	}
	checks := []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"mean", st.Mean(), sm.Mean(), 1e-12},
		{"variance", st.Variance(), sm.Variance(), 1e-9},
		{"stddev", st.StdDev(), sm.StdDev(), 1e-9},
		{"min", st.Min(), sm.Min(), 0},
		{"max", st.Max(), sm.Max(), 0},
		{"p25", st.Percentile(25), sm.Percentile(25), 0},
		{"p50", st.Percentile(50), sm.Percentile(50), 0},
		{"p90", st.Percentile(90), sm.Percentile(90), 0},
		{"p99", st.Percentile(99), sm.Percentile(99), 0},
		{"p0", st.Percentile(0), sm.Percentile(0), 0},
		{"p100", st.Percentile(100), sm.Percentile(100), 0},
	}
	for _, c := range checks {
		if !almostEqual(c.got, c.want, c.tol) {
			t.Errorf("%s: stream %v, sample %v", c.name, c.got, c.want)
		}
	}
	if st.String() != sm.String() {
		t.Errorf("String:\nstream %s\nsample %s", st.String(), sm.String())
	}
}

// TestStreamZeroValue checks that the zero value works with the default
// geometry.
func TestStreamZeroValue(t *testing.T) {
	var st Stream
	if st.N() != 0 || st.Mean() != 0 || st.StdDev() != 0 || st.Percentile(50) != 0 {
		t.Error("empty stream must report zeros")
	}
	st.Add(3)
	st.Add(5)
	if st.N() != 2 || st.Mean() != 4 || st.Min() != 3 || st.Max() != 5 {
		t.Errorf("zero-value stream broken: %+v", st)
	}
	var st2 Stream
	st2.AddN(7, 3)
	if st2.N() != 3 || st2.Mean() != 7 || st2.Percentile(50) != 7 {
		t.Errorf("zero-value AddN broken: %+v", st2)
	}
}

// TestStreamAddN checks that bulk ingestion is equivalent to repeated Add.
func TestStreamAddN(t *testing.T) {
	a := NewStream(1, 64)
	b := NewStream(1, 64)
	data := map[float64]int{0: 5, 3: 2, 17: 7, 63: 1}
	for x, c := range data {
		a.AddN(x, c)
		for i := 0; i < c; i++ {
			b.Add(x)
		}
	}
	for _, p := range []float64{0, 10, 50, 90, 100} {
		if a.Percentile(p) != b.Percentile(p) {
			t.Errorf("p%v: AddN %v, Add %v", p, a.Percentile(p), b.Percentile(p))
		}
	}
	if !almostEqual(a.Mean(), b.Mean(), 1e-12) || !almostEqual(a.Variance(), b.Variance(), 1e-12) {
		t.Errorf("moments differ: AddN (%v, %v) vs Add (%v, %v)", a.Mean(), a.Variance(), b.Mean(), b.Variance())
	}
	a.AddN(5, 0)
	a.AddN(5, -3)
	if a.N() != b.N() {
		t.Error("AddN with count <= 0 must be a no-op")
	}
}

// TestStreamOverflow checks the overflow bin: values beyond the histogram
// range keep exact moments and min/max, and rank into Max for percentiles.
func TestStreamOverflow(t *testing.T) {
	st := NewStream(1, 4) // buckets cover [0,4); anything >= 4 overflows
	for _, x := range []float64{1, 2, 100, 200} {
		st.Add(x)
	}
	if st.Max() != 200 || st.Min() != 1 {
		t.Errorf("min/max: %v/%v", st.Min(), st.Max())
	}
	if got := st.Percentile(99); got != 200 {
		t.Errorf("p99 in overflow region: %v, want 200 (Max)", got)
	}
	if got := st.Percentile(25); got != 1 {
		t.Errorf("p25: %v, want 1", got)
	}
	if !almostEqual(st.Mean(), 75.75, 1e-12) {
		t.Errorf("mean: %v, want 75.75", st.Mean())
	}
	// Negative values clamp into the first bucket.
	st2 := NewStream(1, 4)
	st2.Add(-3)
	st2.Add(2)
	if st2.Min() != -3 {
		t.Errorf("min: %v", st2.Min())
	}
	if got := st2.Percentile(10); got != -3 {
		t.Errorf("p10 with negative data: %v, want -3 (min)", got)
	}
}

// TestStreamReset checks that Reset clears state but keeps the geometry.
func TestStreamReset(t *testing.T) {
	st := NewStream(0.5, 8)
	for i := 0; i < 10; i++ {
		st.Add(float64(i) / 4)
	}
	st.Reset()
	if st.N() != 0 || st.Mean() != 0 || st.Max() != 0 || st.Percentile(50) != 0 {
		t.Errorf("after reset: %+v", st)
	}
	st.Add(1.0)
	if st.N() != 1 || st.Percentile(50) != 1.0 {
		t.Errorf("stream unusable after reset: %+v", st)
	}
}

// TestStreamClone: a clone equals its source and shares no storage with
// it, so resetting and refilling the source leaves the clone intact.
func TestStreamClone(t *testing.T) {
	st := NewStream(1, 8)
	for _, x := range []float64{1, 2, 2, 5, 9} {
		st.Add(x)
	}
	c := st.Clone()
	if !reflect.DeepEqual(c, st) {
		t.Fatalf("clone %+v differs from %+v", c, st)
	}
	want := c.String()
	st.Reset()
	st.Add(3)
	if got := c.String(); got != want {
		t.Errorf("clone changed with its source: %s, want %s", got, want)
	}
}

// TestStreamWidth checks non-unit bucket widths quantize percentiles to
// the bucket grid while moments stay exact.
func TestStreamWidth(t *testing.T) {
	st := NewStream(0.25, 8) // covers [0, 2)
	for _, x := range []float64{0.1, 0.3, 0.8, 1.9} {
		st.Add(x)
	}
	if got := st.Percentile(50); got != 0.25 {
		t.Errorf("p50: %v, want 0.25 (bucket floor of 0.3)", got)
	}
	if !almostEqual(st.Mean(), 0.775, 1e-12) {
		t.Errorf("mean: %v", st.Mean())
	}
}

// TestStreamConstantData checks variance does not go negative on
// near-constant data (floating-point cancellation).
func TestStreamConstantData(t *testing.T) {
	st := NewStream(1, 16)
	for i := 0; i < 1000; i++ {
		st.Add(7)
	}
	if v := st.Variance(); v != 0 {
		t.Errorf("variance of constant data: %v", v)
	}
	if sd := st.StdDev(); sd != 0 || math.IsNaN(sd) {
		t.Errorf("stddev of constant data: %v", sd)
	}
}

// TestStreamCatastrophicCancellation is the regression test for the
// naive sumsq - sum²/n variance formula: at mean 1e9 with unit spread,
// sumsq and sum²/n agree to ~18 digits and their float64 difference is
// garbage (the old code clamped the often-negative result to 0). The
// running-moment (Welford) update keeps full precision.
func TestStreamCatastrophicCancellation(t *testing.T) {
	st := NewStream(1, 8)
	// 3000 observations at 1e9-1, 1e9, 1e9+1: exact sample variance is
	// 2000*1/2999 * ... computed below against the two-pass Sample.
	var sm Sample
	for i := 0; i < 1000; i++ {
		for _, x := range []float64{1e9 - 1, 1e9, 1e9 + 1} {
			st.Add(x)
			sm.Add(x)
		}
	}
	want := sm.Variance() // two-pass, numerically safe: 2/3 * 3000/2999
	if math.Abs(want-2.0/3.0) > 1e-3 {
		t.Fatalf("two-pass reference variance %v implausible", want)
	}
	// Welford at mean 1e9 agrees with the two-pass reference to ~1e-8
	// relative; the cancelled formula was off by its full magnitude.
	if got := st.Variance(); !almostEqual(got, want, 1e-6) {
		t.Errorf("variance at mean 1e9: got %v, want %v (catastrophic cancellation)", got, want)
	}
	if got := st.StdDev(); !almostEqual(got, math.Sqrt(want), 1e-6) {
		t.Errorf("stddev at mean 1e9: got %v, want %v", got, math.Sqrt(want))
	}
	if !almostEqual(st.Mean(), 1e9, 1e-12) {
		t.Errorf("mean: got %v, want 1e9", st.Mean())
	}
}

// TestStreamAddNLargeMeanMatchesAdd checks AddN against repeated Add in
// the regime the cancellation bug lived in: bulk counts at a large mean.
func TestStreamAddNLargeMeanMatchesAdd(t *testing.T) {
	a := NewStream(1, 8)
	b := NewStream(1, 8)
	data := []struct {
		x float64
		c int
	}{{1e9 - 1, 700}, {1e9, 1600}, {1e9 + 1, 700}}
	for _, d := range data {
		a.AddN(d.x, d.c)
		for i := 0; i < d.c; i++ {
			b.Add(d.x)
		}
	}
	if a.N() != b.N() {
		t.Fatalf("N: AddN %d, Add %d", a.N(), b.N())
	}
	if !almostEqual(a.Mean(), b.Mean(), 1e-12) {
		t.Errorf("mean: AddN %v, Add %v", a.Mean(), b.Mean())
	}
	// At mean 1e9 the running mean carries ~1e-7 of representation error
	// into each M2 update, so the two ingestion orders agree to ~1e-6
	// relative — sixteen orders of magnitude better than the cancelled
	// sum-of-squares formula, which returned 0 here.
	if !almostEqual(a.Variance(), b.Variance(), 1e-5) {
		t.Errorf("variance: AddN %v, Add %v", a.Variance(), b.Variance())
	}
	if a.Variance() <= 0 {
		t.Errorf("AddN variance %v lost to cancellation", a.Variance())
	}
	if a.Min() != b.Min() || a.Max() != b.Max() {
		t.Errorf("min/max differ: (%v,%v) vs (%v,%v)", a.Min(), a.Max(), b.Min(), b.Max())
	}
}

// TestStreamPercentileUnderflow pins the underflow-bucket geometry:
// negative observations are counted in bucket 0, and any percentile rank
// landing there reports the true minimum, not the bucket floor 0.
func TestStreamPercentileUnderflow(t *testing.T) {
	st := NewStream(1, 8)
	for _, x := range []float64{-7.5, -2, 0.5, 3} {
		st.Add(x)
	}
	// Ranks 1 and 2 land in bucket 0 (holding -7.5, -2 and 0.5): the
	// bucket floor would be 0 but the reported value must clamp to min.
	if got := st.Percentile(10); got != -7.5 {
		t.Errorf("p10: %v, want -7.5 (min)", got)
	}
	if got := st.Percentile(50); got != -7.5 {
		t.Errorf("p50 inside underflow bucket: %v, want -7.5 (min)", got)
	}
	if got := st.Percentile(100); got != 3 {
		t.Errorf("p100: %v, want 3", got)
	}
	// AddN takes the same underflow path.
	st2 := NewStream(1, 4)
	st2.AddN(-3, 5)
	st2.AddN(2, 1)
	if got := st2.Percentile(50); got != -3 {
		t.Errorf("AddN p50 underflow: %v, want -3", got)
	}
	if st2.Min() != -3 || st2.Max() != 2 {
		t.Errorf("AddN min/max: %v/%v", st2.Min(), st2.Max())
	}
}

// TestStreamPercentileOverflowRanks pins the overflow-bin geometry: every
// rank that falls past the histogram's last bucket reports Max, for both
// Add and AddN ingestion.
func TestStreamPercentileOverflowRanks(t *testing.T) {
	st := NewStream(1, 4) // in-range: [0,4)
	st.AddN(1, 2)
	st.AddN(1000, 6) // all six land in the overflow bin
	if st.Max() != 1000 {
		t.Fatalf("max: %v", st.Max())
	}
	for _, p := range []float64{30, 50, 90, 99} {
		if got := st.Percentile(p); got != 1000 {
			t.Errorf("p%v: %v, want 1000 (Max for overflow ranks)", p, got)
		}
	}
	if got := st.Percentile(20); got != 1 {
		t.Errorf("p20: %v, want 1 (still in range)", got)
	}
}

// TestNewStreamPanics checks geometry validation.
func TestNewStreamPanics(t *testing.T) {
	for _, tc := range []struct {
		name    string
		width   float64
		buckets int
	}{
		{"zero width", 0, 4},
		{"negative width", -1, 4},
		{"zero buckets", 1, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", tc.name)
				}
			}()
			NewStream(tc.width, tc.buckets)
		}()
	}
}

// TestStreamMerge checks that merging split streams reproduces the
// single-stream statistics: counts, min/max and percentiles exactly,
// moments up to floating-point rounding (Chan's pairwise formula).
func TestStreamMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	whole := NewStream(1, 256)
	parts := []Stream{NewStream(1, 256), NewStream(1, 256), NewStream(1, 256)}
	for i := 0; i < 9000; i++ {
		x := rng.Intn(300) // 256..299 exercise the overflow bin
		whole.AddInt(x)
		parts[i%len(parts)].AddInt(x)
	}
	var merged Stream // zero value: adopts geometry from the first merge
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged.N() != whole.N() {
		t.Fatalf("N: merged %d, whole %d", merged.N(), whole.N())
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Errorf("min/max: merged %v/%v, whole %v/%v", merged.Min(), merged.Max(), whole.Min(), whole.Max())
	}
	for _, p := range []float64{0, 25, 50, 90, 99, 100} {
		if merged.Percentile(p) != whole.Percentile(p) {
			t.Errorf("p%v: merged %v, whole %v", p, merged.Percentile(p), whole.Percentile(p))
		}
	}
	if !almostEqual(merged.Mean(), whole.Mean(), 1e-12) {
		t.Errorf("mean: merged %v, whole %v", merged.Mean(), whole.Mean())
	}
	if !almostEqual(merged.Variance(), whole.Variance(), 1e-9) {
		t.Errorf("variance: merged %v, whole %v", merged.Variance(), whole.Variance())
	}
}

// TestStreamMergeEdges pins the empty-stream cases and the geometry check.
func TestStreamMergeEdges(t *testing.T) {
	a := NewStream(1, 16)
	b := NewStream(1, 16)
	a.AddInt(3)
	a.Merge(&b) // merging an empty stream is a no-op
	if a.N() != 1 || a.Mean() != 3 {
		t.Fatalf("merge of empty stream changed state: %v", a.String())
	}
	b.Merge(&a) // merging into an empty stream copies it
	if b.N() != 1 || b.Mean() != 3 || b.Min() != 3 || b.Max() != 3 {
		t.Fatalf("merge into empty stream wrong: %v", b.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched geometries did not panic")
		}
	}()
	c := NewStream(2, 16)
	c.AddInt(1)
	a.Merge(&c)
}
