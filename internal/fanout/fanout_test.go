package fanout

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRowsCoversEveryRowOnce: every row is visited exactly once for a wide
// range of (n, workers) shapes, including workers > n and workers <= 0.
func TestRowsCoversEveryRowOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 7, 16, 1001} {
			visits := make([]int32, n)
			Rows(n, workers, func(lo, hi int) {
				for r := lo; r < hi; r++ {
					atomic.AddInt32(&visits[r], 1)
				}
			})
			for r, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d workers=%d: row %d visited %d times", n, workers, r, v)
				}
			}
		}
	}
}

// TestRowsDeterministicMerge: a per-row computation merged in row order is
// bit-identical for every worker count.
func TestRowsDeterministicMerge(t *testing.T) {
	const n = 257
	compute := func(workers int) float64 {
		rows := make([]float64, n)
		Rows(n, workers, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				rows[r] = 1.0 / float64(r+1)
			}
		})
		sum := 0.0
		for _, v := range rows {
			sum += v
		}
		return sum
	}
	want := compute(1)
	for _, workers := range []int{2, 3, 5, 8, 64} {
		if got := compute(workers); got != want {
			t.Fatalf("workers=%d: sum %v, want %v (bit-identical)", workers, got, want)
		}
	}
}

// TestRowsShardsAreContiguous: shard boundaries passed to fn tile the row
// space in order with no gaps (the invariant verifyShards checks under
// simcheck; asserted here unconditionally via the observed calls).
func TestRowsShardsAreContiguous(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7} {
		var mu chan struct{} = make(chan struct{}, 1)
		mu <- struct{}{}
		var spans [][2]int
		Rows(100, workers, func(lo, hi int) {
			<-mu
			spans = append(spans, [2]int{lo, hi})
			mu <- struct{}{}
		})
		covered := make([]bool, 100)
		for _, sp := range spans {
			for r := sp[0]; r < sp[1]; r++ {
				if covered[r] {
					t.Fatalf("workers=%d: row %d in two shards", workers, r)
				}
				covered[r] = true
			}
		}
		for r, ok := range covered {
			if !ok {
				t.Fatalf("workers=%d: row %d uncovered", workers, r)
			}
		}
	}
}

// TestMapOrderAndFirstError: results come back in index order for every
// worker bound (including <= 0 and more workers than tasks), and on
// failure the error is the one of the lowest failing index, even when
// higher indices fail first in time.
func TestMapOrderAndFirstError(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		for _, workers := range []int{-1, 0, 1, 3, 8} {
			got, err := Map(n, workers, func(i int) (int, error) { return i * i, nil })
			if err != nil || len(got) != n {
				t.Fatalf("n=%d workers=%d: %v, %d results", n, workers, err, len(got))
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("n=%d workers=%d: result %d = %d, want %d", n, workers, i, v, i*i)
				}
			}
			var calls atomic.Int32
			got, err = Map(n, workers, func(i int) (int, error) {
				calls.Add(1)
				if i >= 2 && i%2 == 0 {
					return 0, fmt.Errorf("task %d failed", i)
				}
				return i, nil
			})
			want := ""
			if n > 2 {
				want = "task 2 failed"
			}
			if fmt.Sprint(err) != want && !(want == "" && err == nil) {
				t.Fatalf("n=%d workers=%d: error %v, want %q", n, workers, err, want)
			}
			if err != nil && got != nil {
				t.Fatalf("n=%d workers=%d: results %v returned with an error", n, workers, got)
			}
			if int(calls.Load()) != n {
				t.Fatalf("n=%d workers=%d: %d calls, want every index once", n, workers, calls.Load())
			}
		}
	}
}
