// Package fanout holds the repository's parallel machinery, each piece
// once: Rows, the contiguous-shard sweep of the all-pairs analyses; Map,
// the index-ordered dynamic pool that runs independent tasks (simulation
// replicas, experiment rows); and Pool, the persistent phase pool both
// simulation engines step one run's cycles with. Simcheck, set by the
// simcheck build tag, arms the invariant checks of every package built
// on them.
//
// Determinism comes from the shapes, not from scheduling: every row or
// index belongs to exactly one worker, shard boundaries depend only on
// (n, workers), and workers write only to their own rows or result slots
// — so a result is bit-identical for every worker count, including 1.
package fanout

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Rows partitions 0..n-1 into at most `workers` contiguous shards and runs
// fn(lo, hi) for each shard [lo, hi) on its own goroutine, returning when
// all shards complete. workers <= 0 means GOMAXPROCS. fn must confine its
// writes to rows lo..hi-1 (or otherwise synchronize); reads of shared
// immutable inputs need no synchronization.
func Rows(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(n, workers)
	if workers == 1 {
		fn(0, n)
		return
	}
	shards := make([][2]int, workers)
	for w := 0; w < workers; w++ {
		shards[w] = [2]int{w * n / workers, (w + 1) * n / workers}
	}
	if Simcheck {
		verifyShards(n, shards)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(shards[w][0], shards[w][1])
	}
	wg.Wait()
}

// verifyShards asserts the decomposition invariant Rows' determinism
// rests on: the shards tile 0..n-1 exactly — contiguous, non-overlapping,
// no gaps.
func verifyShards(n int, shards [][2]int) {
	at := 0
	for k, sh := range shards {
		if sh[0] != at || sh[1] < sh[0] {
			panic(fmt.Sprintf("fanout: shard %d is [%d,%d), want to start at %d", k, sh[0], sh[1], at))
		}
		at = sh[1]
	}
	if at != n {
		panic(fmt.Sprintf("fanout: shards cover 0..%d, want 0..%d", at, n))
	}
}

// clampWorkers resolves a worker bound for n tasks: workers <= 0 means
// GOMAXPROCS, and more workers than tasks would only idle.
func clampWorkers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// Map evaluates f(0..n-1) and returns the results in index order. Up to
// `workers` goroutines take the next index from a shared counter, so
// uneven tasks balance themselves; workers <= 0 means GOMAXPROCS, and a
// single worker runs every task inline on the caller's goroutine. Every
// index is evaluated even when some fail; the error returned is the one
// f reported for the lowest failing index, as f returned it, so f adds
// whatever context its caller's messages need. f must be safe for
// concurrent calls and write only to state owned by its index.
func Map[T any](n, workers int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	if workers = clampWorkers(n, workers); workers <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = f(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					out[i], errs[i] = f(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
