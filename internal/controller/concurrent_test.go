package controller

import (
	"sync"
	"testing"
	"time"

	"iadm/internal/blockage"
	"iadm/internal/core"
	"iadm/internal/topology"
)

// TestStatsConcurrentHitRate hammers a fixed pair set from many goroutines
// and checks the Stats snapshot accounting: every request is either a hit
// or a miss, and with a frozen blockage map each distinct pair is computed
// exactly once — the second checker under the write lock must turn every
// racing duplicate compute into a hit.
func TestStatsConcurrentHitRate(t *testing.T) {
	c := mustNew(t, 16)
	const G, R = 8, 400
	pairs := [][2]int{{0, 5}, {3, 3}, {7, 12}, {15, 1}, {9, 9}, {2, 14}}

	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < R; r++ {
				p := pairs[(g+r)%len(pairs)]
				if _, err := c.RouteTag(p[0], p[1]); err != nil {
					t.Errorf("RouteTag(%d, %d): %v", p[0], p[1], err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	total := uint64(G * R)
	if st.Hits+st.Misses != total {
		t.Errorf("hits(%d)+misses(%d) = %d, want %d", st.Hits, st.Misses, st.Hits+st.Misses, total)
	}
	if st.Misses != uint64(len(pairs)) {
		t.Errorf("misses = %d, want one per distinct pair (%d)", st.Misses, len(pairs))
	}
	if st.Fails != 0 || st.Epoch != 0 || st.BlockedLinks != 0 {
		t.Errorf("unexpected fails/epoch/blocked in %+v", st)
	}
	if st.CacheEntries != len(pairs) {
		t.Errorf("cache entries = %d, want %d", st.CacheEntries, len(pairs))
	}
	if want := 1 - float64(len(pairs))/float64(total); st.HitRate() < want-1e-9 {
		t.Errorf("hit rate %.4f, want >= %.4f", st.HitRate(), want)
	}

	// A fault invalidates: the same pair costs exactly one more miss.
	c.ReportFault(topology.Link{Stage: 0, From: 0, Kind: topology.Minus})
	for i := 0; i < 3; i++ {
		if _, err := c.RouteTag(0, 5); err != nil {
			t.Fatal(err)
		}
	}
	st2 := c.Stats()
	if st2.Misses != st.Misses+1 {
		t.Errorf("misses after fault = %d, want %d", st2.Misses, st.Misses+1)
	}
	if st2.Epoch != 1 || st2.BlockedLinks != 1 {
		t.Errorf("epoch/blocked after fault: %+v", st2)
	}
}

// TestComputeTagUnderReadLock: ComputeTag takes only the read lock, so it
// returns while another reader holds the lock — both for a pair whose walk
// flips a state bit around a single-nonstraight blockage and for one whose
// walk meets a straight blockage and needs BACKTRACK. A computation under
// the write lock would block here until the test released its read lock.
func TestComputeTagUnderReadLock(t *testing.T) {
	c := mustNew(t, 8)
	p := c.Params()
	// 1→0 takes 1,0,0,0 under all-C: block its -2^0 link so the walk flips.
	c.ReportFault(topology.Link{Stage: 0, From: 1, Kind: topology.Minus})
	// 5→4 takes 5,4,4,4: block the straight link out of 4∈S_1.
	c.ReportFault(topology.Link{Stage: 1, From: 4, Kind: topology.Straight})
	blk := blockage.NewSet(p)
	for _, l := range c.Faults() {
		blk.Block(l)
	}
	for _, tc := range []struct {
		s, d int
		kind topology.LinkKind // the kind of the all-C walk's first blocked link
	}{{1, 0, topology.Minus}, {5, 4, topology.Straight}} {
		path := core.MustTag(p, tc.d).Follow(p, tc.s)
		if i, hit := path.FirstBlocked(blk); !hit || path.Links[i].Kind != tc.kind {
			t.Fatalf("%d→%d: all-C walk %v does not meet a %v blockage first", tc.s, tc.d, path, tc.kind)
		}

		var tag core.Tag
		var epoch uint64
		var err error
		done := make(chan struct{})
		c.mu.RLock()
		go func() {
			defer close(done)
			tag, epoch, err = c.ComputeTag(tc.s, tc.d)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			c.mu.RUnlock()
			<-done
			t.Fatalf("%d→%d: ComputeTag blocked behind a held read lock", tc.s, tc.d)
		}
		c.mu.RUnlock()

		want, _, wantErr := core.Reroute(p, blk, tc.s, core.MustTag(p, tc.d))
		if err != nil || wantErr != nil || tag != want {
			t.Fatalf("%d→%d: ComputeTag = %v, %v; Reroute = %v, %v", tc.s, tc.d, tag, err, want, wantErr)
		}
		if epoch != 2 {
			t.Fatalf("%d→%d: epoch %d, want 2", tc.s, tc.d, epoch)
		}
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 || st.CacheEntries != 0 {
		t.Fatalf("ComputeTag touched the per-pair cache: %+v", st)
	}
}
