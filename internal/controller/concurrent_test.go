package controller

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"iadm/internal/blockage"
	"iadm/internal/core"
	"iadm/internal/topology"
)

// TestConcurrentRouteTagMatchesReroute hammers a fixed pair set from many
// goroutines under a fixed fault map: every answer equals core.Reroute's on
// the same map, and Stats counts every request as one computation.
func TestConcurrentRouteTagMatchesReroute(t *testing.T) {
	c := mustNew(t, 16)
	p := c.Params()
	c.ReportFault(topology.Link{Stage: 0, From: 0, Kind: topology.Minus})
	c.ReportFault(topology.Link{Stage: 2, From: 7, Kind: topology.Plus})
	blk := blockage.NewSet(p)
	for _, l := range c.Faults() {
		blk.Block(l)
	}
	const G, R = 8, 400
	pairs := [][2]int{{0, 5}, {3, 3}, {7, 12}, {15, 1}, {9, 9}, {2, 14}, {0, 15}}
	want := make([]core.Tag, len(pairs))
	for i, pr := range pairs {
		tag, _, err := core.Reroute(p, blk, pr[0], core.MustTag(p, pr[1]))
		if err != nil {
			t.Fatalf("Reroute(%d, %d): %v", pr[0], pr[1], err)
		}
		want[i] = tag
	}

	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < R; r++ {
				i := (g + r) % len(pairs)
				tag, err := c.RouteTag(pairs[i][0], pairs[i][1])
				if err != nil || tag != want[i] {
					t.Errorf("RouteTag(%d, %d) = %v, %v; Reroute = %v", pairs[i][0], pairs[i][1], tag, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Misses != G*R || st.Hits != 0 || st.Fails != 0 || st.Epoch != 2 || st.BlockedLinks != 2 {
		t.Errorf("Stats = %+v, want %d misses, epoch 2, 2 blocked links", st, G*R)
	}
}

// returnsUnderReadLock fails t unless f returns while the test holds c's
// read lock: a call that took the write lock would block until release.
func returnsUnderReadLock(t *testing.T, c *Controller, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	c.mu.RLock()
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		c.mu.RUnlock()
		<-done
		t.Fatalf("%s blocked behind a held read lock", what)
	}
	c.mu.RUnlock()
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
		returnsUnderReadLock(t, c, fmt.Sprintf("ComputeTag(%d, %d)", tc.s, tc.d), func() {
			tag, epoch, err = c.ComputeTag(tc.s, tc.d)
		})

		want, _, wantErr := core.Reroute(p, blk, tc.s, core.MustTag(p, tc.d))
		if err != nil || wantErr != nil || tag != want {
			t.Fatalf("%d→%d: ComputeTag = %v, %v; Reroute = %v, %v", tc.s, tc.d, tag, err, want, wantErr)
		}
		if epoch != 2 {
			t.Fatalf("%d→%d: epoch %d, want 2", tc.s, tc.d, epoch)
		}
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("Stats = %+v, want 2 misses", st)
	}
}

// TestRouteTagUnderReadLock: RouteTag, like ComputeTag, returns while
// another reader holds the lock, and answers REROUTE's tag.
func TestRouteTagUnderReadLock(t *testing.T) {
	c := mustNew(t, 8)
	p := c.Params()
	l := topology.Link{Stage: 0, From: 1, Kind: topology.Minus}
	c.ReportFault(l)
	blk := blockage.NewSet(p)
	blk.Block(l)
	var tag core.Tag
	var err error
	returnsUnderReadLock(t, c, "RouteTag(1, 0)", func() { tag, err = c.RouteTag(1, 0) })
	want, _, wantErr := core.Reroute(p, blk, 1, core.MustTag(p, 0))
	if err != nil || wantErr != nil || tag != want {
		t.Fatalf("RouteTag = %v, %v; Reroute = %v, %v", tag, err, want, wantErr)
	}
}
