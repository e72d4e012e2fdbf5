package controller

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"iadm/internal/core"
	"iadm/internal/topology"
)

func mustNew(t *testing.T, N int) *Controller {
	t.Helper()
	c, err := New(N)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(6); err == nil {
		t.Error("accepted non-power-of-two size")
	}
}

func TestRouteCleanNetwork(t *testing.T) {
	c := mustNew(t, 8)
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			_, path, err := c.Route(s, d)
			if err != nil {
				t.Fatalf("Route(%d,%d): %v", s, d, err)
			}
			if path.Destination() != d {
				t.Fatalf("delivered to %d", path.Destination())
			}
		}
	}
	if c.Connectivity() != 1.0 {
		t.Errorf("Connectivity = %v", c.Connectivity())
	}
}

func TestRouteInvalidPair(t *testing.T) {
	c := mustNew(t, 8)
	if _, err := c.RouteTag(8, 0); err == nil {
		t.Error("accepted invalid source")
	}
	if _, err := c.RouteTag(0, -1); err == nil {
		t.Error("accepted invalid destination")
	}
}

func TestCacheHitsAndInvalidation(t *testing.T) {
	c := mustNew(t, 8)
	if _, err := c.RouteTag(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RouteTag(1, 0); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}

	// A fault report invalidates the cache...
	epoch := c.Epoch()
	l := topology.Link{Stage: 0, From: 1, Kind: topology.Minus}
	c.ReportFault(l)
	if c.Epoch() == epoch {
		t.Error("epoch did not change on fault")
	}
	tag, err := c.RouteTag(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 after invalidation", st.Misses)
	}
	// ...and the fresh tag avoids the fault.
	path := tag.Follow(c.Params(), 1)
	for _, pl := range path.Links {
		if pl == l {
			t.Error("cached-then-recomputed tag still uses the faulty link")
		}
	}

	// Duplicate fault reports are no-ops.
	epoch = c.Epoch()
	c.ReportFault(l)
	if c.Epoch() != epoch {
		t.Error("duplicate fault changed the epoch")
	}
}

// TestCacheBoundedPerEpoch: the per-pair tag map holds only the current
// epoch's tags — k entries after k distinct pairs, none after any map
// change, a no-op report included in neither — and hits within an epoch
// are counted as before.
func TestCacheBoundedPerEpoch(t *testing.T) {
	c := mustNew(t, 16)
	fill := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if _, err := c.RouteTag(i, (5*i+3)%16); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := func(when string, entries int, hits, misses uint64) {
		t.Helper()
		st := c.Stats()
		if st.CacheEntries != entries || st.Hits != hits || st.Misses != misses {
			t.Fatalf("%s: entries=%d hits=%d misses=%d, want %d/%d/%d",
				when, st.CacheEntries, st.Hits, st.Misses, entries, hits, misses)
		}
	}
	fill(7)
	want("7 distinct pairs", 7, 0, 7)
	fill(7)
	want("the same 7 pairs again", 7, 7, 7)

	l := topology.Link{Stage: 1, From: 2, Kind: topology.Plus}
	c.ReportFault(l)
	want("after a fault", 0, 7, 7)
	c.ReportFault(l)
	fill(3)
	want("a duplicate fault, then 3 pairs", 3, 7, 10)
	fill(3)
	want("the 3 pairs again", 3, 10, 10)
	c.ReportRepair(l)
	want("after a repair", 0, 10, 10)
	fill(2)
	if _, err := c.ReportSwitchFault(topology.Switch{Stage: 2, Index: 4}); err != nil {
		t.Fatal(err)
	}
	want("after a switch fault", 0, 10, 12)
}

func TestRepairRestoresRoutes(t *testing.T) {
	c := mustNew(t, 8)
	l := topology.Link{Stage: 1, From: 5, Kind: topology.Straight}
	c.ReportFault(l)
	if _, err := c.RouteTag(5, 5); !errors.Is(err, core.ErrNoPath) {
		t.Fatalf("want ErrNoPath for broken straight pair, got %v", err)
	}
	if st := c.Stats(); st.Fails != 1 {
		t.Errorf("fails = %d", st.Fails)
	}
	c.ReportRepair(l)
	if _, err := c.RouteTag(5, 5); err != nil {
		t.Fatalf("route after repair: %v", err)
	}
	// Repairing an unblocked link is a no-op.
	epoch := c.Epoch()
	c.ReportRepair(l)
	if c.Epoch() != epoch {
		t.Error("no-op repair changed the epoch")
	}
}

func TestReportSwitchFault(t *testing.T) {
	c := mustNew(t, 8)
	blocked, err := c.ReportSwitchFault(topology.Switch{Stage: 1, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	if blocked != 3 {
		t.Errorf("ReportSwitchFault blocked %d links, want 3", blocked)
	}
	if got := len(c.Faults()); got != 3 {
		t.Errorf("Faults = %d links, want 3", got)
	}
	_, path, err := c.Route(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if path.SwitchAt(1) == 0 {
		t.Errorf("path %v passes through the faulty switch", path)
	}
	epoch := c.Epoch()
	if blocked, err := c.ReportSwitchFault(topology.Switch{Stage: 1, Index: 0}); err != nil || blocked != 0 {
		t.Errorf("duplicate switch fault = (%d, %v), want (0, nil)", blocked, err)
	}
	if c.Epoch() != epoch {
		t.Error("no-op switch fault bumped the epoch")
	}
	if _, err := c.ReportSwitchFault(topology.Switch{Stage: 0, Index: 0}); err == nil {
		t.Error("accepted input-column switch fault")
	}
	if err := c.ValidateSwitchFault(topology.Switch{Stage: 0, Index: 0}); err == nil {
		t.Error("ValidateSwitchFault accepted input-column switch fault")
	}
	if err := c.ValidateSwitchFault(topology.Switch{Stage: 2, Index: 1}); err != nil {
		t.Errorf("ValidateSwitchFault rejected a valid switch: %v", err)
	}
}

func TestConnectivityDegrades(t *testing.T) {
	c := mustNew(t, 8)
	c.ReportFault(topology.Link{Stage: 1, From: 5, Kind: topology.Straight})
	conn := c.Connectivity()
	if conn >= 1.0 || conn <= 0 {
		t.Errorf("Connectivity = %v, want in (0,1)", conn)
	}
}

// TestConcurrentSenders hammers the controller from many goroutines while
// faults come and go; run with -race in CI.
func TestConcurrentSenders(t *testing.T) {
	c := mustNew(t, 16)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Fault injector.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		links := []topology.Link{
			{Stage: 0, From: 1, Kind: topology.Minus},
			{Stage: 1, From: 2, Kind: topology.Plus},
			{Stage: 2, From: 9, Kind: topology.Minus},
			{Stage: 3, From: 4, Kind: topology.Plus},
		}
		for i := 0; i < 500; i++ {
			l := links[rng.Intn(len(links))]
			if rng.Intn(2) == 0 {
				c.ReportFault(l)
			} else {
				c.ReportRepair(l)
			}
		}
		close(stop)
	}()

	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, d := rng.Intn(16), rng.Intn(16)
				tag, err := c.RouteTag(s, d)
				if err != nil {
					if !errors.Is(err, core.ErrNoPath) {
						t.Errorf("unexpected error: %v", err)
					}
					continue
				}
				if got := tag.Follow(c.Params(), s).Destination(); got != d {
					t.Errorf("tag delivered to %d, want %d", got, d)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
