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
			tag, err := c.RouteTag(s, d)
			if err != nil {
				t.Fatalf("RouteTag(%d,%d): %v", s, d, err)
			}
			if path := tag.Follow(c.Params(), s); path.Destination() != d {
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

// TestFaultReroutesAroundLink: the tag computed after a fault avoids the
// faulty link, and a duplicate report leaves the epoch unchanged.
func TestFaultReroutesAroundLink(t *testing.T) {
	c := mustNew(t, 8)
	l := topology.Link{Stage: 0, From: 1, Kind: topology.Minus}
	if tag, err := c.RouteTag(1, 0); err != nil || tag.Follow(c.Params(), 1).Links[0] != l {
		t.Fatalf("fault-free 1→0 = %v, %v; want a walk over %v", tag, err, l)
	}

	epoch := c.Epoch()
	if !c.ReportFault(l) || c.Epoch() != epoch+1 {
		t.Fatalf("fault report: epoch %d, want %d", c.Epoch(), epoch+1)
	}
	tag, err := c.RouteTag(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := tag.Follow(c.Params(), 1)
	if path.Destination() != 0 {
		t.Fatalf("tag %v delivers to %d", tag, path.Destination())
	}
	for _, pl := range path.Links {
		if pl == l {
			t.Fatalf("tag %v after the fault still uses %v", tag, l)
		}
	}

	if c.ReportFault(l) || c.Epoch() != epoch+1 {
		t.Errorf("duplicate fault: epoch %d, want %d", c.Epoch(), epoch+1)
	}
}

// TestMissesCountEveryCall: every RouteTag and ComputeTag call is one
// REROUTE computation, repeated pairs and map changes alike, and Hits
// stays 0.
func TestMissesCountEveryCall(t *testing.T) {
	c := mustNew(t, 16)
	var calls uint64
	sweep := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			if _, err := c.RouteTag(i, (5*i+3)%16); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.ComputeTag(i, (5*i+3)%16); err != nil {
				t.Fatal(err)
			}
			calls += 2
		}
		if st := c.Stats(); st.Misses != calls || st.Hits != 0 {
			t.Fatalf("after %d calls: %+v", calls, st)
		}
	}
	sweep(7)
	sweep(7)
	l := topology.Link{Stage: 1, From: 2, Kind: topology.Plus}
	c.ReportFault(l)
	c.ReportFault(l)
	sweep(3)
	c.ReportRepair(l)
	sweep(3)
	if _, err := c.ReportSwitchFault(topology.Switch{Stage: 2, Index: 4}); err != nil {
		t.Fatal(err)
	}
	sweep(2)
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
	tag, err := c.RouteTag(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if path := tag.Follow(c.Params(), 1); path.SwitchAt(1) == 0 {
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
