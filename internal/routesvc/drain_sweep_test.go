package routesvc

import (
	"errors"
	"testing"
	"time"

	"iadm/internal/topology"
)

// TestDrainDuringSweep interleaves a SIGTERM-style Drain with a CAS-guarded
// sweep worker frozen mid-sweep. The contract under test:
//
//   - Drain must wait for the worker (it holds the inflight gate), not
//     deadlock against it and not abandon it mid-rebuild;
//   - the released worker finishes its sweep before Drain returns;
//   - after Drain returns, requests are refused with ErrDraining.
func TestDrainDuringSweep(t *testing.T) {
	s, err := New(Config{N: 64, Shards: 1, SweepEvery: -1, Admission: AdmissionConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	// One TSDT entry, made stale by a fault: the sweep has work to do.
	if _, err := s.Route(0, 9, SchemeTSDT); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReportFault(topology.Link{Stage: 0, From: 1, Kind: topology.Minus}); err != nil {
		t.Fatal(err)
	}

	// Freeze the worker on the only shard's lock. A pending writer blocks
	// new readers, so TryRLock failing proves the worker is inside Sweep
	// (and therefore past its begin()).
	sh := &s.cache.shards[0]
	sh.mu.RLock()
	s.scheduleSweep()
	deadline := time.Now().Add(5 * time.Second)
	for sh.mu.TryRLock() {
		sh.mu.RUnlock()
		if time.Now().After(deadline) {
			t.Fatal("sweep worker never reached the shard lock")
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()

	// Drain must block on the frozen worker: returning now would tear the
	// process down under a half-rebuilt shard.
	select {
	case <-drained:
		t.Fatal("Drain returned while a sweep worker was mid-sweep")
	case <-time.After(50 * time.Millisecond):
	}

	sh.mu.RUnlock()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock: Drain never returned after the sweep worker was released")
	}

	if m := s.Metrics(); m.Sweeps != 1 || m.SweptTotal != 1 || m.CacheEntries != 0 {
		t.Fatalf("post-drain sweeps=%d swept=%d entries=%d, want 1/1/0", m.Sweeps, m.SweptTotal, m.CacheEntries)
	}
	if _, err := s.Route(0, 1, SchemeSSDT); !errors.Is(err, ErrDraining) {
		t.Fatalf("Route after Drain: err=%v, want ErrDraining", err)
	}
}

// TestDrainBeforeSweepWorkerStarts covers the other interleaving: the
// drain wins the race, so the scheduled worker must bow out without
// sweeping and without deadlocking.
func TestDrainBeforeSweepWorkerStarts(t *testing.T) {
	s, err := New(Config{N: 64, SweepEvery: -1, Admission: AdmissionConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}

	// Drain first: the flag is up before the worker's begin().
	s.Drain()
	s.scheduleSweep()

	deadline := time.Now().Add(5 * time.Second)
	for s.sweepBusy.Load() {
		if time.Now().After(deadline) {
			t.Fatal("sweep worker never finished against a draining service")
		}
		time.Sleep(time.Millisecond)
	}
	if m := s.Metrics(); m.Sweeps != 0 {
		t.Fatalf("sweeps=%d after a drained sweep, want 0", m.Sweeps)
	}
}
