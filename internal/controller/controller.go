// Package controller implements the paper's network controller (Section
// 5): "Algorithm BACKTRACK (and REROUTE) presumes existence of the
// knowledge of all blockages in the network. The network controller is
// responsible for collecting this information and maintaining a global map
// of blockages, which is accessible to every sender of the messages in
// order to compute a path to avoid the blockages."
//
// The controller accepts fault and repair reports and serves rerouting
// tags computed with algorithm REROUTE. The blockage map is its only
// state: every tag is recomputed from the map under the read lock, so
// senders never serialize on each other and a map change invalidates
// nothing. It is safe for concurrent use by multiple senders.
package controller

import (
	"fmt"
	"sync"
	"sync/atomic"

	"iadm/internal/blockage"
	"iadm/internal/core"
	"iadm/internal/topology"
)

// Controller is the global routing authority of one IADM network.
type Controller struct {
	p topology.Params

	mu  sync.RWMutex
	blk *blockage.Set

	// epoch is incremented (under mu) on every map change; reads are
	// lock-free so callers can observe map versions without contending
	// with tag computation.
	epoch atomic.Uint64

	// stats (atomic: bumped under the read lock)
	misses, fails atomic.Uint64
}

// New creates a controller for a fault-free network of size N.
func New(N int) (*Controller, error) {
	p, err := topology.NewParams(N)
	if err != nil {
		return nil, err
	}
	return &Controller{p: p, blk: blockage.NewSet(p)}, nil
}

// Params returns the network parameters.
func (c *Controller) Params() topology.Params { return c.p }

// ReportFault records a blocked link. Reporting an already blocked link is
// a no-op (and does not bump the epoch). It reports whether the map
// changed.
func (c *Controller) ReportFault(l topology.Link) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.blk.Blocked(l) {
		return false
	}
	c.blk.Block(l)
	c.epoch.Add(1)
	return true
}

// ReportRepair clears a blocked link. It reports whether the map changed.
func (c *Controller) ReportRepair(l topology.Link) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.blk.Blocked(l) {
		return false
	}
	c.blk.Unblock(l)
	c.epoch.Add(1)
	return true
}

// ValidateSwitchFault checks that a switch-fault report would be accepted
// (the switch exists and its blockage has an input-link transformation)
// without applying it, so batch ingest can validate every report before
// mutating the map.
func (c *Controller) ValidateSwitchFault(sw topology.Switch) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blk.ValidateSwitch(sw)
}

// ReportSwitchFault records a faulty switch via the paper's input-link
// transformation. It returns how many input links were newly blocked
// (already blocked inputs, e.g. from an earlier link report, are no-ops).
func (c *Controller) ReportSwitchFault(sw topology.Switch) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	blocked, err := c.blk.BlockSwitch(sw)
	if err != nil {
		return 0, err
	}
	if blocked > 0 {
		c.epoch.Add(1)
	}
	return blocked, nil
}

// Faults returns a snapshot of the blocked links.
func (c *Controller) Faults() []topology.Link {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blk.Links()
}

// Epoch returns the current map version; it changes whenever the blockage
// map does. It is lock-free.
func (c *Controller) Epoch() uint64 { return c.epoch.Load() }

func (c *Controller) validPair(s, d int) error {
	if !c.p.ValidSwitch(s) || !c.p.ValidSwitch(d) {
		return fmt.Errorf("controller: invalid pair (%d, %d)", s, d)
	}
	return nil
}

// compute runs REROUTE for (s, d) against the current map and counts it.
// Callers must hold mu, for reading or writing.
func (c *Controller) compute(s, d int) (core.Tag, error) {
	c.misses.Add(1)
	tag, err := core.RerouteTag(c.p, c.blk, s, d)
	if err != nil {
		c.fails.Add(1)
	}
	return tag, err
}

// ComputeTag returns a TSDT tag routing s to d around all currently known
// blockages, or an error wrapping core.ErrNoPath when the network is
// disconnected for the pair, together with the epoch of the map it was
// computed against. It keeps no per-pair state: the tag is recomputed
// (an n-stage walk, Corollary 4.1, with BACKTRACK only where the walk
// meets a straight or double-nonstraight blockage) under the read lock,
// so concurrent senders never serialize on each other. The epoch is read
// under the same lock, and every bump happens under the write lock, so a
// mutation racing the call can never pair a tag with a map it was not
// computed against. An unroutable pair reports the epoch under which it
// was found unroutable; an invalid pair reports epoch 0.
func (c *Controller) ComputeTag(s, d int) (core.Tag, uint64, error) {
	if err := c.validPair(s, d); err != nil {
		return core.Tag{}, 0, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	tag, err := c.compute(s, d)
	return tag, c.epoch.Load(), err
}

// RouteTag is ComputeTag without the epoch.
func (c *Controller) RouteTag(s, d int) (core.Tag, error) {
	tag, _, err := c.ComputeTag(s, d)
	return tag, err
}

// Stats is a point-in-time snapshot of the controller's counters and map
// state.
type Stats struct {
	Hits         uint64 // always 0: every tag is computed (kept for benchmark readers)
	Misses       uint64 // tags computed with REROUTE
	Fails        uint64 // rerouting failures (pair disconnected)
	Epoch        uint64 // blockage-map version
	BlockedLinks int    // currently blocked links
}

// Stats reports a consistent snapshot: tags computed, rerouting failures,
// the current epoch and the blocked-link count.
func (c *Controller) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{
		Misses:       c.misses.Load(),
		Fails:        c.fails.Load(),
		Epoch:        c.epoch.Load(),
		BlockedLinks: c.blk.Count(),
	}
}

// Connectivity returns the fraction of (s, d) pairs currently routable.
func (c *Controller) Connectivity() float64 {
	c.mu.RLock()
	blk := c.blk.Clone()
	c.mu.RUnlock()
	N := c.p.Size()
	ok := 0
	for s := 0; s < N; s++ {
		for d := 0; d < N; d++ {
			if _, err := core.RerouteTag(c.p, blk, s, d); err == nil {
				ok++
			}
		}
	}
	return float64(ok) / float64(N*N)
}
