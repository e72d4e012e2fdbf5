// Package controller implements the paper's network controller (Section
// 5): "Algorithm BACKTRACK (and REROUTE) presumes existence of the
// knowledge of all blockages in the network. The network controller is
// responsible for collecting this information and maintaining a global map
// of blockages, which is accessible to every sender of the messages in
// order to compute a path to avoid the blockages."
//
// The controller accepts fault and repair reports, serves rerouting-tag
// requests computed with algorithm REROUTE, and caches computed tags per
// (source, destination) pair, clearing the cache when the blockage map
// changes. It is safe for concurrent use by multiple senders.
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

	mu    sync.RWMutex
	blk   *blockage.Set
	cache map[pair]core.Tag // tags of the current epoch only
	subs  []func(epoch uint64)

	// epoch is incremented (under mu) on every map change; reads are
	// lock-free so serving layers can stamp cache entries per request
	// without contending with tag computation.
	epoch atomic.Uint64

	// stats (atomic: the hit counter is bumped under the read lock)
	hits, misses, fails atomic.Uint64
}

type pair struct{ s, d int }

// New creates a controller for a fault-free network of size N.
func New(N int) (*Controller, error) {
	p, err := topology.NewParams(N)
	if err != nil {
		return nil, err
	}
	return &Controller{
		p:     p,
		blk:   blockage.NewSet(p),
		cache: make(map[pair]core.Tag),
	}, nil
}

// Params returns the network parameters.
func (c *Controller) Params() topology.Params { return c.p }

// bumpEpoch records a map change, drops the per-pair tags (computed
// against the old map, they can never be served again) and notifies
// subscribers. Callers must hold mu for writing. A fresh map rather than
// clear(): clearing costs the map's peak size on every later bump.
func (c *Controller) bumpEpoch() {
	c.cache = make(map[pair]core.Tag)
	e := c.epoch.Add(1)
	for _, fn := range c.subs {
		fn(e)
	}
}

// OnInvalidate registers a hook invoked after every blockage-map change
// with the new epoch. Hooks run synchronously while the controller's write
// lock is held — they observe bumps in exact order, and must be fast and
// must not call back into the Controller.
func (c *Controller) OnInvalidate(fn func(epoch uint64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subs = append(c.subs, fn)
}

// ReportFault records a blocked link. Reporting an already blocked link is
// a no-op (and does not invalidate the cache). It reports whether the map
// changed.
func (c *Controller) ReportFault(l topology.Link) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.blk.Blocked(l) {
		return false
	}
	c.blk.Block(l)
	c.bumpEpoch()
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
	c.bumpEpoch()
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
		c.bumpEpoch()
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

// RouteTag returns a TSDT tag routing s to d around all currently known
// blockages, or an error wrapping core.ErrNoPath when the network is
// disconnected for the pair. Computed tags are cached until the blockage
// map changes.
func (c *Controller) RouteTag(s, d int) (core.Tag, error) {
	tag, _, err := c.RouteTagEpoch(s, d)
	return tag, err
}

// RouteTagEpoch is RouteTag plus the epoch of the blockage map the tag
// was computed (or its cache entry validated) under, read under the
// same lock — so a mutation racing the call can never pair a tag with
// a map it was not computed against. An unroutable pair reports the
// epoch under which it was found unroutable.
func (c *Controller) RouteTagEpoch(s, d int) (core.Tag, uint64, error) {
	if !c.p.ValidSwitch(s) || !c.p.ValidSwitch(d) {
		return core.Tag{}, 0, fmt.Errorf("controller: invalid pair (%d, %d)", s, d)
	}
	key := pair{s, d}

	// The epoch is stable under either lock: every bump happens under the
	// write lock and empties the cache, so an entry is always current.
	c.mu.RLock()
	if tag, ok := c.cache[key]; ok {
		c.hits.Add(1)
		epoch := c.epoch.Load()
		c.mu.RUnlock()
		return tag, epoch, nil
	}
	c.mu.RUnlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	epoch := c.epoch.Load()
	// Recheck under the write lock (another sender may have filled it).
	if tag, ok := c.cache[key]; ok {
		c.hits.Add(1)
		return tag, epoch, nil
	}
	c.misses.Add(1)
	tag, _, err := core.Reroute(c.p, c.blk, s, core.MustTag(c.p, d))
	if err != nil {
		c.fails.Add(1)
		return core.Tag{}, epoch, err
	}
	c.cache[key] = tag
	return tag, epoch, nil
}

// Route is RouteTag plus the concrete path.
func (c *Controller) Route(s, d int) (core.Tag, core.Path, error) {
	tag, err := c.RouteTag(s, d)
	if err != nil {
		return core.Tag{}, core.Path{}, err
	}
	return tag, tag.Follow(c.p, s), nil
}

// Stats is a point-in-time snapshot of the controller's cache behaviour
// and map state.
type Stats struct {
	Hits         uint64 // requests answered from the tag cache
	Misses       uint64 // tags computed with REROUTE
	Fails        uint64 // rerouting failures (pair disconnected)
	Epoch        uint64 // blockage-map version
	CacheEntries int    // cached tags, all of the current epoch
	BlockedLinks int    // currently blocked links
}

// HitRate returns the fraction of requests served from the cache, or 0
// before any request.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats reports a consistent snapshot of cache behaviour: hits, misses
// (tags computed), rerouting failures, the current epoch, and map sizes.
func (c *Controller) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Fails:        c.fails.Load(),
		Epoch:        c.epoch.Load(),
		CacheEntries: len(c.cache),
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
			if _, _, err := core.Reroute(c.p, blk, s, core.MustTag(c.p, d)); err == nil {
				ok++
			}
		}
	}
	return float64(ok) / float64(N*N)
}
