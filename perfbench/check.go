package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"iadm/internal/blockage"
	"iadm/internal/core"
	"iadm/internal/paths"
	"iadm/internal/routesvc"
	"iadm/internal/topology"
)

// answer is one route item's answer, whichever layer it came through.
type answer struct {
	ok    bool   // a tag and path were returned
	code  string // the wire error code otherwise
	tag   string
	path  []int
	epoch uint64
}

const (
	codeUnroutable = "unroutable"
	codeMalformed  = "malformed" // the answer could not be matched to its request
)

// faultLog maps each epoch of one net to the links blocked in it. The
// benchmark is the only mutator and each of its reports changes the map,
// so epoch e is the map after its e-th report.
type faultLog struct {
	mu    sync.RWMutex
	sets  [][]topology.Link
	acked atomic.Uint64 // the newest epoch every replica has acknowledged
}

func (l *faultLog) at(e uint64) ([]topology.Link, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if e >= uint64(len(l.sets)) {
		return nil, false
	}
	return l.sets[e], true
}

func (l *faultLog) since(lo uint64) [][]topology.Link {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.sets[min(lo, uint64(len(l.sets))):]
}

// checker validates answers against references the benchmark computes
// itself, for the nets it is given.
type checker struct {
	p    topology.Params
	logs map[string]*faultLog
}

func newChecker(p topology.Params, nets ...string) *checker {
	c := &checker{p: p, logs: make(map[string]*faultLog, len(nets))}
	for _, n := range nets {
		c.logs[n] = &faultLog{sets: [][]topology.Link{nil}}
	}
	return c
}

// expect records the map the mutation o is about to produce and returns
// the epoch every replica must acknowledge for it.
func (c *checker) expect(o op) uint64 {
	l := c.logs[o.net]
	l.mu.Lock()
	defer l.mu.Unlock()
	cur := l.sets[len(l.sets)-1]
	next := make([]topology.Link, 0, len(cur)+1)
	for _, x := range cur {
		if x != o.link {
			next = append(next, x)
		}
	}
	if o.kind == opFault {
		next = append(next, o.link)
	}
	l.sets = append(l.sets, next)
	return uint64(len(l.sets) - 1)
}

// ack marks epoch e of net as acknowledged by every replica.
func (c *checker) ack(net string, e uint64) { c.logs[net].acked.Store(e) }

// acked returns the newest epoch of net every replica has acknowledged: no
// answer to a request sent now comes from an older map.
func (c *checker) acked(net string) uint64 {
	if l := c.logs[net]; l != nil {
		return l.acked.Load()
	}
	return 0
}

// verify checks one answer to it; lo is acked(it.net) when the request was
// sent. It returns nil for a refusal (a shed, say), which is a failure the
// caller counts, not a wrong answer.
func (c *checker) verify(it item, a answer, lo uint64) error {
	log := c.logs[it.net]
	if log == nil {
		return fmt.Errorf("answer on unchecked net %q", it.net)
	}
	if !a.ok {
		switch a.code {
		case codeMalformed:
			return fmt.Errorf("answer to %v could not be matched to its request", it)
		case codeUnroutable:
			return c.unroutable(it, log, lo)
		}
		return nil
	}
	n := c.p.Stages()
	if len(a.path) != n+1 || a.path[0] != it.src || a.path[n] != it.dst {
		return fmt.Errorf("path %v of %v does not run from %d to %d", a.path, it, it.src, it.dst)
	}
	tag, err := core.ParseTag(n, a.tag)
	if err != nil {
		return fmt.Errorf("tag of %v: %v", it, err)
	}
	if it.scheme == routesvc.SchemeSSDT {
		if ref := core.MustTag(c.p, it.dst); tag != ref {
			return fmt.Errorf("SSDT tag %s of %v differs from the reference %s", a.tag, it, ref)
		}
	} else if tag.Destination() != it.dst {
		return fmt.Errorf("TSDT tag %s of %v is not addressed to %d", a.tag, it, it.dst)
	}
	var buf [64]topology.Link
	walk := tag.FollowInto(c.p, it.src, buf[:0])
	for i, l := range walk.Links {
		if l.To(c.p) != a.path[i+1] {
			return fmt.Errorf("path %v of %v is not the walk of its tag %s", a.path, it, a.tag)
		}
	}
	if it.scheme == routesvc.SchemeSSDT {
		return nil
	}
	faults, ok := log.at(a.epoch)
	if !ok {
		return fmt.Errorf("%v answered at epoch %d, which was never produced", it, a.epoch)
	}
	// The service stamps a TSDT tag with the epoch it read before computing
	// the tag, so a mutation that lands mid-compute leaves a tag computed
	// under a newer map than its stamp. The path must avoid every fault of
	// its epoch or of one epoch produced after it.
	for _, later := range log.since(a.epoch) {
		if firstFaulty(walk.Links, later) == nil {
			return nil
		}
	}
	l := *firstFaulty(walk.Links, faults)
	return fmt.Errorf("path %v of %v crosses link %s, faulty at its epoch %d, and no later map clears the path", a.path, it, l.Spec(), a.epoch)
}

// firstFaulty returns the first of links that is among faults, or nil.
func firstFaulty(links, faults []topology.Link) *topology.Link {
	for i := range links {
		if slices.Contains(faults, links[i]) {
			return &links[i]
		}
	}
	return nil
}

// unroutable accepts an unroutable answer only if one of the maps the
// request could have been served under, from epoch lo on, leaves no path.
func (c *checker) unroutable(it item, log *faultLog, lo uint64) error {
	if it.scheme == routesvc.SchemeSSDT {
		return fmt.Errorf("SSDT request %v answered unroutable", it)
	}
	for _, faults := range log.since(lo) {
		blk := blockage.NewSet(c.p)
		for _, l := range faults {
			blk.Block(l)
		}
		if !paths.Exists(c.p, it.src, it.dst, blk) {
			return nil
		}
	}
	return fmt.Errorf("%v answered unroutable, but a path exists under every map from epoch %d on", it, lo)
}
