package routesvc

import (
	"sync"

	"iadm/internal/core"
)

// flightKey scopes request coalescing. The epoch is part of the key: a
// request that arrives after a fault report must not join a flight started
// under the old blockage map, or it could be handed a stale tag. The old
// flight completes and stamps its (now stale) entry with the old epoch,
// where it dies unread.
type flightKey struct {
	key   cacheKey
	epoch uint64
}

type flightCall struct {
	done  chan struct{}
	tag   core.Tag
	epoch uint64
	err   error
}

// flightGroup deduplicates concurrent tag computations: under a thundering
// herd for one (src, dst, scheme, epoch), exactly one caller computes and
// the rest wait for its result (the singleflight pattern, reimplemented
// here because the repo takes no external dependencies). The zero value is
// ready to use.
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*flightCall
}

// do runs fn once per in-flight key; duplicate callers block until the
// leader finishes and share its result (the tag and the epoch it was
// computed under). shared reports whether this caller joined an existing
// flight rather than leading one.
func (g *flightGroup) do(k flightKey, fn func() (core.Tag, uint64, error)) (tag core.Tag, epoch uint64, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[flightKey]*flightCall)
	}
	if c, ok := g.m[k]; ok {
		g.mu.Unlock()
		<-c.done
		return c.tag, c.epoch, c.err, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[k] = c
	g.mu.Unlock()

	c.tag, c.epoch, c.err = fn()

	g.mu.Lock()
	delete(g.m, k)
	g.mu.Unlock()
	close(c.done)
	return c.tag, c.epoch, c.err, false
}
