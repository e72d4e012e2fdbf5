package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Phase kinds of one cycle of a multistage-network simulation, in the
// order both engines dispatch them: the output column, each intermediate
// stage from the last to the first, then the sources.
const (
	Deliver = iota // pop the last stage's links into the output ports
	Stage          // advance one intermediate stage (Phase.Stage)
	Inject         // per-source injection
)

// Phase is one step of a sharded cycle, published to every shard.
type Phase struct {
	Kind, Stage, Cycle int
	Measured           bool
}

// Pool runs one simulation's phases on persistent helper goroutines, so
// that a steady-state run performs zero heap allocations. The
// coordinator (the goroutine stepping the run) publishes a phase in plain
// fields, bumps the phase counter, executes shard 0 itself, and spins
// until every helper reports done — the inter-phase barrier. Helpers spin
// on the phase counter, yielding after a short burst so the scheme
// degrades gracefully when shards outnumber cores. Between runs the
// helpers block on the start channel; Close closes it, ending them.
type Pool struct {
	run     func(k int, ph Phase)
	helpers int
	start   chan struct{}

	phase atomic.Uint32
	done  atomic.Uint32

	// The published phase; written by the coordinator before the phase
	// bump, read by helpers after observing it (the atomic ordering makes
	// the plain fields safe). park ends the run instead.
	job  Phase
	park bool

	closeOnce sync.Once
}

// NewPool starts shards-1 helper goroutines; run(k, ph) executes shard
// k's slice of phase ph and must touch only state shard k owns.
func NewPool(shards int, run func(k int, ph Phase)) *Pool {
	p := &Pool{run: run, helpers: shards - 1, start: make(chan struct{})}
	for k := 1; k < shards; k++ {
		go p.helper(k)
	}
	return p
}

// spinWait spins on cond with periodic yields. The yield matters beyond
// politeness: with more shards than cores a pure spin could starve the
// very workers it waits for.
func spinWait(cond func() bool) {
	for spins := 0; !cond(); {
		spins++
		if spins >= 64 {
			spins = 0
			runtime.Gosched()
		}
	}
}

func (p *Pool) helper(k int) {
	for range p.start { // one token per run; exits when Close closes the channel
		last := uint32(0) // Unpark resets phase to 0 before handing out tokens
		for {
			spinWait(func() bool { return p.phase.Load() != last })
			last = p.phase.Load()
			if p.park {
				p.done.Add(1)
				break
			}
			p.run(k, p.job)
			p.done.Add(1)
		}
	}
}

// Unpark readies the helpers for a run. Helpers are parked (or not yet
// mid-run), so resetting the phase counter here cannot race them.
func (p *Pool) Unpark() {
	p.phase.Store(0)
	for i := 0; i < p.helpers; i++ {
		p.start <- struct{}{}
	}
}

// Dispatch runs one phase over every shard, shard 0 on the calling
// goroutine, and returns when all of them are done.
func (p *Pool) Dispatch(ph Phase) {
	p.publish(ph, false)
	p.run(0, ph)
	p.wait()
}

// Park ends a run: the helpers go back to waiting for the next Unpark.
func (p *Pool) Park() {
	p.publish(Phase{}, true)
	p.wait()
}

func (p *Pool) publish(ph Phase, park bool) {
	p.done.Store(0)
	p.job, p.park = ph, park
	p.phase.Add(1)
}

func (p *Pool) wait() {
	target := uint32(p.helpers)
	spinWait(func() bool { return p.done.Load() == target })
}

// Close ends the helper goroutines. It must not be called mid-run; a nil
// Pool (a run without intra-run workers) closes as a no-op.
func (p *Pool) Close() {
	if p != nil {
		p.closeOnce.Do(func() { close(p.start) })
	}
}
