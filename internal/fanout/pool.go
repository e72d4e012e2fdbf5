package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
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
// fields, bumps the phase counter, executes shard 0 itself, and waits
// until every helper reports done — the inter-phase barrier. Both sides
// wait the same way (sleeper.wait): a bounded spin on the counter, with
// yields between bursts, then a park on a channel until the other side
// wakes them. The spin keeps short phases cheap; the park hands the core
// back to the operating system when the awaited goroutine is descheduled,
// which a yield cannot do — runtime.Gosched only hands it to another
// goroutine of the same process. Between runs the helpers block on the
// start channel; Close closes it, ending them.
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

	// coord is where the coordinator parks on the barrier, sleepers[k-1]
	// where helper k parks awaiting the next phase.
	coord    sleeper
	sleepers []sleeper

	closeOnce sync.Once
	exited    sync.WaitGroup
}

// NewPool starts shards-1 helper goroutines; run(k, ph) executes shard
// k's slice of phase ph and must touch only state shard k owns.
func NewPool(shards int, run func(k int, ph Phase)) *Pool {
	p := &Pool{run: run, helpers: shards - 1, start: make(chan struct{})}
	p.coord.wake = make(chan struct{}, 1)
	p.sleepers = make([]sleeper, p.helpers)
	for i := range p.sleepers {
		p.sleepers[i].wake = make(chan struct{}, 1)
	}
	p.exited.Add(p.helpers)
	for k := 1; k < shards; k++ {
		go p.helper(k)
	}
	return p
}

// spinFor bounds a wait's spin before the waiter parks: longer than the
// imbalance between the shards of a typical phase on idle cores, so that
// a steady run rarely parks, and far shorter than an operating-system
// time slice, so that a waiter whose peer lost its core gives its own up
// instead of spinning the slice away.
const spinFor = 50 * time.Microsecond

// sleeper is one goroutine's parking spot: a flag it raises before it
// blocks, and a one-token channel its waker sends on after lowering the
// flag. Whichever side lowers the flag decides: the waker sends a token
// only when it lowered it, and a sleeper that lowered it itself receives
// none, so no token outlives the wait it was sent for.
type sleeper struct {
	asleep atomic.Bool
	wake   chan struct{}
}

// wait returns once cond holds; the goroutine that makes cond true must
// call wakeUp afterwards.
func (s *sleeper) wait(cond func() bool) {
	var start time.Time
	for r := 0; ; r++ {
		for i := 0; i < 64; i++ {
			if cond() {
				return
			}
		}
		if r == 0 {
			start = time.Now()
		} else if time.Since(start) > spinFor {
			break
		}
		runtime.Gosched()
	}
	for !cond() {
		s.asleep.Store(true)
		if cond() && s.asleep.CompareAndSwap(true, false) {
			return
		}
		<-s.wake
	}
}

// wakeUp wakes the sleeper if it parked (or is about to).
func (s *sleeper) wakeUp() {
	if s.asleep.CompareAndSwap(true, false) {
		s.wake <- struct{}{}
	}
}

func (p *Pool) helper(k int) {
	defer p.exited.Done()
	sl := &p.sleepers[k-1]
	for range p.start { // one token per run; exits when Close closes the channel
		last := uint32(0) // Unpark resets phase to 0 before handing out tokens
		for {
			sl.wait(func() bool { return p.phase.Load() != last })
			last = p.phase.Load()
			park := p.park
			if !park {
				p.run(k, p.job)
			}
			if p.done.Add(1) == uint32(p.helpers) {
				p.coord.wakeUp()
			}
			if park {
				break
			}
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
	for i := range p.sleepers {
		p.sleepers[i].wakeUp()
	}
}

func (p *Pool) wait() {
	target := uint32(p.helpers)
	p.coord.wait(func() bool { return p.done.Load() == target })
}

// Close ends the helper goroutines and returns once they have exited. It
// must not be called mid-run; a nil Pool (a run without intra-run
// workers) closes as a no-op, and so does a second Close.
func (p *Pool) Close() {
	if p != nil {
		p.closeOnce.Do(func() { close(p.start) })
		p.exited.Wait()
	}
}
