package simulator

import (
	"fmt"
	"reflect"
	"runtime"

	"iadm/internal/fanout"
)

// Engine is an engine's sim as the shared run scaffold drives it: the
// Model it embeds (Base is promoted from it), the reset of its own state
// for a new seed (after rewinding the model), and its metrics once the
// model has run.
type Engine[M any] interface {
	Base() *Model
	Reset(seed int64)
	Metrics() M
}

// RunOnce executes one run of a freshly built engine.
func RunOnce[M any](e Engine[M], seed int64) M {
	e.Reset(seed)
	e.Base().run()
	return e.Metrics()
}

// Reusable executes repeated runs of one configuration without
// reallocating any per-run state, so the steady-state cycle loop performs
// zero heap allocations. The metrics returned by Run/RunSeed share their
// latency and utilization stream storage with it and are invalidated by
// the next call; copy the numbers out (or use the one-shot Run functions)
// if you need them to survive.
type Reusable[M any] struct {
	e    Engine[M]
	seed int64
}

// NewReusable wraps a freshly built engine whose configured seed is seed.
func NewReusable[M any](e Engine[M], seed int64) *Reusable[M] {
	return &Reusable[M]{e: e, seed: seed}
}

// Run executes one run with the configured seed.
func (r *Reusable[M]) Run() M { return r.RunSeed(r.seed) }

// RunSeed executes one run with the given seed, reusing all buffers.
func (r *Reusable[M]) RunSeed(seed int64) M { return RunOnce(r.e, seed) }

// Batch is an engine as the shared batch helpers see it.
type Batch[C, M any] struct {
	Name string // error prefix: "simulator", "wormhole"
	// Model is the shared view of a config; Detail renders the engine-only
	// fields that identify a run in an error; Seed points at a config's
	// seed; New validates a config and builds its engine.
	Model  func(*C) ModelConfig
	Detail func(*C) string
	Seed   func(*C) *int64
	New    func(C) (Engine[M], error)
}

// summary renders the handful of config fields that identify a run in
// error messages, without dumping unbounded fields like Perm.
func summary(mc ModelConfig, detail string) string {
	s := fmt.Sprintf("N=%d policy=%v load=%v %s cycles=%d warmup=%d seed=%d traffic=%v",
		mc.N, mc.Policy, mc.Load, detail, mc.Cycles, mc.Warmup, mc.Seed, mc.Traffic)
	if mc.FaultRate > 0 {
		s += fmt.Sprintf(" faultRate=%v repair=%d", mc.FaultRate, mc.RepairCycles)
	}
	return s
}

// workerEngine is one batch worker's engine and the config it was built
// for, with the seed zeroed: its shape.
type workerEngine[C, M any] struct {
	r     *Reusable[M]
	shape C
}

// run executes cfg on the worker's engine when cfg has its shape, and on
// a freshly built one (which the worker then keeps) otherwise. Shapes are
// whole configs compared by reflect.DeepEqual, so every field counts,
// the contents of Blocked and Perm included, and a field added later
// cannot be missed. The returned metrics own their streams.
func (w *workerEngine[C, M]) run(b Batch[C, M], cfg C) (M, error) {
	seed, shape := *b.Seed(&cfg), cfg
	*b.Seed(&shape) = 0
	if w.r == nil || !reflect.DeepEqual(w.shape, shape) {
		e, err := b.New(cfg)
		if err != nil {
			var zero M
			return zero, err
		}
		w.r, w.shape = NewReusable(e, seed), shape
	}
	m := w.r.RunSeed(seed)
	w.r.e.Base().detachStreams()
	return m, nil
}

// RunManyWorkers executes every config as an independent run over
// fanout.Map. Each run's randomness is a pure function of its seed, so
// the results are bit-identical to running each config serially, in
// config order, whatever the worker count or scheduling; on error the
// first failing config (by index) is reported. workers <= 0 means
// GOMAXPROCS runs at a time, one per core; an explicit workers value is
// taken as-is — the caller owns the oversubscription trade-off then.
//
// Each worker keeps the engine of its last run and reuses it for a config
// that differs only in Seed (the shape of Sweep and of replica batches),
// so a batch of seeds builds one engine per worker rather than one per
// run. The engines live for this call only: nothing is cached across
// calls, so a Blocked set mutated between calls is snapshotted again.
func (b Batch[C, M]) RunManyWorkers(cfgs []C, workers int) ([]M, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// One engine slot per worker: a task takes a slot for its run and
	// returns it, so no two tasks share an engine.
	slots := make(chan *workerEngine[C, M], min(workers, len(cfgs)))
	for range cap(slots) {
		slots <- &workerEngine[C, M]{}
	}
	return fanout.Map(len(cfgs), workers, func(i int) (M, error) {
		w := <-slots
		defer func() { slots <- w }()
		m, err := w.run(b, cfgs[i])
		if err != nil {
			// Name both the index and the config: in a generated batch a
			// validation failure from config k would otherwise be
			// indistinguishable from config j's.
			return m, fmt.Errorf("%s: run %d (%s): %w", b.Name, i,
				summary(b.Model(&cfgs[i]), b.Detail(&cfgs[i])), err)
		}
		return m, nil
	})
}

// Sweep builds and runs `points` configs derived from base: point i copies
// base and applies vary(i, &cfg) — the engines' Sweep first moves the seed
// to base.Seed + i — then the runs fan out across RunManyWorkers(workers)
// and the results come back in point order.
func (b Batch[C, M]) Sweep(base C, points, workers int, vary func(i int, cfg *C)) ([]M, error) {
	if points < 0 {
		return nil, fmt.Errorf("%s: sweep points %d < 0", b.Name, points)
	}
	cfgs := make([]C, points)
	for i := range cfgs {
		cfgs[i] = base
		vary(i, &cfgs[i])
	}
	return b.RunManyWorkers(cfgs, workers)
}

// packetBatch is the packet engine's Batch.
var packetBatch = Batch[Config, Metrics]{
	Name:   "simulator",
	Model:  (*Config).model,
	Detail: func(c *Config) string { return fmt.Sprintf("qcap=%d", c.QueueCap) },
	Seed:   func(c *Config) *int64 { return &c.Seed },
	New:    func(c Config) (Engine[Metrics], error) { return newSim(c) },
}

// RunMany executes every config as an independent run, fanning out across
// a worker pool of GOMAXPROCS goroutines (see RunManyWorkers).
func RunMany(cfgs []Config) ([]Metrics, error) {
	return RunManyWorkers(cfgs, 0)
}

// RunManyWorkers is RunMany with an explicit worker bound; workers <= 0
// means automatic sizing (see Batch.RunManyWorkers).
func RunManyWorkers(cfgs []Config, workers int) ([]Metrics, error) {
	return packetBatch.RunManyWorkers(cfgs, workers)
}

// Sweep builds and runs `points` configs derived from base: point i copies
// base, decorrelates the seed to base.Seed + i (the counter-based RNG
// hashes the seed into every draw, so even adjacent seeds give
// independent streams), then applies vary(i, &cfg) if vary is non-nil —
// vary may override any field, including the seed. The runs fan out
// across RunManyWorkers(workers) and the results come back in point
// order. This is the replica-sweep shape of the EXPERIMENTS.md workloads:
// many independent seeds (or operating points) of one scenario.
func Sweep(base Config, points, workers int, vary func(i int, cfg *Config)) ([]Metrics, error) {
	return packetBatch.Sweep(base, points, workers, func(i int, cfg *Config) {
		cfg.Seed += int64(i)
		if vary != nil {
			vary(i, cfg)
		}
	})
}
