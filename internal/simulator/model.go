package simulator

import (
	"fmt"
	"math"
	"math/bits"

	"iadm/internal/blockage"
	"iadm/internal/ctrrng"
	"iadm/internal/fanout"
	"iadm/internal/stats"
	"iadm/internal/topology"
)

// The network model both simulation engines step: the packet engine of
// this package and the flit-level engine of internal/wormhole. It holds
// everything the two share — the links and their switches, the transient
// fault process and static blockage, the SSDT routing ladder, the traffic
// source, the cycle loop, the shard partition with its accumulators, and
// the end-of-run metrics — and each engine embeds one Model by value and
// adds only its buffers (packet FIFOs; lanes, flits and credits) and their
// stepping.
//
// A run steps each cycle as phases: the fault process, then deliver (the
// last stage's links into the output ports), then stages n-2..0, then
// inject. Back to front, so a unit (packet or flit) advances at most one
// stage per cycle and a pop frees its slot for the upstream push phase of
// the same cycle. An engine steps them in one of two ways, set by its
// Spec. The packet engine has a Step: one call runs a whole cycle's
// phases on the calling goroutine, and IntraWorkers is ignored (sharding
// it measured slower than one core at every N, DESIGN §6). The
// wormhole engine has a Phase: the model calls it once per phase, on
// IntraWorkers shards. Its metrics are bit-identical for every shard
// count, the sequential case included, for two reasons:
//
//  1. Every random draw is a pure function of (seed, cycle, entity,
//     purpose) — see internal/ctrrng — so a draw's value does not depend
//     on which worker evaluates it or when.
//
//  2. Ownership sharding: each phase partitions the 0..N-1 switch columns
//     into contiguous ranges [ShardLo[k], ShardLo[k+1]), and shard k
//     touches only state its receiving switches own: their incoming links
//     (pops, and every per-link counter of those links), their own
//     outgoing links (pushes), and the load signal of those outgoing links
//     (AdaptiveSSDT). Outgoing links of distinct switches are distinct and
//     every link has one receiver, so operations on different receiving
//     switches commute; the projection of the sequential ascending-link
//     sweep onto one receiving switch is "its incoming links in ascending
//     dense index" — exactly the order of the In table. The phase order
//     means the links a phase pushes into were popped in an earlier,
//     barrier-separated phase, so a stage's pushes never race the next
//     stage's pops.
//
// Per-shard accumulators are cumulative over the run and merged by exact
// integer sums and maxes after each cycle (mergeCycle is a pure
// recompute), so the merged metrics depend on neither the shard count nor
// the merge timing. The latency histogram is summed once at the end of the
// run, and the one float-sensitive structure, the stats.Stream, is built
// from the merged integer histogram. The fault process runs sequentially
// before the first phase of a cycle (it is O(faults), not worth sharding)
// and is read-only during the phases.
//
// At two or more shards the phases run on fanout.Pool, whose helper
// goroutines are persistent: they park between runs and synchronize
// phases through an atomic counter, spinning briefly before they park, so
// a steady-state Runner run still performs zero heap allocations. At one
// shard the phases run inline.

// ModelConfig is the part of a run's configuration both engines share.
// Each engine's Config carries the same fields flat (documented there) and
// converts to it.
type ModelConfig struct {
	N            int
	Policy       Policy
	Load         float64
	Cycles       int
	Warmup       int
	Seed         int64
	Traffic      TrafficKind
	HotspotDest  int
	HotspotFrac  float64
	Perm         []int
	Switches     SwitchModel
	Blocked      *blockage.Set
	FaultRate    float64
	RepairCycles int
	IntraWorkers int
}

// Validate checks the shared fields against their documented ranges; name
// ("simulator", "wormhole") prefixes the error.
func (c ModelConfig) Validate(name string) error {
	if c.Load < 0 || c.Load > 1 {
		return fmt.Errorf("%s: load %v out of [0,1]", name, c.Load)
	}
	if c.Cycles < 1 {
		return fmt.Errorf("%s: cycles %d < 1", name, c.Cycles)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("%s: warmup %d < 0 (a negative warmup would skew the measurement window)", name, c.Warmup)
	}
	if c.Warmup+c.Cycles >= math.MaxInt32 {
		return fmt.Errorf("%s: warmup+cycles %d overflows the cycle counter", name, c.Warmup+c.Cycles)
	}
	if c.Traffic == PermutationTraffic {
		if len(c.Perm) != c.N {
			return fmt.Errorf("%s: permutation has %d entries, want %d", name, len(c.Perm), c.N)
		}
		// Out-of-range entries used to slip through here and panic deep in
		// the delivery sweep; repeated entries silently skewed the offered
		// pattern. Require a genuine permutation of 0..N-1 up front.
		seen := make([]bool, c.N)
		for src, dst := range c.Perm {
			if dst < 0 || dst >= c.N {
				return fmt.Errorf("%s: permutation maps source %d to %d, outside [0,%d)", name, src, dst, c.N)
			}
			if seen[dst] {
				return fmt.Errorf("%s: permutation maps two sources to destination %d", name, dst)
			}
			seen[dst] = true
		}
	}
	if c.Traffic == Hotspot {
		if c.HotspotDest < 0 || c.HotspotDest >= c.N {
			return fmt.Errorf("%s: hotspot destination %d out of range", name, c.HotspotDest)
		}
		if c.HotspotFrac < 0 || c.HotspotFrac > 1 {
			return fmt.Errorf("%s: hotspot fraction %v out of [0,1]", name, c.HotspotFrac)
		}
	}
	if c.Traffic == Tornado && c.N < 4 {
		// At N=2 the pattern (src + N/2 - 1) mod N is the identity: every
		// packet targets its own source and the run measures straight-link
		// self-traffic, not an adversarial stride workload.
		return fmt.Errorf("%s: tornado traffic degenerates to self-traffic at N=%d; need N >= 4", name, c.N)
	}
	if c.FaultRate < 0 || c.FaultRate > 1 {
		return fmt.Errorf("%s: fault rate %v out of [0,1]", name, c.FaultRate)
	}
	if c.FaultRate > 0 && c.RepairCycles < 0 {
		return fmt.Errorf("%s: repair cycles %d < 0 with fault rate %v", name, c.RepairCycles, c.FaultRate)
	}
	if c.IntraWorkers < 0 {
		return fmt.Errorf("%s: intra workers %d < 0", name, c.IntraWorkers)
	}
	return nil
}

// effectiveIntra is the shard count a config actually steps with: at
// least 1, at most one shard per switch column.
func effectiveIntra(intraWorkers, n int) int {
	p := intraWorkers
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	return p
}

// Draws are the draw-purpose constants of the draws the model makes on an
// engine's behalf. Each engine keeps its own (and its oracle repeats
// them), so the two engines' random streams stay disjoint.
type Draws struct {
	Load  uint64 // per-source injection Bernoulli
	Dst   uint64 // per-source uniform destination
	Hot   uint64 // per-source hotspot Bernoulli
	Fault uint64 // fault skip-chain
}

// Spec is what an engine tells its Model at construction.
type Spec struct {
	Name  string // prefix of errors and invariant panics
	Draws Draws
	// Load is AdaptiveSSDT's congestion signal, indexed by dense link: the
	// engine's own per-link occupancy (queued packets, queued flits). The
	// slice must live as long as the engine.
	Load []int32
	// Buffers is how many buffers each link has, the unit of the mean
	// occupancy.
	Buffers int
	// An engine sets one of Phase and Step. Phase runs shard k's slice of
	// one phase, and the model steps such an engine on IntraWorkers
	// shards. Step runs a whole cycle's phases at one shard, and the model
	// ignores IntraWorkers for such an engine. Check verifies the engine's
	// per-cycle invariants when they are armed.
	Phase func(k int, ph fanout.Phase)
	Step  func(cycle int, measured bool)
	Check func(cycle int)
}

// Shard is one shard's accumulator set, cumulative from cycle 0 of the
// current run. Counters of the measured window count packets, the Flits*
// counters flits (the wormhole engine only); OccDelta and the Ck*
// conservation shadows (warmup included) count the engine's queued unit,
// packets or flits. The pad keeps adjacent shards' hot counters off one
// cache line.
type Shard struct {
	Injected, Delivered, Dropped, Refused       int64
	FlitsInjected, FlitsDelivered, FlitsDropped int64
	OccDelta                                    int64
	CkIn, CkOut, CkDropped                      int64
	MaxOcc                                      int32
	LatHist                                     []int32
	_                                           [64]byte
}

func (sh *Shard) reset() {
	lat := sh.LatHist
	clear(lat)
	*sh = Shard{LatHist: lat}
}

// AddLatency counts one delivered packet and its latency in cycles.
// Latencies at or beyond the last histogram bucket are clamped into it.
func (sh *Shard) AddLatency(lat int) {
	sh.Delivered++
	if lat >= len(sh.LatHist) {
		lat = len(sh.LatHist) - 1
	}
	sh.LatHist[lat]++
}

// Totals are a run's merged packet and flit counters over the measured
// window.
type Totals struct {
	Injected, Delivered, Dropped, Refused       int
	FlitsInjected, FlitsDelivered, FlitsDropped int
}

// Result is the engine-independent part of a finished run's metrics. Its
// streams share storage with the Model until the next run.
type Result struct {
	Totals
	Latency         stats.Stream // cycles from injection to delivery
	MaxOcc          int          // largest buffer occupancy observed
	MeanOcc         float64      // time-average occupancy per buffer
	Throughput      float64      // packets delivered per cycle per source
	UtilStraight    stats.Stream // per-link forwards per measured cycle
	UtilNonstraight stats.Stream
}

// Model is the shared state of one configuration, embedded by value in
// each engine's sim. All per-link arrays are indexed by the dense link
// index (stage*N+from)*3 + kind, so a stage's links occupy one contiguous
// window.
type Model struct {
	P      topology.Params
	Stages int // n
	N      int // switches per stage
	L      int // 3*N*n links

	// ToOf[link] is the switch the link leads to at the next stage.
	// In[((r-1)*N+sw)*3 + j] is the j-th incoming link (ascending dense
	// index) of switch sw at column r, for r = 1..n (r = n is the output
	// column); nil for an engine without a Phase.
	ToOf []int32
	In   []int32

	// SingleInput: at most one unit passes through a switch per cycle.
	SingleInput bool

	// IntraP is the effective shard count (1 for an engine without a
	// Phase); shard k owns switch columns [ShardLo[k], ShardLo[k+1]) and
	// accumulates into Shards[k].
	IntraP  int
	ShardLo []int32
	Shards  []Shard

	// Forwards[link] counts units forwarded out of the link during
	// measured cycles, the utilization numerator.
	Forwards []int32

	spec Spec
	mc   ModelConfig
	rng  ctrrng.RNG
	pool *fanout.Pool

	// staticBlocked is the snapshot of the config's blockage set; blockable
	// is true when any link can ever be unusable (static blockage or
	// transient faults), letting the ladder skip blockage checks entirely.
	staticBlocked []bool
	hasStatic     bool
	blockable     bool

	// failUntil[link] is the first cycle at which a transiently failed link
	// works again, clamped to the run horizon (Warmup+Cycles) so that it
	// fits the int32; repair is RepairCycles clamped the same way.
	// invLn1mF is 1/ln(1-FaultRate) for geometric skip-sampling (0 when
	// FaultRate >= 1: every trial hits).
	failUntil      []int32
	faulty         bool
	repair         int
	horizon        int
	invLn1mF       float64
	nextFaultTrial int64
	nowCycle       int

	// Precomputed integer Bernoulli thresholds and the uniform destination
	// mask (N is a power of two, so a masked draw is exact).
	loadT, hotT uint64
	dstMask     uint64

	// The merged accumulators. latHist is folded from the shards at the
	// end of the run; occupied is the total of queued units.
	totals       Totals
	ck           [3]int64 // merged CkIn, CkOut, CkDropped
	occupied     int64
	queueSum     int64
	queueSamples int64
	maxOcc       int32
	latHist      []int32

	lat, utilS, utilN stats.Stream

	// check snapshots the engine's invariant switch at the start of a run.
	check bool
}

// Init allocates the model of a validated config with topology p.
func (m *Model) Init(p topology.Params, mc ModelConfig, spec Spec) {
	n, N := p.Stages(), mc.N
	L := 3 * N * n
	*m = Model{
		P: p, Stages: n, N: N, L: L,
		ToOf:        make([]int32, L),
		SingleInput: mc.Switches == SingleInput,
		IntraP:      1,
		Forwards:    make([]int32, L),
		spec:        spec,
		mc:          mc,
		failUntil:   make([]int32, L),
		faulty:      mc.FaultRate > 0,
		horizon:     mc.Warmup + mc.Cycles,
		loadT:       ctrrng.BernoulliThreshold(mc.Load),
		hotT:        ctrrng.BernoulliThreshold(mc.HotspotFrac),
		dstMask:     uint64(N - 1),
	}
	m.repair = min(mc.RepairCycles, m.horizon)
	for idx := 0; idx < L; idx++ {
		m.ToOf[idx] = int32(topology.LinkFromIndex(p, idx).To(p))
	}
	if mc.Blocked != nil {
		m.staticBlocked = make([]bool, L)
		for idx := 0; idx < L; idx++ {
			if mc.Blocked.Blocked(topology.LinkFromIndex(p, idx)) {
				m.staticBlocked[idx] = true
				m.hasStatic = true
			}
		}
	}
	if m.faulty && mc.FaultRate < 1 {
		m.invLn1mF = 1 / math.Log(1-mc.FaultRate)
	}
	m.blockable = m.hasStatic || m.faulty
	latBuckets := min(m.horizon+1, 1<<16)
	m.latHist = make([]int32, latBuckets)
	m.lat = stats.NewStream(1, latBuckets)
	m.utilS = stats.NewStream(1.0/1024, 1025)
	m.utilN = stats.NewStream(1.0/1024, 1025)
	if spec.Phase != nil { // the phases iterate In, on IntraWorkers shards
		m.IntraP = effectiveIntra(mc.IntraWorkers, N)
		m.buildIn()
	}
	m.ShardLo = make([]int32, m.IntraP+1)
	for k := 0; k <= m.IntraP; k++ {
		m.ShardLo[k] = int32(k * N / m.IntraP)
	}
	m.Shards = make([]Shard, m.IntraP)
	for k := range m.Shards {
		m.Shards[k].LatHist = make([]int32, latBuckets)
	}
	if m.IntraP > 1 {
		m.pool = fanout.NewPool(m.IntraP, spec.Phase)
	}
}

// buildIn fills the incoming-link table: row (r-1)*N+sw lists the three
// stage-(r-1) links into switch sw of column r, in ascending dense index.
func (m *Model) buildIn() {
	m.In = make([]int32, m.L)
	fill := make([]int8, m.Stages*m.N)
	for idx := 0; idx < m.L; idx++ {
		row := idx/(3*m.N)*m.N + int(m.ToOf[idx])
		m.In[row*3+int(fill[row])] = int32(idx)
		fill[row]++
	}
	for row, c := range fill {
		if c != 3 {
			panic(fmt.Sprintf("%s: switch row %d has %d incoming links, want 3", m.spec.Name, row, c))
		}
	}
}

// Base returns the model an engine embeds.
func (m *Model) Base() *Model { return m }

// Rewind resets the model to cycle 0 of a run with the given seed, reusing
// every buffer; check arms the invariant checkers for the run.
func (m *Model) Rewind(seed int64, check bool) {
	m.rng = ctrrng.New(seed)
	clear(m.failUntil)
	clear(m.Forwards)
	clear(m.latHist)
	m.totals = Totals{}
	m.ck = [3]int64{}
	m.occupied, m.queueSum, m.queueSamples = 0, 0, 0
	m.maxOcc = 0
	m.nowCycle = 0
	m.check = check
	m.lat.Reset()
	m.utilS.Reset()
	m.utilN.Reset()
	for k := range m.Shards {
		m.Shards[k].reset()
	}
	if m.faulty {
		m.nextFaultTrial = m.advanceFaultTrial(-1)
	}
}

// advanceFaultTrial walks the fault skip-chain one step: from trial
// position pos (flattened cycle*L + link; -1 before the first trial) to
// the next position whose Bernoulli(FaultRate) trial hits. Each skip draw
// is keyed by the position it starts from, so the whole chain — and
// therefore the fault pattern — is a pure function of the seed.
func (m *Model) advanceFaultTrial(pos int64) int64 {
	u := m.rng.Word(uint64(pos+1), 0, m.spec.Draws.Fault)
	return pos + ctrrng.GeometricSkipFromWord(u, m.invLn1mF)
}

// stepFaults injects and expires transient link failures for one cycle.
// Instead of one Bernoulli draw per link per cycle, the flattened
// (cycle, link) trial sequence is skip-sampled geometrically: expected
// cost is FaultRate*L per cycle rather than L. Trials landing on an
// already-failed link are discarded, which leaves every working link
// failing with exactly FaultRate per cycle. A repair due at or after the
// run horizon is stored as the horizon: the link stays failed to the end
// either way, and the cycle fits the int32.
func (m *Model) stepFaults(cycle int) {
	start := int64(cycle) * int64(m.L)
	end := start + int64(m.L)
	for m.nextFaultTrial < end {
		idx := int(m.nextFaultTrial - start)
		if int(m.failUntil[idx]) <= cycle {
			m.failUntil[idx] = int32(min(cycle+m.repair, m.horizon))
		}
		m.nextFaultTrial = m.advanceFaultTrial(m.nextFaultTrial)
	}
}

// linkBlocked reports whether a link is statically blocked or transiently
// failed right now.
func (m *Model) linkBlocked(idx int) bool {
	if m.hasStatic && m.staticBlocked[idx] {
		return true
	}
	return m.faulty && int(m.failUntil[idx]) > m.nowCycle
}

// Choose is the SSDT routing ladder: it picks the outgoing link of switch
// sw at the given stage for a unit to dst. Straight when the stage bit
// already matches; otherwise a nonstraight link chosen by the policy,
// which Theorem 3.1 makes safe, with blocked and failed links excluded.
// ok=false means no usable link exists and the unit must be dropped. The
// returned value is a dense link index. (cycle, entity, purpose) are the
// draw coordinates of the RandomState coin.
//
// The policy's pick is computed arithmetically rather than through a
// ladder of comparisons: minus is 1 when the policy takes the -2^stage
// link, and the link is base + 1 + ns*(1 - 2*minus), where ns is 1 when
// the stage bit must change. Only a picked link that is blocked costs a
// branch: a straight one drops, a nonstraight one falls to its sibling,
// which drops too when it is blocked. That equals the spelled-out ladder
// (a usable sibling of a blocked link wins, both blocked drop, both usable
// take the policy's pick) because every draw is a pure function of its
// coordinates, so a coin drawn for a unit that then takes the straight or
// the other link has no side effect. choose_test.go keeps the spelled-out
// ladder as the reference and compares the two exhaustively.
func (m *Model) Choose(stage, sw, dst, cycle int, entity, purpose uint64) (int, bool) {
	base := (stage*m.N + sw) * 3
	ns := ((sw ^ dst) >> uint(stage)) & 1
	minus := (sw >> uint(stage)) & 1 // state C: even_i uses +2^i, odd_i uses -2^i
	switch m.mc.Policy {
	case AdaptiveSSDT:
		// The less loaded link, ties to state C: minus iff
		// Load[minus] - Load[plus] - cbit < 0 (minus holds cbit until
		// here), read off the sign bit.
		d := int(m.spec.Load[base]) - int(m.spec.Load[base+2]) - minus
		minus = int(uint(d) >> (bits.UintSize - 1))
	case RandomState:
		minus = int(m.rng.Word(uint64(cycle), entity, purpose) & 1) // Bit's coin: 0 takes plus
	}
	idx := base + 1 + ns*(1-2*minus)
	if m.blockable && m.linkBlocked(idx) {
		if ns == 0 {
			return 0, false
		}
		idx = 2*base + 2 - idx // the other nonstraight link
		if m.linkBlocked(idx) {
			return 0, false
		}
	}
	return idx, true
}

// Starts is the traffic source's Bernoulli(Load) draw: whether source src
// starts a packet this cycle.
func (m *Model) Starts(src, cycle int) bool {
	return m.rng.Hit(m.loadT, uint64(cycle), uint64(src), m.spec.Draws.Load)
}

// Dest draws the destination of the packet source src starts this cycle.
func (m *Model) Dest(src, cycle int) int {
	c, e := uint64(cycle), uint64(src)
	switch m.mc.Traffic {
	case Uniform: // the common case, tested first
	case Hotspot:
		if m.rng.Hit(m.hotT, c, e, m.spec.Draws.Hot) {
			return m.mc.HotspotDest
		}
	case PermutationTraffic:
		return m.mc.Perm[src]
	case BitComplementTraffic:
		return m.N - 1 - src
	case Tornado:
		return (src + m.N/2 - 1) % m.N
	}
	return m.rng.Intn(m.dstMask, c, e, m.spec.Draws.Dst)
}

// run executes the configured cycles; Finish then derives the metrics.
func (m *Model) run() {
	// An engine with a Step runs each cycle in one call; one with a Phase
	// runs each phase inline at one shard, through the pool (with its
	// barrier) otherwise.
	phase, step := m.spec.Phase, m.spec.Step
	if pool := m.pool; pool != nil {
		pool.Unpark()
		phase = func(_ int, ph fanout.Phase) { pool.Dispatch(ph) }
	}
	for cycle := 0; cycle < m.horizon; cycle++ {
		measured := cycle >= m.mc.Warmup
		m.nowCycle = cycle
		if m.faulty {
			m.stepFaults(cycle)
		}
		if step != nil {
			step(cycle, measured)
		} else {
			phase(0, fanout.Phase{Kind: fanout.Deliver, Cycle: cycle, Measured: measured})
			for i := m.Stages - 2; i >= 0; i-- {
				phase(0, fanout.Phase{Kind: fanout.Stage, Stage: i, Cycle: cycle, Measured: measured})
			}
			phase(0, fanout.Phase{Kind: fanout.Inject, Cycle: cycle, Measured: measured})
		}
		m.mergeCycle()
		if measured {
			m.queueSum += m.occupied
			m.queueSamples += int64(m.L) * int64(m.spec.Buffers)
		}
		if m.check {
			m.spec.Check(cycle)
		}
	}
	if m.pool != nil {
		m.pool.Park()
	}
	m.merge()
	for k := range m.Shards {
		for v, c := range m.Shards[k].LatHist {
			m.latHist[v] += c
		}
	}
	if m.check && m.IntraP > 1 {
		m.checkShardMerge()
	}
}

// mergeCycle recomputes what the end of a cycle reads from the cumulative
// per-shard accumulators: the occupancy, and every merged total when the
// checkers are armed.
func (m *Model) mergeCycle() {
	if m.check {
		m.merge()
		return
	}
	var occ int64
	for k := range m.Shards {
		occ += m.Shards[k].OccDelta
	}
	m.occupied = occ
}

// merge recomputes the merged totals from the cumulative per-shard
// accumulators: exact integer sums and maxes, so the result is identical
// for every shard count and unaffected by when the merge runs.
func (m *Model) merge() {
	var t [7]int64
	var ck [3]int64
	var occ int64
	var mx int32
	for k := range m.Shards {
		sh := &m.Shards[k]
		t[0] += sh.Injected
		t[1] += sh.Delivered
		t[2] += sh.Dropped
		t[3] += sh.Refused
		t[4] += sh.FlitsInjected
		t[5] += sh.FlitsDelivered
		t[6] += sh.FlitsDropped
		occ += sh.OccDelta
		ck[0] += sh.CkIn
		ck[1] += sh.CkOut
		ck[2] += sh.CkDropped
		mx = max(mx, sh.MaxOcc)
	}
	m.totals = Totals{int(t[0]), int(t[1]), int(t[2]), int(t[3]), int(t[4]), int(t[5]), int(t[6])}
	m.ck = ck
	m.occupied = occ
	m.maxOcc = mx
}

// detachStreams leaves the streams of the last Finish to the metrics that
// hold them: the model continues with clones, so its next run cannot
// overwrite a result already handed out.
func (m *Model) detachStreams() {
	m.lat, m.utilS, m.utilN = m.lat.Clone(), m.utilS.Clone(), m.utilN.Clone()
}

// Finish derives the run-level metrics from the merged accumulators. The
// streams share storage with the model until the next run.
func (m *Model) Finish() Result {
	r := Result{Totals: m.totals, MaxOcc: int(m.maxOcc)}
	r.Throughput = float64(r.Delivered) / float64(m.mc.Cycles) / float64(m.N)
	if m.queueSamples > 0 {
		r.MeanOcc = float64(m.queueSum) / float64(m.queueSamples)
	}
	for v, c := range m.latHist {
		m.lat.AddN(float64(v), int(c))
	}
	if m.check {
		m.checkLatencyMass()
	}
	for idx := 0; idx < m.L; idx++ {
		util := float64(m.Forwards[idx]) / float64(m.mc.Cycles)
		if idx%3 != 1 { // kinds are Minus(0), Straight(1), Plus(2)
			m.utilN.Add(util)
		} else {
			m.utilS.Add(util)
		}
	}
	r.Latency, r.UtilStraight, r.UtilNonstraight = m.lat, m.utilS, m.utilN
	return r
}
