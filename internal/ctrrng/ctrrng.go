// Package ctrrng is the counter-based random number generator every
// simulation engine and oracle in the repository draws from, plus the
// splitmix64 hash the fleet ring places keys with.
//
// A draw is a pure function of (seed, cycle, entity, purpose) pushed
// through a splitmix64 finalizer, instead of a position in a sequential
// stream. So a draw does not depend on the order it is made in: an
// oracle that schedules its work differently from its engine still makes
// the same decisions, bit for bit. It also means policies that draw
// nothing consume nothing, so enabling or disabling one draw site never
// perturbs another.
//
// Callers own the meaning of the coordinates. Each engine keeps its own
// draw-purpose constants (arbitrary odd 64-bit values that put every draw
// site in a disjoint hash domain); an oracle that must make the same
// decisions as its engine uses the same constants, and its independence
// lives in its queue and arbitration logic, not in a private copy of
// this function.
package ctrrng

import "math"

// gamma is splitmix64's Weyl increment, 2^64 divided by the golden ratio.
const gamma = 0x9e3779b97f4a7c15

// Mix64 is the splitmix64 finalizer (Steele, Lea & Flood, OOPSLA 2014):
// a full-avalanche 64-bit permutation.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitMix64 is one splitmix64 output: the finalizer applied to x plus
// the Weyl increment.
func SplitMix64(x uint64) uint64 { return Mix64(x + gamma) }

// RNG is the counter-based generator: stateless apart from the seed.
type RNG struct {
	seed uint64
}

// New returns the generator for one run's seed.
func New(seed int64) RNG { return RNG{seed: uint64(seed)} }

// Word returns 64 uniformly random bits for the draw identified by
// (cycle, entity, purpose). Cycle and entity are spread by distinct odd
// multipliers before mixing (a bare XOR of two small integers would
// collide constantly: 1^2 == 3^0), and two finalizer rounds give full
// avalanche over the structured input.
func (r RNG) Word(cycle, entity, purpose uint64) uint64 {
	z := r.seed ^ purpose
	z += cycle * gamma
	z += entity * 0xd1b54a32d192ed03
	return Mix64(Mix64(z) + gamma)
}

// Intn returns a uniform value in [0, n) for n a power of two (mask n-1).
func (r RNG) Intn(mask, cycle, entity, purpose uint64) int {
	return int(r.Word(cycle, entity, purpose) & mask)
}

// Bit returns a fair coin flip.
func (r RNG) Bit(cycle, entity, purpose uint64) bool {
	return r.Word(cycle, entity, purpose)&1 == 0
}

// Hit reports one Bernoulli draw against a threshold from
// BernoulliThreshold.
func (r RNG) Hit(t, cycle, entity, purpose uint64) bool {
	return r.Word(cycle, entity, purpose) < t
}

// BernoulliThreshold converts a probability into an integer threshold t
// such that Word() < t holds with probability p, so per-cycle Bernoulli
// draws in the hot loop are a single integer compare instead of a float
// conversion. p >= 1 maps to MaxUint64 (a miss then has probability 2^-64,
// i.e. it will not occur within any feasible simulation length).
func BernoulliThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.MaxUint64
	}
	return uint64(p * float64(1<<63) * 2)
}

// GeometricSkipFromWord draws the number of Bernoulli(p) trials up to and
// including the next success from 64 uniform bits, via inversion:
// 1 + floor(ln U / ln(1-p)). invLn1mP must be 1/ln(1-p) (precomputed once
// per run); p >= 1 is signalled by invLn1mP == 0 and yields a skip of 1
// (every trial hits). The engines' fault injectors key each skip draw by
// the trial position it starts from, so the resulting fault pattern is a
// pure function of the seed — independent of worker count and of every
// other draw site — while still costing O(faults) instead of
// O(links * cycles).
func GeometricSkipFromWord(u uint64, invLn1mP float64) int64 {
	if invLn1mP == 0 {
		return 1
	}
	unit := (float64(u>>11) + 1) * (1.0 / (1 << 53)) // uniform in (0, 1]
	skip := int64(math.Log(unit)*invLn1mP) + 1
	if skip < 1 {
		return 1
	}
	return skip
}
