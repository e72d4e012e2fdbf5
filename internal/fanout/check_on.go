//go:build simcheck

package fanout

// Simcheck is true under the simcheck build tag. It is the one switch for
// the invariant checks of the simulation stack: the simulator's and the
// wormhole engine's per-cycle checkers default on (conservation,
// queue-state agreement, latency mass), and Rows verifies its shard
// tiling. `make race` runs the whole test suite this way.
const Simcheck = true
