//go:build !simcheck

package fanout

// Simcheck is false in normal builds: the invariant checkers cost
// O(links) per cycle and stay out of production and benchmark runs.
// Build with -tags simcheck to arm them (see check_on.go).
const Simcheck = false
