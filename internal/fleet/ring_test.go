package fleet

import (
	"fmt"
	"testing"

	"iadm/internal/routesvc"
)

func testBackends(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://backend-%d:9000", i)
	}
	return out
}

func TestRingReplicaSets(t *testing.T) {
	r, err := NewRing(testBackends(5), 3)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 32; p++ {
		net := fmt.Sprintf("p%d", p)
		set := r.ReplicaSet(net)
		if len(set) != 3 {
			t.Fatalf("%s: replica set size %d, want 3", net, len(set))
		}
		seen := map[int]bool{}
		for _, b := range set {
			if b < 0 || b >= 5 {
				t.Fatalf("%s: backend index %d out of range", net, b)
			}
			if seen[b] {
				t.Fatalf("%s: duplicate backend %d in replica set %v", net, b, set)
			}
			seen[b] = true
		}
		// Memoized: the second lookup must return the identical slice.
		if again := r.ReplicaSet(net); &again[0] != &set[0] {
			t.Fatalf("%s: replica set not memoized", net)
		}
	}
}

func TestRingOwnerStableAndInSet(t *testing.T) {
	r, err := NewRing(testBackends(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			owner, set := r.Owner("p0", src, dst)
			in := false
			for _, b := range set {
				if b == owner {
					in = true
				}
			}
			if !in {
				t.Fatalf("owner %d not in replica set %v", owner, set)
			}
			if again, _ := r.Owner("p0", src, dst); again != owner {
				t.Fatalf("owner not stable for (%d,%d)", src, dst)
			}
		}
	}
}

// TestRingSpread checks the consistent-hash placement actually spreads:
// across many partitions every backend must own some primaries. With 64
// vnodes a backend owning zero of 256 partitions would mean a broken
// ring walk, not bad luck.
func TestRingSpread(t *testing.T) {
	r, err := NewRing(testBackends(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for p := 0; p < 256; p++ {
		set := r.ReplicaSet(fmt.Sprintf("part-%d", p))
		counts[set[0]]++
	}
	for b, c := range counts {
		if c == 0 {
			t.Fatalf("backend %d owns zero of 256 partitions: %v", b, counts)
		}
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(nil, 1); err == nil {
		t.Fatal("empty backend list accepted")
	}
	if _, err := NewRing(testBackends(2), 3); err == nil {
		t.Fatal("3 replicas over 2 backends accepted")
	}
}

// TestRingOwnerZeroAlloc pins the hot-path contract: once a partition's
// replica set is memoized, Owner must not allocate.
func TestRingOwnerZeroAlloc(t *testing.T) {
	r, err := NewRing(testBackends(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	r.ReplicaSet("p0") // warm the memo
	allocs := testing.AllocsPerRun(1000, func() {
		_, _ = r.Owner("p0", 3, 41)
	})
	if allocs != 0 {
		t.Fatalf("Owner allocates %.1f per call, want 0", allocs)
	}
}

// TestRingPlacementGolden pins placement to the values recorded before the
// ring's hash moved to internal/ctrrng: a change in the hash would silently
// move every partition and key to other backends across a fleet upgrade.
func TestRingPlacementGolden(t *testing.T) {
	pairs := [][2]int{{0, 0}, {1, 2}, {3, 1000}, {1023, 7}, {511, 512}, {65535, 1}}
	wantKey := []uint64{0xe220a8397b1dcdaf, 0xb3703ad894507022, 0xdc97fabb82cf456a,
		0x760356b8a535a2e7, 0x6aab9bef563f2fba, 0x34340dc4a0499736}
	for i, pr := range pairs {
		if got := keyHash(pr[0], pr[1]); got != wantKey[i] {
			t.Errorf("keyHash(%d, %d) = %#x, want %#x", pr[0], pr[1], got, wantKey[i])
		}
	}
	r, err := NewRing([]string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003",
		"127.0.0.1:7004", "127.0.0.1:7005"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		net    string
		set    []int
		owners []int
	}{
		{"", []int{1, 0, 2}, []int{0, 1, 1, 1, 1, 0}},
		{"p0", []int{1, 4, 2}, []int{4, 1, 1, 1, 1, 4}},
		{"p1", []int{3, 0, 1}, []int{0, 3, 3, 3, 3, 0}},
		{"p2", []int{3, 2, 4}, []int{2, 3, 3, 3, 3, 2}},
		{"p3", []int{4, 3, 1}, []int{3, 4, 4, 4, 4, 3}},
		{"alpha", []int{4, 0, 3}, []int{0, 4, 4, 4, 4, 0}},
	} {
		if got := r.ReplicaSet(c.net); fmt.Sprint(got) != fmt.Sprint(c.set) {
			t.Errorf("ReplicaSet(%q) = %v, want %v", c.net, got, c.set)
		}
		for i, pr := range pairs {
			if got, _ := r.Owner(c.net, pr[0], pr[1]); got != c.owners[i] {
				t.Errorf("Owner(%q, %d, %d) = %d, want %d", c.net, pr[0], pr[1], got, c.owners[i])
			}
		}
	}
}

// TestSinglePlacementMatchesOwnerAndBatch: over a sample of keys, a
// single route's replica order (placeSingle, one hash of the key) equals
// Ring.Owner at rank 0 and the batch placement ownerAt at every rank, so
// singles and batch items place a key on the same replicas.
func TestSinglePlacementMatchesOwnerAndBatch(t *testing.T) {
	rt, err := New(Config{Backends: testBackends(5), Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []string{"", "p0", "p1", "alpha"} {
		for src := 0; src < 64; src += 3 {
			for dst := 0; dst < 64; dst += 5 {
				set, pos := rt.placeSingle(net, src, dst)
				owner, _ := rt.ring.Owner(net, src, dst)
				if set[pos] != owner {
					t.Fatalf("%q (%d,%d): single owner %d, Ring.Owner %d", net, src, dst, set[pos], owner)
				}
				it := routesvc.BatchItem{Net: net, Src: src, Dst: dst}
				for rank := range set {
					single := rt.replica(set, pos, rank)
					if batch := rt.bks[rt.ownerAt(&it, rank)]; single != batch {
						t.Fatalf("%q (%d,%d) rank %d: single goes to %s, batch to %s",
							net, src, dst, rank, single.base, batch.base)
					}
				}
			}
		}
	}
}
