// Network controller: the paper's Section 5 assumes "a network controller
// responsible for collecting [blockage] information and maintaining a
// global map of blockages, which is accessible to every sender". This
// example runs that controller with many concurrent senders while links
// fail and get repaired, and reports how many tags it computed and the
// connectivity.
//
// Run with: go run ./examples/controller
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"

	"iadm/internal/controller"
	"iadm/internal/core"
	"iadm/internal/topology"
)

func main() {
	const N = 32
	ctl, err := controller.New(N)
	if err != nil {
		log.Fatal(err)
	}

	// Seed some faults.
	faults := []topology.Link{
		{Stage: 0, From: 3, Kind: topology.Plus},
		{Stage: 2, From: 17, Kind: topology.Minus},
		{Stage: 4, From: 8, Kind: topology.Plus},
	}
	for _, l := range faults {
		ctl.ReportFault(l)
	}
	fmt.Printf("initial faults: %v\n", ctl.Faults())
	fmt.Printf("connectivity: %.4f\n\n", ctl.Connectivity())

	// 16 concurrent senders route random messages; one goroutine churns
	// faults and repairs.
	var delivered, unroutable atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 200; i++ {
			l := faults[rng.Intn(len(faults))]
			if rng.Intn(2) == 0 {
				ctl.ReportFault(l)
			} else {
				ctl.ReportRepair(l)
			}
		}
		close(stop)
	}()

	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, d := rng.Intn(N), rng.Intn(N)
				tag, err := ctl.RouteTag(s, d)
				if err != nil {
					if errors.Is(err, core.ErrNoPath) {
						unroutable.Add(1)
						continue
					}
					log.Fatal(err)
				}
				if tag.Follow(ctl.Params(), s).Destination() != d {
					log.Fatalf("misrouted %d -> %d", s, d)
				}
				delivered.Add(1)
			}
		}(int64(g))
	}
	wg.Wait()

	st := ctl.Stats()
	fmt.Printf("routed %d messages concurrently (%d momentarily unroutable)\n",
		delivered.Load(), unroutable.Load())
	fmt.Printf("REROUTE: %d tags computed, %d failures\n", st.Misses, st.Fails)
	fmt.Printf("final faults: %v\nfinal connectivity: %.4f\n", ctl.Faults(), ctl.Connectivity())
}
