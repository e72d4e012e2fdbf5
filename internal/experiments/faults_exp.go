package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"iadm/internal/baseline"
	"iadm/internal/blockage"
	"iadm/internal/core"
	"iadm/internal/paths"
	"iadm/internal/simulator"
	"iadm/internal/topology"
)

func init() {
	register("E12", "Section 4 load balancing: adaptive SSDT vs static routing under traffic", runE12)
	register("E13", "Fault-tolerance coverage: SSDT / TSDT+REROUTE vs prior schemes", runE13)
}

func runE12() (string, error) {
	policies := []simulator.Policy{simulator.StaticC, simulator.RandomState, simulator.AdaptiveSSDT}
	loads := []float64{0.2, 0.4, 0.6, 0.8}
	// Build the whole grid of independent runs, fan it out across the
	// worker pool, then render the (order-preserved) results.
	var cfgs []simulator.Config
	for _, load := range loads {
		for _, pol := range policies {
			cfgs = append(cfgs, simulator.Config{
				N: 16, Policy: pol, Load: load, QueueCap: 4,
				Cycles: 4000, Warmup: 500, Seed: 7, Traffic: simulator.Uniform,
			})
		}
	}
	for _, pol := range policies {
		cfgs = append(cfgs, simulator.Config{
			N: 16, Policy: pol, Load: 0.4, QueueCap: 4,
			Cycles: 4000, Warmup: 500, Seed: 7,
			Traffic: simulator.Hotspot, HotspotDest: 0, HotspotFrac: 0.25,
		})
	}
	ms, err := simulator.RunMany(cfgs)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("cycle-level simulation, N=16, uniform traffic, queue capacity 4, 4000 cycles:\n")
	sb.WriteString(header("load", "policy", "throughput", "mean lat", "p99 lat", "max queue", "refused"))
	i := 0
	for _, load := range loads {
		for _, pol := range policies {
			m := ms[i]
			i++
			fmt.Fprintf(&sb, "%4.1f  %-13s  %10.4f  %8.2f  %7.0f  %9d  %7d\n",
				load, pol, m.Throughput, m.Latency.Mean(), m.Latency.Percentile(99), m.MaxQueue, m.Refused)
		}
	}
	sb.WriteString("\nhotspot traffic (25% of packets to destination 0), load 0.4:\n")
	sb.WriteString(header("policy", "throughput", "mean lat", "p99 lat", "max queue", "refused"))
	for _, pol := range policies {
		m := ms[i]
		i++
		fmt.Fprintf(&sb, "%-13s  %10.4f  %8.2f  %7.0f  %9d  %7d\n",
			pol, m.Throughput, m.Latency.Mean(), m.Latency.Percentile(99), m.MaxQueue, m.Refused)
	}
	return sb.String(), nil
}

func runE13() (string, error) {
	var sb strings.Builder
	sb.WriteString("fraction of (s,d) pairs routable under random link faults, N=16, averaged over 50 fault sets:\n")
	sb.WriteString(header("faults", "static", "Lee-Lee", "MS reroute", "MS lookahead", "SSDT", "TSDT+REROUTE", "oracle"))
	p := topology.MustParams(16)
	N := 16
	faultCounts := []int{1, 2, 4, 8, 16}
	// Each fault count seeds its own RNG, so the rows are independent and
	// can be computed in parallel without changing the report.
	rows, err := parmap(len(faultCounts), func(row int) (string, error) {
		nf := faultCounts[row]
		rng := rand.New(rand.NewSource(int64(1300 + nf)))
		var ok [7]int
		total := 0
		for trial := 0; trial < 50; trial++ {
			blk := blockage.NewSet(p)
			blk.RandomLinks(rng, nf)
			for s := 0; s < N; s++ {
				for d := 0; d < N; d++ {
					total++
					// 0: static distance tag (no rerouting).
					if _, hit := baseline.RouteDistanceStatic(p, s, d).FirstBlocked(blk); !hit {
						ok[0]++
					}
					// 1: Lee-Lee local control (single path, no rerouting).
					if _, hit := baseline.RouteLeeLee(p, s, d).FirstBlocked(blk); !hit {
						ok[1]++
					}
					// 2: McMillen-Siegel dynamic rerouting.
					if _, err := baseline.RouteMS(p, s, d, blk); err == nil {
						ok[2]++
					}
					// 3: with single-stage look-ahead.
					if _, err := baseline.RouteMSLookahead(p, s, d, blk); err == nil {
						ok[3]++
					}
					// 4: SSDT (state flip on nonstraight blockage).
					ns := core.NewNetworkState(p)
					if _, err := core.RouteSSDT(p, s, d, ns, blk); err == nil {
						ok[4]++
					}
					// 5: TSDT + universal REROUTE.
					if _, _, err := core.Reroute(p, blk, s, core.MustTag(p, d)); err == nil {
						ok[5]++
					}
					// 6: oracle (a path exists at all).
					if paths.Exists(p, s, d, blk) {
						ok[6]++
					}
				}
			}
		}
		pct := func(i int) float64 { return 100 * float64(ok[i]) / float64(total) }
		if ok[5] != ok[6] {
			return "", fmt.Errorf("TSDT+REROUTE (%d) differs from the oracle (%d) at %d faults", ok[5], ok[6], nf)
		}
		return fmt.Sprintf("%6d  %5.1f%%  %6.1f%%  %9.1f%%  %11.1f%%  %4.1f%%  %11.1f%%  %5.1f%%\n",
			nf, pct(0), pct(1), pct(2), pct(3), pct(4), pct(5), pct(6)), nil
	})
	if err != nil {
		return "", err
	}
	for _, row := range rows {
		sb.WriteString(row)
	}
	sb.WriteString("\nTSDT+REROUTE must equal the oracle column exactly (universality); the other schemes trail it\n")
	return sb.String(), nil
}
