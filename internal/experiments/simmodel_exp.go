package experiments

import (
	"fmt"
	"strings"

	"iadm/internal/controller"
	"iadm/internal/core"
	"iadm/internal/simulator"
	"iadm/internal/topology"
)

func init() {
	register("E20", "Switch-model ablation: Gamma 3x3 crossbars vs IADM single-input switches", runE20)
	register("E21", "Transient link failures: adaptive routing and the network controller under churn", runE21)
}

func runE20() (string, error) {
	type tr struct {
		kind simulator.TrafficKind
		frac float64
	}
	traffics := []tr{{simulator.Uniform, 0}, {simulator.Hotspot, 0.4}}
	loads := []float64{0.4, 0.8}
	models := []simulator.SwitchModel{simulator.Crossbar, simulator.SingleInput}
	var cfgs []simulator.Config
	for _, traffic := range traffics {
		for _, load := range loads {
			for _, model := range models {
				cfgs = append(cfgs, simulator.Config{
					N: 16, Policy: simulator.AdaptiveSSDT, Load: load, QueueCap: 4,
					Cycles: 4000, Warmup: 500, Seed: 20,
					Traffic: traffic.kind, HotspotDest: 0, HotspotFrac: traffic.frac,
					Switches: model,
				})
			}
		}
	}
	ms, err := simulator.RunMany(cfgs)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("cycle-level simulation, N=16, adaptive-SSDT policy, queue capacity 4:\n")
	sb.WriteString(header("traffic", "load", "switch model", "throughput", "mean lat", "p99 lat"))
	i := 0
	for _, traffic := range traffics {
		for _, load := range loads {
			for _, model := range models {
				m := ms[i]
				i++
				fmt.Fprintf(&sb, "%-7s  %4.1f  %-12s  %10.4f  %8.2f  %7.0f\n",
					traffic.kind, load, model, m.Throughput, m.Latency.Mean(), m.Latency.Percentile(99))
			}
		}
	}
	sb.WriteString("\nthe IADM's one-input-per-switch constraint caps throughput below the Gamma\ncrossbar wherever traffic converges; with light uniform traffic the models coincide\n")
	return sb.String(), nil
}

func runE21() (string, error) {
	var sb strings.Builder
	sb.WriteString("transient link failures (each link fails with rate f per cycle, repairs after 30 cycles),\nN=16, load 0.4, adaptive-SSDT routing:\n")
	sb.WriteString(header("fault rate", "delivered", "dropped", "drop rate", "mean lat"))
	rates := []float64{0, 0.001, 0.005, 0.02}
	cfgs := make([]simulator.Config, len(rates))
	for i, f := range rates {
		cfgs[i] = simulator.Config{
			N: 16, Policy: simulator.AdaptiveSSDT, Load: 0.4, QueueCap: 4,
			Cycles: 4000, Warmup: 500, Seed: 21, Traffic: simulator.Uniform,
			FaultRate: f, RepairCycles: 30,
		}
	}
	ms, err := simulator.RunMany(cfgs)
	if err != nil {
		return "", err
	}
	for i, f := range rates {
		m := ms[i]
		tot := m.Delivered + m.Dropped
		rate := 0.0
		if tot > 0 {
			rate = float64(m.Dropped) / float64(tot)
		}
		fmt.Fprintf(&sb, "%10.3f  %9d  %7d  %8.4f  %8.2f\n", f, m.Delivered, m.Dropped, rate, m.Latency.Mean())
	}

	// Network controller under churn: report faults/repairs, count the
	// REROUTE computations and measure end connectivity.
	sb.WriteString("\nnetwork controller (Section 5) under a fault/repair sequence, N=16:\n")
	ctl, err := controller.New(16)
	if err != nil {
		return "", err
	}
	p := ctl.Params()
	m := topology.IADM{Params: p}
	var seq []topology.Link
	m.Links(func(l topology.Link) bool {
		if l.Kind.Nonstraight() && (l.From+l.Stage)%5 == 0 {
			seq = append(seq, l)
		}
		return true
	})
	routed, failed := 0, 0
	var first [16 * 16]core.Tag
	for round, l := range seq {
		ctl.ReportFault(l)
		// Two request sweeps per epoch: with no stored state, the second
		// recomputes every tag, and must answer exactly as the first.
		for sweep := 0; sweep < 2; sweep++ {
			for s := 0; s < 16; s++ {
				for d := 0; d < 16; d++ {
					tag, err := ctl.RouteTag(s, d)
					if err != nil {
						failed++
					} else {
						routed++
					}
					if sweep == 0 {
						first[s*16+d] = tag
					} else if tag != first[s*16+d] {
						return "", fmt.Errorf("controller: epoch %d pair (%d, %d) answered %v, then %v", ctl.Epoch(), s, d, first[s*16+d], tag)
					}
				}
			}
		}
		if round%2 == 1 {
			ctl.ReportRepair(l)
		}
	}
	st := ctl.Stats()
	if st.Misses != uint64(routed+failed) {
		return "", fmt.Errorf("controller: %d computations for %d requests", st.Misses, routed+failed)
	}
	fmt.Fprintf(&sb, "fault rounds: %d, route requests: %d (%d unroutable)\n", len(seq), routed+failed, failed)
	fmt.Fprintf(&sb, "REROUTE: %d tags computed, %d failures; final connectivity %.3f\n",
		st.Misses, st.Fails, ctl.Connectivity())
	return sb.String(), nil
}
