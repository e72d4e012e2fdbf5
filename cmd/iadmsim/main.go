// Command iadmsim is an interactive front end to the IADM routing library:
// it draws networks, enumerates routing paths, routes messages with the
// paper's SSDT/TSDT destination tag schemes, and runs the universal REROUTE
// algorithm around blocked links.
//
// Usage:
//
//	iadmsim [-n N] draw                     # print the IADM network
//	iadmsim [-n N] icube                    # print the ICube network
//	iadmsim [-n N] paths <s> <d>            # all routing paths s -> d
//	iadmsim [-n N] route <s> <d>            # TSDT route with all-C states
//	iadmsim [-n N] reroute <s> <d> <link>... # REROUTE around blocked links
//	iadmsim [-n N] subgraph <x>             # cube subgraph for relabeling x
//	iadmsim scenario <file> <s> <d>         # REROUTE under a scenario file
//	iadmsim [-n N] connectivity <file>      # pair connectivity under a scenario
//	iadmsim [-n N] [-workers K] simulate <policy> <load> [replicas]
//	                                        # packet simulation (static|random|adaptive);
//	                                        # replicas > 1 fans seeds out over K workers
//	iadmsim [-n N] [-lanes K] [-depth F] [-flits P] [-traffic T] [-scenario file] wormhole <policy> <load> [replicas]
//	                                        # flit-level wormhole simulation with K virtual
//	                                        # lanes of F flits per link and P flits per packet
//	iadmsim [-n N] equiv                    # cube-type family equivalence table
//	iadmsim [-n N] multicast <s> <d>...     # one-to-many routing tree
//	iadmsim [-n N] reliability <s> <d> <q>  # exact pair reliability at link-failure prob q
//	iadmsim [-n N] explain <s> <d> <link>...# narrated REROUTE run
//
// Links are written stage:from:kind with kind one of -, 0, + (e.g. 1:2:-
// is the -2^1 link of switch 2 at stage 1). Scenario files use the format
// of internal/scenario (n/link/switch directives, plus lanes/depth for
// the wormhole command; scenarios carrying lanes/depth are rejected by
// the packet-mode scenario and connectivity commands). The -seed flag
// decorrelates any simulation command; replicas use seeds seed..seed+R-1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"iadm/internal/analysis"
	"iadm/internal/blockage"
	"iadm/internal/buildinfo"
	"iadm/internal/core"
	"iadm/internal/cubefamily"
	"iadm/internal/multicast"
	"iadm/internal/paths"
	"iadm/internal/profiling"
	"iadm/internal/render"
	"iadm/internal/scenario"
	"iadm/internal/simulator"
	"iadm/internal/stats"
	"iadm/internal/subgraph"
	"iadm/internal/topology"
	"iadm/internal/wormhole"
)

// options carries the flag-settable knobs into run; the zero value plus
// defaultOptions() matches the CLI defaults.
type options struct {
	N        int
	workers  int
	seed     int64
	lanes    int
	depth    int
	flits    int
	traffic  string
	scenPath string // wormhole command: fault scenario file
}

// defaultOptions mirrors the CLI flag defaults, for tests that call run
// directly.
func defaultOptions(N int) options {
	return options{N: N, seed: 1, lanes: 2, depth: 2, flits: 4, traffic: "uniform"}
}

func main() {
	n := flag.Int("n", 8, "network size N (power of two)")
	workers := flag.Int("workers", 0, "worker goroutines for multi-run commands (0 = GOMAXPROCS; each run steps on one)")
	seed := flag.Int64("seed", 1, "PRNG seed for simulation commands (replicas use seed..seed+R-1)")
	lanes := flag.Int("lanes", 2, "wormhole: virtual lanes per link (1..64)")
	depth := flag.Int("depth", 2, "wormhole: flit buffer depth per lane")
	flits := flag.Int("flits", 4, "wormhole: flits per packet")
	traffic := flag.String("traffic", "uniform", "wormhole traffic pattern (uniform|hotspot|bitcomplement|tornado)")
	scenPath := flag.String("scenario", "", "wormhole: fault scenario file (n/link/switch and optional lanes/depth directives)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the command to this file")
	memprofile := flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version("iadmsim"))
		return
	}
	o := options{
		N: *n, workers: *workers, seed: *seed,
		lanes: *lanes, depth: *depth, flits: *flits,
		traffic: *traffic, scenPath: *scenPath,
	}
	err := profiling.WithProfiles(*cpuprofile, *memprofile, func() error {
		return run(os.Stdout, o, flag.Args())
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "iadmsim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o options, args []string) error {
	N, workers := o.N, o.workers
	p, err := topology.NewParams(N)
	if err != nil {
		return err
	}
	if len(args) == 0 {
		return fmt.Errorf("missing command (draw, icube, paths, route, reroute, subgraph)")
	}
	switch args[0] {
	case "draw":
		fmt.Fprint(w, render.IADMTable(N))
		return nil
	case "icube":
		fmt.Fprint(w, render.ICubeTable(N))
		return nil
	case "paths":
		s, d, err := parsePair(p, args[1:])
		if err != nil {
			return err
		}
		fmt.Fprint(w, render.AllPathsFigure(p, s, d))
		return nil
	case "route":
		s, d, err := parsePair(p, args[1:])
		if err != nil {
			return err
		}
		tag, err := core.NewTag(p, d)
		if err != nil {
			return err
		}
		fmt.Fprint(w, render.TagTrace(p, s, tag))
		fmt.Fprint(w, render.PathGrid(tag.Follow(p, s)))
		return nil
	case "reroute":
		if len(args) < 3 {
			return fmt.Errorf("usage: reroute <s> <d> <link>...")
		}
		s, d, err := parsePair(p, args[1:3])
		if err != nil {
			return err
		}
		blk := blockage.NewSet(p)
		for _, spec := range args[3:] {
			l, err := topology.ParseLink(p, spec)
			if err != nil {
				return err
			}
			blk.Block(l)
		}
		fmt.Fprintf(w, "blocked links: %s\n", blk)
		tag, path, err := core.Reroute(p, blk, s, core.MustTag(p, d))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "rerouting tag: %s\npath: %s\n", tag, render.PathLine(path))
		fmt.Fprint(w, render.PathGrid(path))
		return nil
	case "subgraph":
		if len(args) != 2 {
			return fmt.Errorf("usage: subgraph <x>")
		}
		x, err := strconv.Atoi(args[1])
		if err != nil || x < 0 || x >= N {
			return fmt.Errorf("invalid relabeling %q", args[1])
		}
		fmt.Fprintf(w, "cube subgraph for relabeling j -> j+%d:\n", x)
		fmt.Fprint(w, render.SubgraphTable(subgraph.RelabeledState(p, x)))
		return nil
	case "scenario":
		if len(args) != 4 {
			return fmt.Errorf("usage: scenario <file> <s> <d>")
		}
		sc, err := loadPacketScenario(args[1])
		if err != nil {
			return err
		}
		s, d, err := parsePair(sc.Params, args[2:])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "scenario (N=%d): %d blocked links\n", sc.Params.Size(), sc.Blocked.Count())
		tag, path, rerr := core.Reroute(sc.Params, sc.Blocked, s, core.MustTag(sc.Params, d))
		if rerr != nil {
			if errors.Is(rerr, core.ErrNoPath) {
				fmt.Fprintf(w, "no blockage-free path from %d to %d exists\n", s, d)
				return nil
			}
			return rerr
		}
		fmt.Fprintf(w, "rerouting tag: %s\npath: %s\n", tag, render.PathLine(path))
		res, derr := core.DynamicReroute(sc.Params, sc.Blocked, s, d)
		if derr == nil {
			fmt.Fprintf(w, "dynamic: probes=%d backtrackHops=%d replans=%d\n",
				res.Probes, res.BacktrackHops, res.Replans)
		}
		return nil
	case "connectivity":
		if len(args) != 2 {
			return fmt.Errorf("usage: connectivity <file>")
		}
		sc, err := loadPacketScenario(args[1])
		if err != nil {
			return err
		}
		NN := sc.Params.Size()
		ok := 0
		for s := 0; s < NN; s++ {
			for d := 0; d < NN; d++ {
				if paths.Exists(sc.Params, s, d, sc.Blocked) {
					ok++
				}
			}
		}
		fmt.Fprintf(w, "connectivity: %d/%d pairs routable (%.1f%%)\n", ok, NN*NN, 100*float64(ok)/float64(NN*NN))
		return nil
	case "simulate":
		if len(args) < 3 || len(args) > 4 {
			return fmt.Errorf("usage: simulate <static|random|adaptive> <load> [replicas]")
		}
		pol, load, replicas, err := parseSimArgs(args)
		if err != nil {
			return err
		}
		base := simulator.Config{
			N: N, Policy: pol, Load: load, QueueCap: 4,
			Cycles: 5000, Warmup: 500, Seed: o.seed, Traffic: simulator.Uniform,
		}
		if replicas == 1 {
			m, err := simulator.Run(base)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "policy %s load %.2f: throughput %.4f, latency %s, maxQueue %d, refused %d\n",
				pol, load, m.Throughput, m.Latency.String(), m.MaxQueue, m.Refused)
			return nil
		}
		// Independent seeds fanned out over the worker pool; results come
		// back in seed order regardless of scheduling.
		ms, err := simulator.Sweep(base, replicas, workers, nil)
		if err != nil {
			return err
		}
		var tput, lat stats.Sample
		var pooled stats.Stream
		for i, m := range ms {
			fmt.Fprintf(w, "seed %d: throughput %.4f, latency %s\n", base.Seed+int64(i), m.Throughput, m.Latency.String())
			tput.Add(m.Throughput)
			lat.Add(m.Latency.Mean())
			pooled.Merge(&m.Latency)
		}
		fmt.Fprintf(w, "policy %s load %.2f over %d replicas: throughput %.4f ± %.4f, mean latency %.2f ± %.2f\n",
			pol, load, replicas, tput.Mean(), tput.StdDev(), lat.Mean(), lat.StdDev())
		// Per-packet latency pooled across replicas (Chan's parallel-moments
		// merge), versus the per-replica means above.
		fmt.Fprintf(w, "pooled latency: %s\n", pooled.String())
		return nil
	case "wormhole":
		if len(args) < 3 || len(args) > 4 {
			return fmt.Errorf("usage: wormhole <static|random|adaptive> <load> [replicas]")
		}
		pol, load, replicas, err := parseSimArgs(args)
		if err != nil {
			return err
		}
		base := wormhole.Config{
			N: N, Policy: pol, Load: load,
			PacketFlits: o.flits, Lanes: o.lanes, LaneDepth: o.depth,
			Cycles: 5000, Warmup: 500, Seed: o.seed,
		}
		switch o.traffic {
		case "uniform":
			base.Traffic = simulator.Uniform
		case "hotspot":
			// A mild hotspot: destination 0 draws an extra 20% of traffic.
			base.Traffic = simulator.Hotspot
			base.HotspotDest = 0
			base.HotspotFrac = 0.2
		case "bitcomplement":
			base.Traffic = simulator.BitComplementTraffic
		case "tornado":
			base.Traffic = simulator.Tornado
		default:
			return fmt.Errorf("unknown traffic pattern %q (want uniform, hotspot, bitcomplement or tornado)", o.traffic)
		}
		if o.scenPath != "" {
			sc, err := loadScenario(o.scenPath)
			if err != nil {
				return err
			}
			if sc.Params.Size() != N {
				return fmt.Errorf("scenario is for N=%d, run invoked with -n %d", sc.Params.Size(), N)
			}
			base.Blocked = sc.Blocked
			// Scenario lanes/depth directives pin the operating point,
			// overriding the flags.
			if sc.Lanes != 0 {
				base.Lanes = sc.Lanes
			}
			if sc.LaneDepth != 0 {
				base.LaneDepth = sc.LaneDepth
			}
		}
		if replicas == 1 {
			m, err := wormhole.Run(base)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "policy %s load %.2f (%d flits/packet, %d lanes x %d flits): throughput %.4f pkt (%.4f flit), latency %s, maxLaneDepth %d, dropped %d, refused %d\n",
				pol, load, base.PacketFlits, base.Lanes, base.LaneDepth,
				m.Throughput, m.FlitThroughput, m.Latency.String(), m.MaxLaneDepth, m.Dropped, m.Refused)
			return nil
		}
		ms, err := wormhole.Sweep(base, replicas, workers, nil)
		if err != nil {
			return err
		}
		var tput, lat stats.Sample
		for i, m := range ms {
			fmt.Fprintf(w, "seed %d: throughput %.4f pkt (%.4f flit), latency %s\n",
				base.Seed+int64(i), m.Throughput, m.FlitThroughput, m.Latency.String())
			tput.Add(m.Throughput)
			lat.Add(m.Latency.Mean())
		}
		fmt.Fprintf(w, "policy %s load %.2f over %d replicas: throughput %.4f ± %.4f, mean latency %.2f ± %.2f\n",
			pol, load, replicas, tput.Mean(), tput.StdDev(), lat.Mean(), lat.StdDev())
		return nil
	case "equiv":
		base := cubefamily.MustNew(cubefamily.GeneralizedCube, N).Layered()
		for _, kind := range cubefamily.Kinds() {
			nw := cubefamily.MustNew(kind, N)
			iso := subgraph.Isomorphic(nw.Layered(), base)
			fmt.Fprintf(w, "%-18s isomorphic to generalized-cube: %v\n", kind.String(), iso)
		}
		return nil
	case "explain":
		if len(args) < 3 {
			return fmt.Errorf("usage: explain <s> <d> <link>...")
		}
		s, d, err := parsePair(p, args[1:3])
		if err != nil {
			return err
		}
		blk := blockage.NewSet(p)
		for _, spec := range args[3:] {
			l, err := topology.ParseLink(p, spec)
			if err != nil {
				return err
			}
			blk.Block(l)
		}
		_, _, trace, rerr := core.RerouteTrace(p, blk, s, core.MustTag(p, d))
		for _, line := range trace {
			fmt.Fprintln(w, line)
		}
		if rerr != nil && !errors.Is(rerr, core.ErrNoPath) {
			return rerr
		}
		return nil
	case "multicast":
		if len(args) < 3 {
			return fmt.Errorf("usage: multicast <s> <d>...")
		}
		s, err := strconv.Atoi(args[1])
		if err != nil || !p.ValidSwitch(s) {
			return fmt.Errorf("invalid source %q", args[1])
		}
		dests := make([]int, 0, len(args)-2)
		for _, a := range args[2:] {
			d, err := strconv.Atoi(a)
			if err != nil || !p.ValidSwitch(d) {
				return fmt.Errorf("invalid destination %q", a)
			}
			dests = append(dests, d)
		}
		tree, err := multicast.Route(p, s, dests, nil)
		if err != nil {
			return err
		}
		for i, links := range tree.Stages {
			fmt.Fprintf(w, "stage %d:", i)
			for _, l := range links {
				fmt.Fprintf(w, " %s", l.StringIn(p))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "tree links: %d (unicasts would use %d)\n",
			tree.LinkCount(), multicast.UnicastLinkTotal(p, s, dests))
		return nil
	case "reliability":
		if len(args) != 4 {
			return fmt.Errorf("usage: reliability <s> <d> <q>")
		}
		s, d, err := parsePair(p, args[1:3])
		if err != nil {
			return err
		}
		q, err := strconv.ParseFloat(args[3], 64)
		if err != nil {
			return fmt.Errorf("bad probability %q", args[3])
		}
		r, err := analysis.PairReliability(p, s, d, q)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "IADM pair reliability P[path %d → %d survives | link failure prob %.3g] = %.6f\n", s, d, q, r)
		fmt.Fprintf(w, "single-path ICube reference: %.6f\n", analysis.ICubePairReliability(p, q))
		return nil
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// parseSimArgs parses the shared <policy> <load> [replicas] argument
// tail of the simulate and wormhole commands.
func parseSimArgs(args []string) (simulator.Policy, float64, int, error) {
	var pol simulator.Policy
	switch args[1] {
	case "static":
		pol = simulator.StaticC
	case "random":
		pol = simulator.RandomState
	case "adaptive":
		pol = simulator.AdaptiveSSDT
	default:
		return 0, 0, 0, fmt.Errorf("unknown policy %q", args[1])
	}
	load, err := strconv.ParseFloat(args[2], 64)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad load %q", args[2])
	}
	replicas := 1
	if len(args) == 4 {
		replicas, err = strconv.Atoi(args[3])
		if err != nil || replicas < 1 {
			return 0, 0, 0, fmt.Errorf("bad replica count %q", args[3])
		}
	}
	return pol, load, replicas, nil
}

func loadScenario(path string) (*scenario.Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return scenario.Parse(f)
}

// loadPacketScenario loads a scenario for a packet-mode consumer, which
// has no meaning for the wormhole-only lanes/depth directives and must
// reject scenarios carrying them.
func loadPacketScenario(path string) (*scenario.Scenario, error) {
	sc, err := loadScenario(path)
	if err != nil {
		return nil, err
	}
	if sc.Wormhole() {
		return nil, fmt.Errorf("scenario %s pins a wormhole operating point (lanes/depth); only the wormhole command accepts it", path)
	}
	return sc, nil
}

func parsePair(p topology.Params, args []string) (int, int, error) {
	if len(args) < 2 {
		return 0, 0, fmt.Errorf("need <s> <d>")
	}
	s, err := strconv.Atoi(args[0])
	if err != nil || !p.ValidSwitch(s) {
		return 0, 0, fmt.Errorf("invalid source %q", args[0])
	}
	d, err := strconv.Atoi(args[1])
	if err != nil || !p.ValidSwitch(d) {
		return 0, 0, fmt.Errorf("invalid destination %q", args[1])
	}
	return s, d, nil
}
