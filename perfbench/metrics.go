package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric names one printed figure. BENCHMARK.json lists the same names,
// units and directions; TestMetricsMatchManifest keeps the two in step.
type metric struct {
	name, unit, better string
}

// endToEnd is what a user of the routing service sees; every untraced run
// prints all of them. Each is defined on every workload: on the sim-sweep a
// route is a message a simulator delivers and a request is one replica
// sweep of both engines.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"routes_per_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p90_us", "us", "lower"},
	{"live_heap_mb", "MiB", "lower"},
}

// perLayer is what the traced ladder run derives from its spans and from
// the layers' own counters. README.md states which end-to-end metric each
// should move, and on which workload.
var perLayer = []metric{
	{"core.follow_ns", "ns", "lower"},
	{"core.sliced_ns_per_route", "ns", "lower"},
	{"controller.reroute_ns", "ns", "lower"},
	{"controller.hit_rate", "ratio", "higher"},
	{"routesvc.service_ns_per_route", "ns", "lower"},
	{"routesvc.ssdt_hit_rate", "ratio", "higher"},
	{"routesvc.tsdt_hit_rate", "ratio", "higher"},
	{"routesvc.coalesced_share", "ratio", "higher"},
	{"routesvc.admission_shed_share", "ratio", "lower"},
	{"routesvc.stale_entry_share", "ratio", "lower"},
	{"routesvc.sliced_lane_fill", "ratio", "higher"},
	{"routesvc.handler_us", "us", "lower"},
	{"routesvc.recorder_ns_per_route", "ns", "lower"},
	{"routesvc.encode_ns_per_route", "ns", "lower"},
	{"routesvc.decode_ns_per_route", "ns", "lower"},
	{"net.loopback_us", "us", "lower"},
	{"fleet.self_us", "us", "lower"},
	{"fleet.sub_batches_per_batch", "count", "lower"},
	{"fleet.ring_owner_ns", "ns", "lower"},
	{"fleet.fault_fanout_us", "us", "lower"},
	{"fleet.fault_ack_us", "us", "lower"},
	{"fleet.retries", "count", "lower"},
	{"fleet.hedges", "count", "lower"},
	{"go.allocs_per_route", "count", "lower"},
	{"go.bytes_per_route", "B", "lower"},
	{"go.gc_cpu_fraction", "ratio", "lower"},
	{"simulator.ns_per_cycle", "ns", "lower"},
	{"wormhole.ns_per_cycle", "ns", "lower"},
	{"simulator.allocs_per_cycle", "count", "lower"},
	{"wormhole.allocs_per_cycle", "count", "lower"},
	{"trace.routes_per_s", "1/s", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// note is a figure reported on standard error only: one that is not
// defined on every workload, or that describes the run itself.
type note struct {
	name, unit string
	value      float64
}

// collect turns measured values into the printed metrics of defs, refusing
// a missing, undeclared or non-finite one.
func collect(defs []metric, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[max(int(math.Ceil(q*float64(len(xs))))-1, 0)]
}

// ratio is a/b, or 0 when nothing was counted in b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
