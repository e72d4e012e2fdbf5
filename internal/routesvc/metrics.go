package routesvc

import "iadm/internal/core"

// MergeMetrics accumulates src into dst, summing every counter and
// recomputing the derived fields, so callers can fold the per-network
// metrics of a Multi — or the per-backend metrics of a fleet — into one
// cluster-wide view. Epochs are per-network map versions, so the merged
// Epoch is the maximum (a display value; correctness never reads it).
// The admission gate is per process, not per network: callers that share
// one gate (Multi) must overwrite dst.Admission with the gate's own
// snapshot after merging, while callers folding distinct processes
// (fleet, iadmload -targets) get capacity-style sums from here.
func MergeMetrics(dst *Metrics, src Metrics) {
	if src.N > dst.N {
		dst.N = src.N
	}
	if src.Epoch > dst.Epoch {
		dst.Epoch = src.Epoch
	}
	dst.Requests += src.Requests
	dst.Unroutable += src.Unroutable
	dst.Invalid += src.Invalid
	dst.Faults += src.Faults
	dst.Repairs += src.Repairs
	dst.Invalidations += src.Invalidations
	dst.CacheEntriesLive += src.CacheEntriesLive
	dst.CacheEntriesStale += src.CacheEntriesStale
	dst.SSDT.Hits += src.SSDT.Hits
	dst.SSDT.Misses += src.SSDT.Misses
	dst.SSDT.Coalesced += src.SSDT.Coalesced
	dst.TSDT.Hits += src.TSDT.Hits
	dst.TSDT.Misses += src.TSDT.Misses
	dst.TSDT.Coalesced += src.TSDT.Coalesced
	dst.SlicedLanes += src.SlicedLanes
	dst.SlicedBlocks += src.SlicedBlocks
	mergeAdmission(&dst.Admission, src.Admission)
	dst.Controller.Hits += src.Controller.Hits
	dst.Controller.Misses += src.Controller.Misses
	dst.Controller.Fails += src.Controller.Fails
	if src.Controller.Epoch > dst.Controller.Epoch {
		dst.Controller.Epoch = src.Controller.Epoch
	}
	dst.Controller.BlockedLinks += src.Controller.BlockedLinks
	dst.Draining = dst.Draining || src.Draining
	if len(dst.BatchLatency) == 0 {
		dst.BatchLatency = append(dst.BatchLatency, src.BatchLatency...)
	} else {
		for i := range src.BatchLatency {
			if i >= len(dst.BatchLatency) {
				dst.BatchLatency = append(dst.BatchLatency, src.BatchLatency[i])
				continue
			}
			dst.BatchLatency[i].Count += src.BatchLatency[i].Count
			dst.BatchLatency[i].SumNs += src.BatchLatency[i].SumNs
		}
	}
	finalizeMetrics(dst)
}

// mergeAdmission sums two gate snapshots capacity-style: queue bounds
// add (three backends with 4 slots each are 12 slots of slow-path
// capacity), counters add, and the merged view is "enabled" when any
// constituent gate is.
func mergeAdmission(dst *AdmissionMetrics, src AdmissionMetrics) {
	dst.Enabled = dst.Enabled || src.Enabled
	dst.Depth += src.Depth
	dst.MaxQueue += src.MaxQueue
	dst.Admitted += src.Admitted
	dst.Shed += src.Shed
}

// finalizeMetrics recomputes every derived field from the summed
// counters.
func finalizeMetrics(m *Metrics) {
	m.SlicedFill = 0
	if m.SlicedBlocks > 0 {
		m.SlicedFill = float64(m.SlicedLanes) / float64(m.SlicedBlocks*core.Lanes)
	}
	for i := range m.BatchLatency {
		b := &m.BatchLatency[i]
		b.AvgUS = 0
		if b.Count > 0 {
			b.AvgUS = float64(b.SumNs) / float64(b.Count) / 1e3
		}
	}
}

// MergeMetricsJSON folds one scraped /metrics document into dst: the
// service and controller counters merge like MergeMetrics, the HTTP
// error counters add, and per-endpoint latency histograms merge exactly
// by path, their summary fields recomputed from the merged buckets. An
// endpoint of another histogram geometry (or whose buckets do not add up
// to its count) cannot merge exactly and is dropped, in dst as in src.
// iadmload -targets and the fleet router both aggregate scrapes with this.
func MergeMetricsJSON(dst *MetricsJSON, src MetricsJSON) {
	dst.Service.Controller = controllerStats(dst.Controller)
	srcService := src.Service
	srcService.Controller = controllerStats(src.Controller)
	MergeMetrics(&dst.Service, srcService)
	dst.Controller = controllerJSON(dst.Service.Controller)
	dst.HTTP5xx += src.HTTP5xx
	dst.HTTP429 += src.HTTP429
	if src.UptimeSec > dst.UptimeSec {
		dst.UptimeSec = src.UptimeSec
	}
	dst.Endpoints = mergeEndpoints(dst.Endpoints, src.Endpoints)
	dst.Networks = mergeNetworks(dst.Networks, src.Networks)
}

// mergeNetworks concatenates per-network summaries, summing entries for
// networks replicated on several backends (same net name scraped twice).
func mergeNetworks(dst, src []NetMetrics) []NetMetrics {
	for _, s := range src {
		found := false
		for i := range dst {
			if dst[i].Net == s.Net {
				dst[i].Requests += s.Requests
				if s.Epoch > dst[i].Epoch {
					dst[i].Epoch = s.Epoch
				}
				dst[i].Replicas += s.Replicas
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, s)
		}
	}
	return dst
}
