package fleet

import (
	"maps"
	"net/http"
	"sync"
	"time"

	"iadm/internal/routesvc"
)

// HealthJSON is the router's /healthz document.
type HealthJSON struct {
	Status        string  `json:"status"`
	N             int     `json:"n"`
	Backends      int     `json:"backends"`
	Replicas      int     `json:"replicas"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (rt *Router) healthz(w http.ResponseWriter, r *http.Request) {
	out := HealthJSON{
		Status:        "ok",
		N:             rt.n,
		Backends:      len(rt.bks),
		Replicas:      rt.ring.Replicas(),
		UptimeSeconds: time.Since(rt.start).Seconds(),
	}
	if rt.Draining() {
		out.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, out)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// BackendMetrics is one backend's router-side view.
type BackendMetrics struct {
	Base     string `json:"base"`
	Requests uint64 `json:"requests_total"`
	Errors   uint64 `json:"errors_total"`
	HTTP429  uint64 `json:"http_429"` // sheds observed from this backend
	HTTP5xx  uint64 `json:"http_5xx"`
	Retried  uint64 `json:"retried_total"`
	ScrapeOK bool   `json:"scrape_ok"`
}

// FleetMetricsJSON is the router-level section of the /metrics document.
// RouterLatency repeats the router-observed endpoint histograms;
// BackendLatency is the exact merge of the scraped backends' endpoint
// histograms, the fleet-wide server-side latency.
type FleetMetricsJSON struct {
	Backends       []BackendMetrics                 `json:"backends"`
	Hedges         uint64                           `json:"hedges_total"` // reads 0: nothing hedges; the benchmark compiles against it (DESIGN §12)
	Retries        uint64                           `json:"retries_total"`
	RetryBudget    float64                          `json:"retry_budget_fraction"`
	Batches        uint64                           `json:"batches_total"`
	SubBatches     uint64                           `json:"sub_batches_total"`
	ScrapeErrors   int                              `json:"scrape_errors"`
	RouterLatency  map[string]routesvc.EndpointJSON `json:"router_latency"`
	BackendLatency map[string]routesvc.EndpointJSON `json:"backend_latency"`
}

// MetricsJSON is the router's /metrics document: the merged backend
// scrape in the exact shape of a single backend's /metrics (so load
// generators and dashboards pointed at the router keep working), plus a
// "fleet" section with the router's own state. Endpoints carries the
// ROUTER-observed latency — the latency clients actually experience —
// and Fleet.BackendLatency the backends' merged histograms.
type MetricsJSON struct {
	routesvc.MetricsJSON
	Fleet FleetMetricsJSON `json:"fleet"`
}

// Metrics scrapes every backend concurrently and merges the documents.
func (rt *Router) Metrics() MetricsJSON {
	docs := make([]routesvc.MetricsJSON, len(rt.bks))
	errs := make([]error, len(rt.bks))
	var wg sync.WaitGroup
	for i, bk := range rt.bks {
		wg.Add(1)
		go func(i int, bk *backend) {
			defer wg.Done()
			docs[i], errs[i] = bk.client.Metrics()
		}(i, bk)
	}
	wg.Wait()

	var out MetricsJSON
	out.Fleet.Backends = make([]BackendMetrics, len(rt.bks))
	for i, bk := range rt.bks {
		out.Fleet.Backends[i] = BackendMetrics{
			Base:     bk.base,
			Requests: bk.reqs.Load(),
			Errors:   bk.errs.Load(),
			HTTP429:  bk.s429.Load(),
			HTTP5xx:  bk.s5xx.Load(),
			Retried:  bk.retried.Load(),
			ScrapeOK: errs[i] == nil,
		}
		if errs[i] != nil {
			out.Fleet.ScrapeErrors++
			continue
		}
		// Each scrape contributes one replica to every network it hosts.
		for j := range docs[i].Networks {
			if docs[i].Networks[j].Replicas == 0 {
				docs[i].Networks[j].Replicas = 1
			}
		}
		routesvc.MergeMetricsJSON(&out.MetricsJSON, docs[i])
	}
	// The router's own failures join the cluster totals: a 502 the router
	// manufactured is a 5xx the client saw, whichever host it blames.
	out.HTTP5xx += rt.rec.HTTP5xx()
	out.HTTP429 += rt.rec.HTTP429()
	out.UptimeSec = time.Since(rt.start).Seconds()

	out.Fleet.Retries = rt.budget.retries.Load()
	out.Fleet.RetryBudget = rt.budget.frac
	out.Fleet.Batches = rt.batches.Load()
	out.Fleet.SubBatches = rt.subs.Load()
	out.Fleet.BackendLatency = out.Endpoints
	out.Endpoints = rt.rec.Endpoints()
	out.Fleet.RouterLatency = maps.Clone(out.Endpoints)
	return out
}

func (rt *Router) metrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Metrics())
}
