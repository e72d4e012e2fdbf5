package routesvc

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"iadm/internal/stats"
)

// Recorder serves a set of HTTP endpoints and records, per endpoint, every
// call's latency in microseconds into a stats.Latency histogram, and, for
// the whole set, the 5xx and 429 answers. Both the backend Handler and the
// fleet router serve through one, so their /metrics endpoints report the
// same histogram format and merge exactly across processes.
type Recorder struct {
	mux *http.ServeMux
	eps map[string]*endpoint

	http5xx atomic.Uint64
	http429 atomic.Uint64
}

// endpoint is one path's histogram. Each endpoint owns its lock, so hot
// /route traffic never serializes against /metrics or /route/batch
// recording.
type endpoint struct {
	mu  sync.Mutex
	lat stats.Latency
}

// NewRecorder returns a Recorder serving no endpoints.
func NewRecorder() *Recorder {
	return &Recorder{mux: http.NewServeMux(), eps: make(map[string]*endpoint)}
}

// Handle serves path with fn, timing and classifying every call. It must
// be called before the Recorder serves.
func (rec *Recorder) Handle(path string, fn http.HandlerFunc) {
	ep := &endpoint{}
	rec.eps[path] = ep
	rec.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		fn(sw, r)
		switch {
		case sw.code >= 500 && sw.code != http.StatusServiceUnavailable:
			// Drain refusals are intentional; anything else 5xx is a bug.
			rec.http5xx.Add(1)
		case sw.code == http.StatusTooManyRequests:
			rec.http429.Add(1)
		}
		us := uint64(max(time.Since(t0).Microseconds(), 0))
		ep.mu.Lock()
		ep.lat.Add(us)
		ep.mu.Unlock()
	})
}

// ServeHTTP implements http.Handler.
func (rec *Recorder) ServeHTTP(w http.ResponseWriter, r *http.Request) { rec.mux.ServeHTTP(w, r) }

// statusWriter captures the response code so the Recorder can count 5xx.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// HTTP5xx returns how many answers were 5xx other than 503 (a drain
// refusal is intentional).
func (rec *Recorder) HTTP5xx() uint64 { return rec.http5xx.Load() }

// HTTP429 returns how many answers shed load with 429.
func (rec *Recorder) HTTP429() uint64 { return rec.http429.Load() }

// Endpoints snapshots every endpoint's histogram in its wire form.
func (rec *Recorder) Endpoints() map[string]EndpointJSON {
	out := make(map[string]EndpointJSON, len(rec.eps))
	for path, ep := range rec.eps {
		ep.mu.Lock()
		out[path] = newEndpointJSON(&ep.lat)
		ep.mu.Unlock()
	}
	return out
}

// EndpointJSON is one endpoint's latency histogram on the wire. Count,
// SumUS, MinUS and MaxUS are exact, and so is MeanUS; the percentiles are
// bucket floors, at most 1/32 below the true nearest-rank value. Buckets
// lists the nonzero (index, count) pairs of a stats.Latency whose
// geometry SubBits names, so documents from several processes merge
// exactly (MergeMetricsJSON).
type EndpointJSON struct {
	Count  int     `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
	MaxUS  float64 `json:"max_us"`

	SumUS   uint64      `json:"sum_us"`
	MinUS   uint64      `json:"min_us"`
	SubBits int         `json:"sub_bits"`
	Buckets [][2]uint64 `json:"buckets"`
}

func newEndpointJSON(l *stats.Latency) EndpointJSON {
	return EndpointJSON{
		Count:   int(l.N()),
		MeanUS:  l.Mean(),
		P50US:   float64(l.Percentile(50)),
		P90US:   float64(l.Percentile(90)),
		P99US:   float64(l.Percentile(99)),
		MaxUS:   float64(l.Max()),
		SumUS:   l.Sum(),
		MinUS:   l.Min(),
		SubBits: stats.LatencySubBits,
		Buckets: l.Buckets(nil),
	}
}

// histogram rebuilds the endpoint's histogram. It reports false for a
// document of another geometry or one whose buckets do not add up to its
// count: such an endpoint cannot merge exactly.
func (e EndpointJSON) histogram() (stats.Latency, bool) {
	if e.SubBits != stats.LatencySubBits {
		return stats.Latency{}, false
	}
	l, err := stats.LatencyFromBuckets(e.Buckets, e.SumUS, e.MinUS, uint64(e.MaxUS))
	if err != nil || l.N() != uint64(e.Count) {
		return stats.Latency{}, false
	}
	return l, true
}

// mergeEndpoints merges two documents' endpoints by path. An endpoint
// that cannot merge exactly (histogram reports false) is dropped.
func mergeEndpoints(dst, src map[string]EndpointJSON) map[string]EndpointJSON {
	acc := make(map[string]*stats.Latency, max(len(dst), len(src)))
	for _, doc := range []map[string]EndpointJSON{dst, src} {
		for path, e := range doc {
			l, ok := e.histogram()
			if !ok {
				continue
			}
			if a := acc[path]; a != nil {
				a.Merge(&l)
			} else {
				acc[path] = &l
			}
		}
	}
	out := make(map[string]EndpointJSON, len(acc))
	for path, l := range acc {
		out[path] = newEndpointJSON(l)
	}
	return out
}
