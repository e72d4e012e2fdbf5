package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iadm/internal/routesvc"
	"iadm/internal/stats"
)

// Config parameterizes a Router.
type Config struct {
	// Backends are the routesvc base URLs ("http://host:port").
	Backends []string
	// Replicas is the per-partition replica count R (every named network
	// lives on R distinct backends); 0 means min(2, len(Backends)).
	Replicas int
	// Vnodes is the virtual-node count per backend; 0 means 64.
	Vnodes int
	// HedgeAfter launches a second /route attempt at the next replica
	// when the primary has not answered within this duration; 0 disables
	// hedging. Only single-route requests hedge — a batch re-sends only
	// on failure, under the retry budget.
	HedgeAfter time.Duration
	// RetryFraction bounds router-initiated retries to this fraction of
	// observed requests (plus RetryBurst): a dying backend must not turn
	// the router into a load amplifier. 0 disables retries.
	RetryFraction float64
	// RetryBurst is the retry budget's constant headroom (lets the first
	// few failures retry even while the request count is tiny); 0 means
	// 10 when RetryFraction > 0.
	RetryBurst int
	// Timeout bounds each backend call; 0 means 10s.
	Timeout time.Duration
}

// backend is one routesvc target and its health counters.
type backend struct {
	base   string
	client *routesvc.Client

	reqs    atomic.Uint64 // calls sent (sub-batches count once)
	errs    atomic.Uint64 // transport errors + 5xx
	s429    atomic.Uint64 // overload sheds observed from this backend
	s5xx    atomic.Uint64 // 5xx statuses observed from this backend
	hedged  atomic.Uint64 // hedge attempts sent here
	retried atomic.Uint64 // retry attempts sent here
}

func (b *backend) observe(err error) {
	if err == nil {
		return
	}
	var apiErr *routesvc.APIError
	if errors.As(err, &apiErr) {
		switch {
		case apiErr.Status == http.StatusTooManyRequests:
			b.s429.Add(1)
			return // a shed is the backend protecting itself, not an error
		case apiErr.Status >= 500:
			b.s5xx.Add(1)
		}
	}
	b.errs.Add(1)
}

// retryable reports whether an error may be worth another replica:
// transport failures and 5xx (a draining replica's 503 included) are;
// 429 is not (retrying an overloaded cluster amplifies the overload) and
// 4xx is not (the request itself is bad).
func retryable(err error) bool {
	var apiErr *routesvc.APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500
	}
	return true
}

// retryBudget is the router-wide token budget for retries: retries are
// allowed while retries < fraction*requests + burst. Counters are
// independent atomics, so the bound is approximate under concurrency —
// by at most the number of in-flight requests, which is exactly the
// slack a budget needs anyway.
type retryBudget struct {
	frac    float64
	burst   int
	reqs    atomic.Uint64
	retries atomic.Uint64
}

func (b *retryBudget) note() { b.reqs.Add(1) }

func (b *retryBudget) allow() bool {
	if b.frac <= 0 {
		return false
	}
	if float64(b.retries.Load()) >= b.frac*float64(b.reqs.Load())+float64(b.burst) {
		return false
	}
	b.retries.Add(1)
	return true
}

// Router is the fleet front end: an http.Handler exposing the routesvc
// wire API, proxying each request to the backend(s) that own its
// partition.
type Router struct {
	cfg   Config
	ring  *Ring
	bks   []*backend
	n     int // network size, learned from the startup probe
	mux   *http.ServeMux
	start time.Time

	budget  retryBudget
	hedges  atomic.Uint64
	batches atomic.Uint64 // /route/batch requests
	subs    atomic.Uint64 // sub-batches fanned out
	http5xx atomic.Uint64
	http429 atomic.Uint64

	eps map[string]*latStream

	drainMu  sync.RWMutex
	draining bool
	inflight sync.WaitGroup
}

type latStream struct {
	mu sync.Mutex
	st stats.Stream
}

const (
	latBucketUS = 5
	latBuckets  = 4096
)

// New builds a Router over cfg.Backends. It does not contact them;
// call Probe before serving.
func New(cfg Config) (*Router, error) {
	if cfg.Replicas == 0 {
		cfg.Replicas = min(2, len(cfg.Backends))
	}
	ring, err := NewRing(cfg.Backends, cfg.Replicas, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	if cfg.RetryFraction > 0 && cfg.RetryBurst == 0 {
		cfg.RetryBurst = 10
	}
	rt := &Router{
		cfg:   cfg,
		ring:  ring,
		mux:   http.NewServeMux(),
		start: time.Now(),
		eps:   make(map[string]*latStream),
	}
	rt.budget.frac, rt.budget.burst = cfg.RetryFraction, cfg.RetryBurst
	for _, base := range ring.Backends() {
		rt.bks = append(rt.bks, &backend{base: base, client: routesvc.NewClient(base, cfg.Timeout)})
	}
	rt.handle("/route", rt.routeOne)
	rt.handle("/route/batch", rt.routeBatch)
	rt.handle("/fault", rt.fault)
	rt.handle("/repair", rt.repair)
	rt.handle("/prewarm", rt.prewarm)
	rt.handle("/healthz", rt.healthz)
	rt.handle("/metrics", rt.metrics)
	return rt, nil
}

// Probe checks every backend's /healthz and records the (required
// common) network size. A fleet over mismatched network sizes would
// silently mis-route, so mismatch is fatal.
func (rt *Router) Probe() error {
	n := -1
	for _, b := range rt.bks {
		h, err := b.client.Health()
		if err != nil {
			return fmt.Errorf("fleet: backend %s not healthy: %w", b.base, err)
		}
		if n == -1 {
			n = h.N
		} else if h.N != n {
			return fmt.Errorf("fleet: backend %s serves N=%d, others N=%d", b.base, h.N, n)
		}
	}
	rt.n = n
	return nil
}

// N returns the probed network size (0 before Probe).
func (rt *Router) N() int { return rt.n }

// Ring exposes the placement ring (read-only use).
func (rt *Router) Ring() *Ring { return rt.ring }

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Drain refuses new requests and waits for in-flight proxying (including
// fault fan-outs) to finish. The backends are NOT drained — they outlive
// the router and are drained by their own operators; the smoke harness
// drains router first, then backends, so no request is ever half-fanned.
func (rt *Router) Drain() {
	rt.drainMu.Lock()
	rt.draining = true
	rt.drainMu.Unlock()
	rt.inflight.Wait()
}

// Draining reports whether Drain has begun.
func (rt *Router) Draining() bool {
	rt.drainMu.RLock()
	defer rt.drainMu.RUnlock()
	return rt.draining
}

func (rt *Router) begin() error {
	rt.drainMu.RLock()
	if rt.draining {
		rt.drainMu.RUnlock()
		return routesvc.ErrDraining
	}
	rt.inflight.Add(1)
	rt.drainMu.RUnlock()
	return nil
}

func (rt *Router) end() { rt.inflight.Done() }

func (rt *Router) handle(path string, fn func(http.ResponseWriter, *http.Request)) {
	ls := &latStream{st: stats.NewStream(latBucketUS, latBuckets)}
	rt.eps[path] = ls
	rt.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if err := rt.begin(); err != nil {
			writeErrJSON(w, http.StatusServiceUnavailable, err, "draining", 0)
			return
		}
		defer rt.end()
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		fn(sw, r)
		switch {
		case sw.code >= 500 && sw.code != http.StatusServiceUnavailable:
			rt.http5xx.Add(1)
		case sw.code == http.StatusTooManyRequests:
			rt.http429.Add(1)
		}
		us := float64(time.Since(t0).Microseconds())
		ls.mu.Lock()
		ls.st.Add(us)
		ls.mu.Unlock()
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// writeJSON answers the router's cold endpoints (/fault, /repair,
// /prewarm, /healthz, /metrics) through encoding/json.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErrJSON(w http.ResponseWriter, status int, err error, code string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	wb := routesvc.GetWireBuf()
	wb.B = append(routesvc.AppendErrorJSON(wb.B, err.Error(), code), '\n')
	routesvc.WriteBody(w, status, wb.B)
	routesvc.PutWireBuf(wb)
}

// proxyErr maps a backend-call failure onto the router's own response:
// APIErrors pass through status and code (the router is transparent to
// backend semantics — a backend 429 is the client's 429, Retry-After
// included); transport errors become 502.
func (rt *Router) proxyErr(w http.ResponseWriter, err error) {
	var apiErr *routesvc.APIError
	if errors.As(err, &apiErr) {
		writeErrJSON(w, apiErr.Status, errors.New(apiErr.Msg), apiErr.Code, apiErr.RetryAfter)
		return
	}
	writeErrJSON(w, http.StatusBadGateway, err, "backend", 0)
}
