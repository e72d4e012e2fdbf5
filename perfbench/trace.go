package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded on the benchmark's side of
// the call. Parent is the span that caused it, or 0 where none is known.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items,omitempty"`
}

// keptSpans bounds the spans held for the trace file; the totals count
// every span.
const keptSpans = 1 << 16

// total sums the spans, or derived durations, of one name.
type total struct{ n, items, ns int64 }

func (t total) nsPerItem() float64 { return ratio(float64(t.ns), float64(t.items)) }
func (t total) meanUs() float64    { return ratio(float64(t.ns), float64(t.n)) / 1e3 }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0     time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
	totals map[string]*total
}

func newTracer() *tracer { return &tracer{t0: time.Now(), totals: map[string]*total{}} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// rec records a span; id 0 draws a fresh id.
func (t *tracer) rec(id uint64, name string, parent uint64, start, end time.Time, items int) {
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(name, end.Sub(start).Nanoseconds(), items)
	if len(t.spans) < keptSpans {
		t.spans = append(t.spans, span{
			ID: id, Parent: parent, Name: name, Items: items,
			Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		})
	}
}

// add counts a derived duration, such as a self time, under name.
func (t *tracer) add(name string, ns int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(name, ns, 0)
}

func (t *tracer) addLocked(name string, ns int64, items int) {
	x := t.totals[name]
	if x == nil {
		x = &total{}
		t.totals[name] = x
	}
	x.n++
	x.items += int64(items)
	x.ns += ns
}

func (t *tracer) get(name string) total {
	t.mu.Lock()
	defer t.mu.Unlock()
	if x := t.totals[name]; x != nil {
		return *x
	}
	return total{}
}

// write writes the kept spans to path as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probe is the tracing state a rung's client and server-side wrappers
// share. The ladder's socket rungs run one client, so one request is in
// flight at a time and the span open one layer up is the parent of every
// span below it.
type probe struct {
	on       atomic.Bool
	client   atomic.Uint64 // the open client request
	router   atomic.Uint64 // the open router request
	children coverage      // backend spans under the open router request
}

// backend wraps a backend handler: each request is a span under the open
// router request, or else the open client request.
func (pr *probe) backend(tr *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !pr.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		parent := pr.router.Load()
		if parent == 0 {
			parent = pr.client.Load()
		}
		tr.rec(0, name+suffix(r), parent, t0, t1, 0)
		pr.children.add(t0, t1)
	})
}

// routerSpans wraps the router: each request is a span under the open
// client request, and a route request's self time is its span less the
// part its backend spans cover.
func (pr *probe) routerSpans(tr *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !pr.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id := tr.newID()
		pr.children.reset()
		pr.router.Store(id)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		pr.router.Store(0)
		tr.rec(id, name+suffix(r), pr.client.Load(), t0, t1, 0)
		if !isMutation(r) {
			tr.add(name+".self", t1.Sub(t0).Nanoseconds()-pr.children.covered(t0, t1))
		}
	})
}

// plain wraps a handler serving many clients at once: spans, unlinked.
func (pr *probe) plain(tr *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !pr.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		tr.rec(0, name+suffix(r), 0, t0, time.Now(), 0)
	})
}

func isMutation(r *http.Request) bool { return r.URL.Path == "/fault" || r.URL.Path == "/repair" }

func suffix(r *http.Request) string {
	if isMutation(r) {
		return ".mutate"
	}
	return ""
}

// coverage is the union of the child intervals under one open span.
type coverage struct {
	mu sync.Mutex
	iv [][2]int64
}

func (c *coverage) reset() {
	c.mu.Lock()
	c.iv = c.iv[:0]
	c.mu.Unlock()
}

func (c *coverage) add(s, e time.Time) {
	c.mu.Lock()
	c.iv = append(c.iv, [2]int64{s.UnixNano(), e.UnixNano()})
	c.mu.Unlock()
}

// covered returns how many nanoseconds of [s, e] the intervals cover.
func (c *coverage) covered(s, e time.Time) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	slices.SortFunc(c.iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var sum int64
	end, hi := s.UnixNano(), e.UnixNano()
	for _, x := range c.iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			sum += b - a
			end = b
		}
	}
	return sum
}
