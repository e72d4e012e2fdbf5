package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"iadm/internal/core"
	"iadm/internal/fleet"
	"iadm/internal/routesvc"
	"iadm/internal/topology"
)

// target is one layer's way in: a rung of the ladder, or the served stack.
type target interface {
	route(it item) answer
	batch(items []item, out []answer) []answer
	// mutate reports one fault or repair and returns the epoch each
	// replica acknowledged.
	mutate(o op) ([]uint64, error)
}

// httpTarget sends over a real socket with the repository's own client.
// Used from one goroutine it holds one keep-alive connection.
type httpTarget struct {
	rc   *routesvc.Client
	reqs []routesvc.RouteJSON
}

func newHTTPTarget(base string) *httpTarget { return &httpTarget{rc: routesvc.NewClient(base, 0)} }

func (t *httpTarget) close() { t.rc.HTTPClient().CloseIdleConnections() }

func (t *httpTarget) route(it item) answer {
	r, err := t.rc.Route(it.net, it.src, it.dst, it.scheme)
	if err != nil {
		return failure(err)
	}
	return wireAnswer(r)
}

func (t *httpTarget) batch(items []item, out []answer) []answer {
	t.reqs = wireRequests(t.reqs[:0], items)
	resp, err := t.rc.RouteBatch(t.reqs)
	return batchAnswers(items, resp, err, out)
}

func (t *httpTarget) mutate(o op) ([]uint64, error) {
	var ack mutateAck
	if err := t.rc.PostJSON(mutatePath(o), mutateBody(o), &ack); err != nil {
		return nil, err
	}
	return ack.epochs(), nil
}

// mutateAck decodes a backend's and the router's /fault and /repair
// answers alike: the router lists one ack per replica.
type mutateAck struct {
	Epoch uint64            `json:"epoch"`
	Acks  []fleet.MutateAck `json:"acks"`
}

func (a mutateAck) epochs() []uint64 {
	if len(a.Acks) == 0 {
		return []uint64{a.Epoch}
	}
	eps := make([]uint64, len(a.Acks))
	for i, x := range a.Acks {
		eps[i] = x.Epoch
	}
	return eps
}

func mutatePath(o op) string {
	if o.kind == opFault {
		return "/fault"
	}
	return "/repair"
}

func mutateBody(o op) routesvc.MutateJSON {
	return routesvc.MutateJSON{Net: o.net, Links: []string{o.link.Spec()}}
}

func wireRequests(dst []routesvc.RouteJSON, items []item) []routesvc.RouteJSON {
	for _, it := range items {
		dst = append(dst, routesvc.RouteJSON{Net: it.net, Src: it.src, Dst: it.dst, Scheme: it.scheme.String()})
	}
	return dst
}

func batchAnswers(items []item, resp routesvc.BatchJSON, err error, out []answer) []answer {
	for i := range items {
		switch {
		case err != nil:
			out = append(out, failure(err))
		case len(resp.Responses) != len(items):
			out = append(out, answer{code: codeMalformed})
		default:
			out = append(out, wireAnswer(resp.Responses[i]))
		}
	}
	return out
}

func wireAnswer(r routesvc.RouteJSON) answer {
	if r.Error != "" {
		return answer{code: r.Code}
	}
	return answer{ok: true, tag: r.Tag, path: r.Path, epoch: r.Epoch}
}

func failure(err error) answer {
	var apiErr *routesvc.APIError
	if errors.As(err, &apiErr) {
		return answer{code: apiErr.Code}
	}
	return answer{code: "transport"}
}

// serviceTarget calls the Service directly, through Multi.Get, as the
// handler does.
type serviceTarget struct {
	m     *routesvc.Multi
	order []string
	reqs  []routesvc.Request
	idx   []int
}

func (t *serviceTarget) route(it item) answer {
	svc, err := t.m.Get(it.net)
	if err != nil {
		return resultAnswer(routesvc.Result{}, err)
	}
	return resultAnswer(svc.Route(it.src, it.dst, it.scheme))
}

// batch groups the items by net in order of first appearance, as the
// handler does, so each Service sees its items in request order.
func (t *serviceTarget) batch(items []item, out []answer) []answer {
	base := len(out)
	out = append(out, make([]answer, len(items))...)
	t.order = t.order[:0]
	for _, it := range items {
		if !slices.Contains(t.order, it.net) {
			t.order = append(t.order, it.net)
		}
	}
	for _, net := range t.order {
		t.reqs, t.idx = t.reqs[:0], t.idx[:0]
		for i, it := range items {
			if it.net == net {
				t.reqs = append(t.reqs, routesvc.Request{Src: it.src, Dst: it.dst, Scheme: it.scheme})
				t.idx = append(t.idx, i)
			}
		}
		svc, err := t.m.Get(net)
		var res []routesvc.Result
		if err == nil {
			res, err = svc.RouteBatch(t.reqs)
		}
		for k, i := range t.idx {
			if err != nil {
				out[base+i] = resultAnswer(routesvc.Result{}, err)
				continue
			}
			out[base+i] = resultAnswer(res[k], res[k].Err)
		}
	}
	return out
}

func (t *serviceTarget) mutate(o op) ([]uint64, error) {
	svc, err := t.m.Get(o.net)
	if err != nil {
		return nil, err
	}
	links := []topology.Link{o.link}
	if o.kind == opFault {
		_, err = svc.ApplyFaults(links, nil)
	} else {
		_, err = svc.ApplyRepairs(links)
	}
	if err != nil {
		return nil, err
	}
	return []uint64{svc.Epoch()}, nil
}

func resultAnswer(res routesvc.Result, err error) answer {
	switch {
	case errors.Is(err, core.ErrNoPath):
		return answer{code: codeUnroutable}
	case err != nil:
		return answer{code: "error"}
	}
	return answer{ok: true, tag: res.Tag.String(), path: res.Path.Switches(), epoch: res.Epoch}
}

// recorderTarget serves through the HTTP handler into an
// httptest.ResponseRecorder: the handler and its codec with no socket.
// While tracing it times the handler call and, on each response, the wire
// type's decode and re-encode.
type recorderTarget struct {
	h    http.Handler
	tr   *tracer
	on   *atomic.Bool
	reqs []routesvc.RouteJSON
	enc  bytes.Buffer
}

func (t *recorderTarget) post(path string, in, out any, items int) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t0 := time.Now()
	t.h.ServeHTTP(rec, req)
	t1 := time.Now()
	if rec.Code/100 != 2 {
		var e struct{ Error, Code string }
		_ = json.Unmarshal(rec.Body.Bytes(), &e) // an undecodable body still leaves the status
		return &routesvc.APIError{Status: rec.Code, Code: e.Code, Msg: e.Error}
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		return err
	}
	t2 := time.Now()
	t.enc.Reset()
	enc := json.NewEncoder(&t.enc)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(out); err != nil {
		return err
	}
	t3 := time.Now()
	if items > 0 && t.on.Load() {
		t.tr.rec(0, "routesvc.recorder", 0, t0, t1, items)
		t.tr.rec(0, "codec.decode", 0, t1, t2, items)
		t.tr.rec(0, "codec.encode", 0, t2, t3, items)
	}
	return nil
}

func (t *recorderTarget) route(it item) answer {
	var r routesvc.RouteJSON
	in := routesvc.RouteJSON{Net: it.net, Src: it.src, Dst: it.dst, Scheme: it.scheme.String()}
	if err := t.post("/route", in, &r, 1); err != nil {
		return failure(err)
	}
	return wireAnswer(r)
}

func (t *recorderTarget) batch(items []item, out []answer) []answer {
	t.reqs = wireRequests(t.reqs[:0], items)
	var resp routesvc.BatchJSON
	err := t.post("/route/batch", routesvc.BatchJSON{Requests: t.reqs}, &resp, len(items))
	return batchAnswers(items, resp, err, out)
}

func (t *recorderTarget) mutate(o op) ([]uint64, error) {
	var ack mutateAck
	if err := t.post(mutatePath(o), mutateBody(o), &ack, 0); err != nil {
		return nil, err
	}
	return ack.epochs(), nil
}

// tally counts what a client sent and how it was answered.
type tally struct {
	attempted int64 // route items, mutations and simulator runs sent
	routed    int64 // route items answered correctly, unroutable ones included
	mutations int64 // mutations every replica acknowledged
	failed    int64 // refused, errored or lost
	invalid   int64 // answered wrongly
	first     error // the first wrong answer
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.routed += o.routed
	t.mutations += o.mutations
	t.failed += o.failed
	t.invalid += o.invalid
	if t.first == nil {
		t.first = o.first
	}
}

func (t *tally) bad(err error) {
	t.invalid++
	if t.first == nil {
		t.first = err
	}
}

// client is one closed-loop client: it sends its stream's next request
// only once the previous one is answered, as a source must hold its tag
// before it can inject a message.
type client struct {
	t    target
	s    *stream
	chk  *checker
	name string  // span name of its requests
	tr   *tracer // nil while untraced
	// open, when set, receives each request's span id before it is sent,
	// so the spans one layer down can name their parent.
	open *atomic.Uint64

	tally
	samples []sample  // route requests
	acks    []float64 // µs per fault or repair round trip
	answers []answer
	lo      []uint64
}

// sample is one timed route request.
type sample struct {
	us     float64
	routed int64     // items answered correctly
	at     time.Time // when the answer arrived
}

func (c *client) do(o op) {
	var id uint64
	if c.tr != nil && c.open != nil {
		id = c.tr.newID()
		c.open.Store(id)
	}
	switch o.kind {
	case opFault, opRepair:
		want := c.chk.expect(o)
		t0 := time.Now()
		eps, err := c.t.mutate(o)
		t1 := c.done(id, c.name+".mutate", t0, 0)
		c.acks = append(c.acks, micros(t1.Sub(t0)))
		c.attempted++
		if err != nil {
			c.failed++
			return
		}
		for _, e := range eps {
			if e != want {
				c.bad(fmt.Errorf("%s of %s on %s: a replica acknowledged epoch %d, want %d", mutatePath(o), o.link.Spec(), o.net, e, want))
				return
			}
		}
		c.chk.ack(o.net, want)
		c.mutations++
	case opRoute:
		it := o.items[0]
		lo := c.chk.acked(it.net)
		t0 := time.Now()
		a := c.t.route(it)
		t1 := c.done(id, c.name, t0, 1)
		r0 := c.routed
		c.account(it, a, lo)
		c.samples = append(c.samples, sample{us: micros(t1.Sub(t0)), routed: c.routed - r0, at: t1})
	case opBatch:
		c.lo = c.lo[:0]
		for _, it := range o.items {
			c.lo = append(c.lo, c.chk.acked(it.net))
		}
		t0 := time.Now()
		c.answers = c.t.batch(o.items, c.answers[:0])
		t1 := c.done(id, c.name, t0, len(o.items))
		r0 := c.routed
		for i, it := range o.items {
			c.account(it, c.answers[i], c.lo[i])
		}
		c.samples = append(c.samples, sample{us: micros(t1.Sub(t0)), routed: c.routed - r0, at: t1})
	}
}

// done ends a request begun at t0, recording its span when traced.
func (c *client) done(id uint64, name string, t0 time.Time, items int) time.Time {
	t1 := time.Now()
	if c.tr != nil {
		c.tr.rec(id, name, 0, t0, t1, items)
	}
	return t1
}

func (c *client) account(it item, a answer, lo uint64) {
	c.attempted++
	if err := c.chk.verify(it, a, lo); err != nil {
		c.bad(err)
		return
	}
	if a.ok || a.code == codeUnroutable {
		c.routed++
	} else {
		c.failed++
	}
}

// runFor drives every client closed-loop until d has passed, and returns
// when it started and the time taken.
func runFor(cs []*client, d time.Duration) (time.Time, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.do(c.s.next())
			}
		}(c)
	}
	wg.Wait()
	return start, time.Since(start)
}

// requestStats returns a measured phase's route rate and latency
// percentiles over every client's requests, and notes the request count and
// the p99. The printed tail is the p90: on a two-core host shared with other
// machines the p99 falls among requests stalled by garbage collection or by
// the host, and moved by up to half between runs of the same code.
func requestStats(samples [][]sample, start time.Time, elapsed time.Duration) (map[string]float64, []note) {
	var lat []float64
	for _, ss := range samples {
		for _, s := range ss {
			lat = append(lat, s.us)
		}
	}
	vals := map[string]float64{
		"routes_per_s":   routeRate(samples, start, elapsed),
		"latency_p50_us": quantile(lat, 0.50),
		"latency_p90_us": quantile(lat, 0.90),
	}
	return vals, []note{{"requests", "count", float64(len(lat))}, {"latency_p99_us", "us", quantile(lat, 0.99)}}
}

// Route rates are taken per rateWindow; a phase needs minWindows whole
// windows averaging minPerWindow requests for its windowed rate.
const (
	rateWindow   = time.Second
	minWindows   = 5
	minPerWindow = 100
)

// routeRate is the median over the phase's whole rateWindows of the items
// routed in each, per second. The host steals CPU in bursts of a few
// seconds, which move a whole-phase total by their length but leave the
// median window alone. A phase of too few requests to fill its windows
// gets the whole-phase rate.
func routeRate(samples [][]sample, start time.Time, elapsed time.Duration) float64 {
	var routed, requests int64
	windows := make([]float64, elapsed/rateWindow)
	for _, ss := range samples {
		for _, s := range ss {
			routed += s.routed
			requests++
			if w := int(s.at.Sub(start) / rateWindow); w >= 0 && w < len(windows) {
				windows[w] += float64(s.routed)
			}
		}
	}
	if len(windows) < minWindows || requests < int64(len(windows))*minPerWindow {
		return float64(routed) / elapsed.Seconds()
	}
	return quantile(windows, 0.5) / rateWindow.Seconds()
}

// warm sends every client's share of the warm-up, concurrently.
func warm(pl *plan, cs []*client) {
	var wg sync.WaitGroup
	for k, c := range cs {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for _, o := range warmup(pl, k, len(cs)) {
				c.do(o)
			}
		}(k, c)
	}
	wg.Wait()
}

// settle moves what the clients counted into sum and clears their
// samples, so that the next phase starts from zero.
func settle(cs []*client, sum *tally) {
	for _, c := range cs {
		sum.add(c.tally)
		c.tally = tally{}
		c.samples, c.acks = c.samples[:0], c.acks[:0]
	}
}
