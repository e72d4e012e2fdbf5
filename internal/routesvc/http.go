package routesvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"iadm/internal/controller"
	"iadm/internal/core"
	"iadm/internal/topology"
)

// Handler is the HTTP front of a Service: a stdlib net/http mux serving
//
//	GET|POST /route        one tag request (?src=&dst=&scheme= or JSON body)
//	POST     /route/batch  many tag requests in one round trip
//	                       (?answers=tags: items carry tag and epoch only)
//	POST     /fault        link/switch fault reports
//	POST     /repair       link repair reports
//	GET      /healthz      liveness + drain state
//	GET      /metrics      JSON metrics (request counters, epoch, latency)
//
// Every endpoint is served through a Recorder, which records each call's
// latency in a log-bucketed stats.Latency histogram (microseconds, exact
// below 64 µs and within 1/32 above) and counts 5xx and 429 answers;
// /metrics ships the histograms in a sparse form that MergeMetricsJSON
// merges exactly across backends.
//
// Overload: slow-path requests shed by admission control answer 429 with
// a Retry-After header; batch items shed inside a 200 response carry
// "code":"overload". 429s are counted separately from 5xx — a shed is the
// service protecting itself, not failing.
// Multi-network mode: a Handler built with NewMultiHandler serves many
// named networks from one process. Requests select theirs with a "net"
// field (JSON) or ?net= (query); the empty name is DefaultNet. A Handler
// built with NewHandler serves exactly one network and ignores "net",
// so single-network deployments and their clients are unchanged.
type Handler struct {
	svc   *Service // single-network mode (NewHandler)
	multi *Multi   // multi-network mode (NewMultiHandler)
	rec   *Recorder
	start time.Time
}

// NewHandler wraps one service in its HTTP API (single-network mode).
func NewHandler(svc *Service) *Handler {
	h := newHandler()
	h.svc = svc
	return h
}

// NewMultiHandler wraps a multi-network host in the same HTTP API; the
// "net" request field selects the network.
func NewMultiHandler(m *Multi) *Handler {
	h := newHandler()
	h.multi = m
	return h
}

func newHandler() *Handler {
	h := &Handler{rec: NewRecorder(), start: time.Now()}
	h.rec.Handle("/route", h.routeOne)
	h.rec.Handle("/route/batch", h.routeBatch)
	h.rec.Handle("/fault", h.fault)
	h.rec.Handle("/repair", h.repair)
	h.rec.Handle("/healthz", h.healthz)
	h.rec.Handle("/metrics", h.metrics)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.rec.ServeHTTP(w, r) }

// writeJSON answers the cold endpoints (/fault, /repair, /healthz,
// /metrics) through encoding/json; /route and /route/batch answer through
// the wire codec (wire.go).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

type errJSON struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// errStatus maps a service error to its HTTP status.
func errStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverload):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrNoPath):
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// errCode classifies a service error for the wire, so batch clients can
// tell a shed item ("overload": retry later) from an unroutable pair
// ("unroutable": retrying is pointless) without string-matching messages.
func errCode(err error) string {
	switch {
	case errors.Is(err, ErrOverload):
		return "overload"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrInvalid):
		return "invalid"
	case errors.Is(err, core.ErrNoPath):
		return "unroutable"
	}
	return ""
}

// service resolves the network a request addressed. Single-network
// handlers ignore the name; multi-network handlers create the net
// lazily (or refuse it: draining, or over the -max-nets cap).
func (h *Handler) service(net string) (*Service, error) {
	if h.multi != nil {
		return h.multi.Get(net)
	}
	return h.svc, nil
}

func (h *Handler) writeErr(w http.ResponseWriter, err error) {
	code := errStatus(err)
	if code == http.StatusTooManyRequests {
		// The gate is fail-fast and its bound fixed: a slot frees as
		// soon as one compute finishes, so one second is ample.
		w.Header().Set("Retry-After", "1")
	}
	wb := GetWireBuf()
	wb.B = append(AppendErrorJSON(wb.B, err.Error(), errCode(err)), '\n')
	WriteBody(w, code, wb.B)
	PutWireBuf(wb)
}

// RouteJSON is the wire form of one route request/response. Net selects
// the target network on multi-network hosts (empty = DefaultNet) and is
// echoed on responses.
type RouteJSON struct {
	Net    string `json:"net,omitempty"`
	Src    int    `json:"src"`
	Dst    int    `json:"dst"`
	Scheme string `json:"scheme"`
	// Response fields.
	Tag       string `json:"tag,omitempty"`
	Path      []int  `json:"path,omitempty"`
	Epoch     uint64 `json:"epoch,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Error     string `json:"error,omitempty"`
	Code      string `json:"code,omitempty"`
}

// parseRouteReq accepts GET query parameters or a POST JSON body, and
// returns the addressed network alongside the request.
func parseRouteReq(r *http.Request) (string, Request, error) {
	var net, src, dst string
	var scheme string
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		net, src, dst, scheme = q.Get("net"), q.Get("src"), q.Get("dst"), q.Get("scheme")
	case http.MethodPost:
		var body RouteJSON
		wb := GetWireBuf()
		err := wb.ReadAll(r.Body, r.ContentLength)
		if err == nil {
			err = DecodeRouteJSON(wb.B, &body)
		}
		PutWireBuf(wb)
		if err != nil {
			return "", Request{}, fmt.Errorf("%w: bad JSON body: %v", ErrInvalid, err)
		}
		sc, err := ParseScheme(body.Scheme)
		if err != nil {
			return "", Request{}, err
		}
		return body.Net, Request{Src: body.Src, Dst: body.Dst, Scheme: sc}, nil
	default:
		return "", Request{}, fmt.Errorf("%w: method %s", ErrInvalid, r.Method)
	}
	s, err := strconv.Atoi(src)
	if err != nil {
		return "", Request{}, fmt.Errorf("%w: bad src %q", ErrInvalid, src)
	}
	d, err := strconv.Atoi(dst)
	if err != nil {
		return "", Request{}, fmt.Errorf("%w: bad dst %q", ErrInvalid, dst)
	}
	sc, err := ParseScheme(scheme)
	if err != nil {
		return "", Request{}, err
	}
	return net, Request{Src: s, Dst: d, Scheme: sc}, nil
}

func (h *Handler) routeOne(w http.ResponseWriter, r *http.Request) {
	net, req, err := parseRouteReq(r)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	svc, err := h.service(net)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	res, err := svc.Route(req.Src, req.Dst, req.Scheme)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	wb := GetWireBuf()
	wb.B = append(appendResult(wb.B, net, &res), '\n')
	WriteBody(w, http.StatusOK, wb.B)
	PutWireBuf(wb)
}

// BatchJSON is the wire form of a /route/batch exchange.
type BatchJSON struct {
	Requests []RouteJSON `json:"requests"`
	// Response fields.
	Responses []RouteJSON `json:"responses,omitempty"`
	Epoch     uint64      `json:"epoch,omitempty"`
}

// batchScratch is the memory one /route/batch request works in, pooled
// so a batch allocates per batch rather than per item: the decoded
// requests and the nets they name, the results, the link arena their
// paths share, and routeMixed's grouping.
type batchScratch struct {
	reqs    []Request
	nets    []string
	results []Result
	links   []topology.Link
	// routeMixed: each item's group, the groups' nets (first-appearance
	// order) and services, and one group's item indices, requests and
	// results.
	gid    []int
	groups []string
	svcs   []*Service
	idx    []int
	sub    []Request
	subOut []Result
}

// maxPooledItems caps the batches whose scratch returns to the pool, so
// one huge batch cannot pin its slices for the life of the process.
const maxPooledItems = 1 << 13

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (h *Handler) routeBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		h.writeErr(w, fmt.Errorf("%w: method %s", ErrInvalid, r.Method))
		return
	}
	shape, err := ParseAnswers(r.URL.RawQuery)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	wb := GetWireBuf()
	defer PutWireBuf(wb)
	bs := batchPool.Get().(*batchScratch)
	defer func() {
		if cap(bs.results) <= maxPooledItems && cap(bs.reqs) <= maxPooledItems {
			batchPool.Put(bs)
		}
	}()
	reqs, nets := bs.reqs[:0], bs.nets[:0]
	var schemeErr error
	err = wb.ReadAll(r.Body, r.ContentLength)
	if err == nil {
		d := wireDec{b: wb.B}
		_, err = d.batch(batchSpec{requests: routeItems, responses: routeItems, epoch: true},
			func(resp bool, _ []byte, rq *RouteJSON) error {
				if resp {
					return nil // a response field in a request is decoded and ignored
				}
				sc, err := ParseScheme(rq.Scheme)
				if err != nil && schemeErr == nil {
					schemeErr = fmt.Errorf("%w (request %d)", err, len(reqs))
				}
				reqs = append(reqs, Request{Src: rq.Src, Dst: rq.Dst, Scheme: sc})
				nets = append(nets, rq.Net)
				return nil
			})
	}
	bs.reqs, bs.nets = reqs, nets
	if err != nil {
		h.writeErr(w, fmt.Errorf("%w: bad JSON body: %v", ErrInvalid, err))
		return
	}
	if schemeErr != nil {
		h.writeErr(w, schemeErr)
		return
	}
	bs.results = slices.Grow(bs.results[:0], len(reqs))[:len(reqs)]
	var epoch uint64
	if h.multi == nil || singleNet(nets) {
		// A single-network batch (the overwhelmingly common case, and
		// every single-network handler) keeps whole-batch error semantics.
		var net string
		if len(nets) > 0 {
			net = nets[0]
		}
		svc, err := h.service(net)
		if err == nil {
			err = svc.resolveBatch(reqs, bs.results)
		}
		if err != nil {
			h.writeErr(w, err)
			return
		}
		if shape == FullAnswers {
			bs.links = svc.fillPathsSliced(bs.results, bs.links[:0])
		}
		epoch = svc.Epoch()
	} else {
		epoch = h.routeMixed(bs, shape)
	}
	if shape == TagAnswers {
		wb.B = appendTagResults(wb.B[:0], bs.results, epoch)
	} else {
		wb.B = appendBatchResults(wb.B[:0], nets, bs.results, epoch)
	}
	wb.B = append(wb.B, '\n')
	WriteBody(w, http.StatusOK, wb.B)
}

// singleNet reports whether every item of a batch addresses the same
// network ("" and DefaultNet are one network).
func singleNet(nets []string) bool {
	for _, n := range nets {
		if n != nets[0] && (n != "" && n != DefaultNet || nets[0] != "" && nets[0] != DefaultNet) {
			return false
		}
	}
	return true
}

// routeMixed serves a batch spanning several networks into bs.results,
// with paths for a full-shape answer. Items are grouped by network,
// preserving input order inside each group so every per-network
// sub-batch still packs dense 64-lane sliced blocks; items fail per-item
// so one draining network cannot poison the others' results. The epoch
// is the highest any served network reported.
func (h *Handler) routeMixed(bs *batchScratch, shape Answers) uint64 {
	// A group is a network that resolved to a service, and a host serves
	// at most its network cap, so a linear scan of the groups found so far
	// finds an item's group. An item whose network does not resolve fails
	// here (gid -1), so no batch can make more groups than that.
	gid, groups, svcs := bs.gid[:0], bs.groups[:0], bs.svcs[:0]
	for i, n := range bs.nets {
		if n == "" {
			n = DefaultNet
		}
		g := slices.Index(groups, n)
		if g < 0 {
			svc, err := h.service(n)
			if err != nil {
				r := bs.reqs[i]
				bs.results[i] = Result{Src: r.Src, Dst: r.Dst, Scheme: r.Scheme, Err: err}
				gid = append(gid, -1)
				continue
			}
			g = len(groups)
			groups, svcs = append(groups, n), append(svcs, svc)
		}
		gid = append(gid, g)
	}
	bs.gid, bs.groups, bs.svcs = gid, groups, svcs
	links := bs.links[:0]
	var epoch uint64
	for g, svc := range svcs {
		idx, sub := bs.idx[:0], bs.sub[:0]
		for i, x := range gid {
			if x == g {
				idx = append(idx, i)
				sub = append(sub, bs.reqs[i])
			}
		}
		bs.idx, bs.sub = idx, sub
		bs.subOut = slices.Grow(bs.subOut[:0], len(sub))[:len(sub)]
		err := svc.resolveBatch(sub, bs.subOut)
		if err == nil && shape == FullAnswers {
			links = svc.fillPathsSliced(bs.subOut, links)
		}
		for k, i := range idx {
			if err != nil {
				bs.results[i] = Result{Src: sub[k].Src, Dst: sub[k].Dst, Scheme: sub[k].Scheme, Err: err}
			} else {
				bs.results[i] = bs.subOut[k]
			}
		}
		if err == nil {
			epoch = max(epoch, svc.Epoch())
		}
	}
	bs.links = links
	return epoch
}

// MutateJSON is the wire form of /fault and /repair exchanges. Specs use
// the iadmsim notation: links "stage:from:kind" (kind -, 0, +), switches
// "stage:index". Net selects the network whose blockage map mutates;
// only that network's epoch bumps, so the other partitions hosted by a
// multi-network backend keep theirs.
type MutateJSON struct {
	Net      string   `json:"net,omitempty"`
	Links    []string `json:"links,omitempty"`
	Switches []string `json:"switches,omitempty"`
	// Response fields.
	Changed int    `json:"changed"`
	Epoch   uint64 `json:"epoch"`
	Blocked int    `json:"blocked"`
}

func (h *Handler) fault(w http.ResponseWriter, r *http.Request)  { h.mutate(w, r, true) }
func (h *Handler) repair(w http.ResponseWriter, r *http.Request) { h.mutate(w, r, false) }

func (h *Handler) mutate(w http.ResponseWriter, r *http.Request, isFault bool) {
	if r.Method != http.MethodPost {
		h.writeErr(w, fmt.Errorf("%w: method %s", ErrInvalid, r.Method))
		return
	}
	var body MutateJSON
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		h.writeErr(w, fmt.Errorf("%w: bad JSON body: %v", ErrInvalid, err))
		return
	}
	if len(body.Links)+len(body.Switches) == 0 {
		h.writeErr(w, fmt.Errorf("%w: no links or switches given", ErrInvalid))
		return
	}
	if !isFault && len(body.Switches) > 0 {
		h.writeErr(w, fmt.Errorf("%w: switch repairs are not expressible (repair the input links individually)", ErrInvalid))
		return
	}
	svc, err := h.service(body.Net)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	// Parse every spec before applying any, so a malformed entry midway
	// through the list cannot leave the blockage map half-mutated.
	p := svc.Params()
	links := make([]topology.Link, len(body.Links))
	for i, spec := range body.Links {
		l, err := topology.ParseLink(p, spec)
		if err != nil {
			h.writeErr(w, fmt.Errorf("%w: %v", ErrInvalid, err))
			return
		}
		links[i] = l
	}
	switches := make([]topology.Switch, len(body.Switches))
	for i, spec := range body.Switches {
		sw, err := topology.ParseSwitch(p, spec)
		if err != nil {
			h.writeErr(w, fmt.Errorf("%w: %v", ErrInvalid, err))
			return
		}
		switches[i] = sw
	}
	var changed int
	if isFault {
		changed, err = svc.ApplyFaults(links, switches)
	} else {
		changed, err = svc.ApplyRepairs(links)
	}
	if err != nil {
		h.writeErr(w, err)
		return
	}
	// Epoch and count from one locked snapshot, so the ack never pairs an
	// epoch with another map's count.
	st := svc.MapStats()
	writeJSON(w, http.StatusOK, MutateJSON{
		Net:     body.Net,
		Changed: changed,
		Epoch:   st.Epoch,
		Blocked: st.BlockedLinks,
	})
}

// HealthJSON is the wire form of /healthz. Nets counts the networks a
// multi-network host has materialized (0 on single-network handlers,
// whose one network is implicit).
type HealthJSON struct {
	Status        string  `json:"status"`
	N             int     `json:"n"`
	Epoch         uint64  `json:"epoch"`
	Nets          int     `json:"nets,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	out := HealthJSON{Status: "ok", UptimeSeconds: time.Since(h.start).Seconds()}
	var draining bool
	if h.multi != nil {
		out.N = h.multi.N()
		out.Nets = len(h.multi.Nets())
		draining = h.multi.Draining()
	} else {
		out.N = h.svc.Params().Size()
		out.Epoch = h.svc.Epoch()
		draining = h.svc.Draining()
	}
	if draining {
		out.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, out)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// MetricsJSON is the wire form of /metrics. Service carries the request
// counters (see Metrics); Controller carries the inner controller's
// REROUTE counters and map size.
type MetricsJSON struct {
	Service    Metrics                 `json:"service"`
	Controller ControllerJSON          `json:"controller"`
	Endpoints  map[string]EndpointJSON `json:"endpoints"`
	Networks   []NetMetrics            `json:"networks,omitempty"`
	HTTP5xx    uint64                  `json:"http_5xx"`
	HTTP429    uint64                  `json:"http_429"`
	UptimeSec  float64                 `json:"uptime_seconds"`
}

// NetMetrics is one network's line in a multi-network /metrics document
// (Service there carries the merged totals). Replicas is filled by fleet
// aggregation — how many backends' scrapes contributed to this line.
type NetMetrics struct {
	Net      string `json:"net"`
	Requests uint64 `json:"requests_total"`
	Epoch    uint64 `json:"epoch"`
	Replicas int    `json:"replicas,omitempty"`
}

// controllerStats converts the wire ControllerJSON back to the internal
// controller.Stats (Metrics.Controller is json:"-", so a decoded scrape
// carries the controller counters only in MetricsJSON.Controller).
func controllerStats(c ControllerJSON) controller.Stats {
	return controller.Stats{
		Hits:         c.Hits,
		Misses:       c.Misses,
		Fails:        c.Fails,
		Epoch:        c.Epoch,
		CacheEntries: c.CacheEntries,
		BlockedLinks: c.BlockedLinks,
	}
}

// ControllerJSON mirrors controller.Stats onto the wire.
type ControllerJSON struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Fails        uint64 `json:"fails"`
	Epoch        uint64 `json:"epoch"`
	CacheEntries int    `json:"cache_entries"`
	BlockedLinks int    `json:"blocked_links"`
}

// Metrics builds the /metrics payload (exported so load generators can
// decode it with the same type).
func (h *Handler) Metrics() MetricsJSON {
	var m Metrics
	var nets []NetMetrics
	if h.multi != nil {
		m, nets = h.multi.Metrics()
	} else {
		m = h.svc.Metrics()
	}
	out := MetricsJSON{
		Service:  m,
		Networks: nets,
		Controller: ControllerJSON{
			Hits:         m.Controller.Hits,
			Misses:       m.Controller.Misses,
			Fails:        m.Controller.Fails,
			Epoch:        m.Controller.Epoch,
			CacheEntries: m.Controller.CacheEntries,
			BlockedLinks: m.Controller.BlockedLinks,
		},
		Endpoints: h.rec.Endpoints(),
		HTTP5xx:   h.rec.HTTP5xx(),
		HTTP429:   h.rec.HTTP429(),
		UptimeSec: time.Since(h.start).Seconds(),
	}
	return out
}

func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.Metrics())
}
