package routesvc

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// The /route and /route/batch handlers as they were before the wire
// codec, answering through encoding/json. They are the differential
// oracle for the codec-backed handlers: for the same request sequence
// against twin services, both must answer byte-identical bodies with the
// same status.

func legacyWriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func legacyWriteErr(w http.ResponseWriter, err error) {
	legacyWriteJSON(w, errStatus(err), errJSON{Error: err.Error(), Code: errCode(err)})
}

// resultJSON is the RouteJSON a Result was answered as.
func resultJSON(res Result) RouteJSON {
	out := RouteJSON{Src: res.Src, Dst: res.Dst, Scheme: res.Scheme.String(), Epoch: res.Epoch}
	if res.Err != nil {
		out.Error = res.Err.Error()
		out.Code = errCode(res.Err)
		return out
	}
	out.Tag = res.Tag.String()
	out.Path = res.Path.Switches()
	return out
}

func legacyRouteOne(h *Handler, w http.ResponseWriter, r *http.Request) {
	var net string
	var req Request
	var err error
	if r.Method == http.MethodPost {
		var body RouteJSON
		if err = json.NewDecoder(r.Body).Decode(&body); err != nil {
			legacyWriteErr(w, fmt.Errorf("%w: bad JSON body: %v", ErrInvalid, err))
			return
		}
		sc, err := ParseScheme(body.Scheme)
		if err != nil {
			legacyWriteErr(w, err)
			return
		}
		net, req = body.Net, Request{Src: body.Src, Dst: body.Dst, Scheme: sc}
	} else {
		var in RouteJSON
		var sc Scheme
		if in, err = ParseRoute(r); err == nil {
			sc, err = ParseScheme(in.Scheme)
		}
		if err != nil {
			legacyWriteErr(w, err)
			return
		}
		net, req = in.Net, Request{Src: in.Src, Dst: in.Dst, Scheme: sc}
	}
	svc, err := h.multi.Get(net)
	if err != nil {
		legacyWriteErr(w, err)
		return
	}
	res, err := svc.Route(req.Src, req.Dst, req.Scheme)
	if err != nil {
		legacyWriteErr(w, err)
		return
	}
	out := resultJSON(res)
	out.Net = net
	legacyWriteJSON(w, http.StatusOK, out)
}

func legacyRouteBatch(h *Handler, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		legacyWriteErr(w, fmt.Errorf("%w: method %s", ErrInvalid, r.Method))
		return
	}
	var body BatchJSON
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		legacyWriteErr(w, fmt.Errorf("%w: bad JSON body: %v", ErrInvalid, err))
		return
	}
	reqs := make([]Request, len(body.Requests))
	nets := make([]string, len(body.Requests))
	for i, rq := range body.Requests {
		sc, err := ParseScheme(rq.Scheme)
		if err != nil {
			legacyWriteErr(w, fmt.Errorf("%w (request %d)", err, i))
			return
		}
		reqs[i] = Request{Src: rq.Src, Dst: rq.Dst, Scheme: sc}
		nets[i] = rq.Net
	}
	var order []string
	groups := make(map[string][]int, 1)
	for i, n := range nets {
		if n == "" {
			n = DefaultNet
		}
		if _, ok := groups[n]; !ok {
			order = append(order, n)
		}
		groups[n] = append(groups[n], i)
	}
	if len(order) <= 1 {
		var net string
		if len(order) == 1 {
			net = order[0]
		}
		svc, err := h.multi.Get(net)
		if err != nil {
			legacyWriteErr(w, err)
			return
		}
		results, err := svc.RouteBatch(reqs)
		if err != nil {
			legacyWriteErr(w, err)
			return
		}
		out := BatchJSON{Responses: make([]RouteJSON, len(results)), Epoch: svc.Epoch()}
		for i, res := range results {
			out.Responses[i] = resultJSON(res)
			out.Responses[i].Net = nets[i]
		}
		legacyWriteJSON(w, http.StatusOK, out)
		return
	}
	out := BatchJSON{Responses: make([]RouteJSON, len(reqs))}
	for _, n := range order {
		idx := groups[n]
		sub := make([]Request, len(idx))
		for k, i := range idx {
			sub[k] = reqs[i]
		}
		svc, err := h.multi.Get(n)
		var results []Result
		if err == nil {
			results, err = svc.RouteBatch(sub)
		}
		if err != nil {
			for _, i := range idx {
				out.Responses[i] = RouteJSON{
					Net: nets[i], Src: reqs[i].Src, Dst: reqs[i].Dst,
					Scheme: reqs[i].Scheme.String(),
					Error:  err.Error(), Code: errCode(err),
				}
			}
			continue
		}
		for k, i := range idx {
			out.Responses[i] = resultJSON(results[k])
			out.Responses[i].Net = nets[i]
		}
		if ep := svc.Epoch(); ep > out.Epoch {
			out.Epoch = ep
		}
	}
	legacyWriteJSON(w, http.StatusOK, out)
}

// legacyHandler serves /route and /route/batch through the legacy code
// over h's services, everything else through h itself.
func legacyHandler(h *Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/route":
			legacyRouteOne(h, w, r)
		case "/route/batch":
			legacyRouteBatch(h, w, r)
		default:
			h.ServeHTTP(w, r)
		}
	})
}
