package fleet

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"iadm/internal/routesvc"
)

// parseRoute accepts the same wire forms as the backend /route endpoint
// (GET query or POST JSON body) so the router is a drop-in for a single
// backend address.
func parseRoute(r *http.Request) (routesvc.RouteJSON, error) {
	var in routesvc.RouteJSON
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		in.Net, in.Scheme = q.Get("net"), q.Get("scheme")
		var err error
		if in.Src, err = strconv.Atoi(q.Get("src")); err != nil {
			return in, fmt.Errorf("bad src %q", q.Get("src"))
		}
		if in.Dst, err = strconv.Atoi(q.Get("dst")); err != nil {
			return in, fmt.Errorf("bad dst %q", q.Get("dst"))
		}
	case http.MethodPost:
		wb := routesvc.GetWireBuf()
		err := wb.ReadAll(r.Body, r.ContentLength)
		if err == nil {
			err = routesvc.DecodeRouteJSON(wb.B, &in)
		}
		routesvc.PutWireBuf(wb)
		if err != nil {
			return in, fmt.Errorf("bad JSON body: %v", err)
		}
	default:
		return in, fmt.Errorf("method %s", r.Method)
	}
	return in, nil
}

// routeOne proxies a single route request to the replica owning its
// (net, src, dst) key, retrying retryable failures on the next replica
// under the router-wide retry budget (and hedging to it after
// cfg.HedgeAfter, when set). The backend's 200 body is decoded, so a
// malformed one counts as a failed attempt, and then written to the
// client byte for byte.
func (rt *Router) routeOne(w http.ResponseWriter, r *http.Request) {
	in, err := parseRoute(r)
	if err != nil {
		writeErrJSON(w, http.StatusBadRequest, err, "invalid", 0)
		return
	}
	_, set := rt.ring.Owner(in.Net, in.Src, in.Dst)
	ownerPos := int(keyHash(in.Src, in.Dst) % uint64(len(set)))
	rt.budget.note()
	body := routesvc.GetWireBuf()
	body.B = routesvc.AppendRouteJSON(body.B, &in, false)
	var out *routesvc.WireBuf
	if rt.cfg.HedgeAfter > 0 && len(set) > 1 {
		out, err = rt.sendRouteHedged(set, ownerPos, slices.Clone(body.B))
	} else {
		out, err = rt.sendRoute(set, ownerPos, body.B)
	}
	routesvc.PutWireBuf(body)
	if err != nil {
		rt.proxyErr(w, err)
		return
	}
	routesvc.WriteBody(w, http.StatusOK, out.B)
	routesvc.PutWireBuf(out)
}

// replica is the backend at replica rank k of a route: the owner first,
// then the partition's other replicas in ring order.
func (rt *Router) replica(set []int, ownerPos, rank int) *backend {
	return rt.bks[set[(ownerPos+rank)%len(set)]]
}

// retryNext reports whether a failed attempt may retry at rank next. Both
// send modes share this policy: retry against the next untried replica,
// budget permitting, after retryBackoff — a small linear backoff, so a
// brown-out is not met with an instant second volley.
func (rt *Router) retryNext(err error, next, replicas int) bool {
	return retryable(err) && next < replicas && rt.budget.allow()
}

func retryBackoff(rank int) time.Duration { return time.Duration(rank) * 2 * time.Millisecond }

// tryRoute sends body to the rank-th replica and returns the validated
// 200 body.
func (rt *Router) tryRoute(set []int, ownerPos, rank int, body []byte) (*routesvc.WireBuf, error) {
	bk := rt.replica(set, ownerPos, rank)
	bk.reqs.Add(1)
	out := routesvc.GetWireBuf()
	err := bk.client.PostRaw("/route", body, out)
	if err == nil {
		var check routesvc.RouteJSON
		if derr := routesvc.DecodeRouteJSON(out.B, &check); derr != nil {
			err = fmt.Errorf("routesvc: decode /route response: %w", derr)
		}
	}
	bk.observe(err)
	if err != nil {
		routesvc.PutWireBuf(out)
		return nil, err
	}
	return out, nil
}

// sendRoute tries the owner, then each next replica the retry policy
// allows, one at a time on the calling goroutine.
func (rt *Router) sendRoute(set []int, ownerPos int, body []byte) (*routesvc.WireBuf, error) {
	out, err := rt.tryRoute(set, ownerPos, 0, body)
	for rank := 1; err != nil && rt.retryNext(err, rank, len(set)); rank++ {
		rt.replica(set, ownerPos, rank).retried.Add(1)
		time.Sleep(retryBackoff(rank))
		out, err = rt.tryRoute(set, ownerPos, rank, body)
	}
	return out, err
}

// sendRouteHedged races attempts on goroutines: besides the retries, the
// next replica gets the request when no answer has come within
// cfg.HedgeAfter, and the first success wins. At most len(set) attempts
// are ever in flight, so the reply channel never blocks a loser, which
// may still be sending body after the call returns.
func (rt *Router) sendRouteHedged(set []int, ownerPos int, body []byte) (*routesvc.WireBuf, error) {
	type reply struct {
		out *routesvc.WireBuf
		err error
	}
	ch := make(chan reply, len(set))
	send := func(rank int, delay time.Duration) {
		go func() {
			if delay > 0 {
				time.Sleep(delay)
			}
			out, err := rt.tryRoute(set, ownerPos, rank, body)
			ch <- reply{out, err}
		}()
	}

	send(0, 0)
	launched, nextRank := 1, 1
	hedgeT := time.After(rt.cfg.HedgeAfter)
	var lastErr error
	for launched > 0 {
		select {
		case rep := <-ch:
			launched--
			if rep.err == nil {
				return rep.out, nil
			}
			lastErr = rep.err
			if rt.retryNext(rep.err, nextRank, len(set)) {
				rt.replica(set, ownerPos, nextRank).retried.Add(1)
				send(nextRank, retryBackoff(nextRank))
				nextRank++
				launched++
			}
		case <-hedgeT:
			hedgeT = nil
			if nextRank < len(set) {
				rt.hedges.Add(1)
				rt.replica(set, ownerPos, nextRank).hedged.Add(1)
				send(nextRank, 0)
				nextRank++
				launched++
			}
		}
	}
	return nil, lastErr
}
