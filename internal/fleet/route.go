package fleet

import (
	"fmt"
	"net/http"
	"time"

	"iadm/internal/routesvc"
)

// routeOne proxies a single route request to the replica owning its
// (net, src, dst) key, retrying retryable failures on the next replica
// under the router-wide retry budget, all on the request's goroutine.
// The backend's 200 body is decoded, so a malformed one counts as a
// failed attempt, and then written to the client byte for byte.
func (rt *Router) routeOne(w http.ResponseWriter, r *http.Request) {
	// The backend's own parser, so a bad request gets the backend's 400
	// text; the scheme is forwarded unparsed for the backend to check.
	in, err := routesvc.ParseRoute(r)
	if err != nil {
		writeErrJSON(w, http.StatusBadRequest, err, "invalid", 0)
		return
	}
	set, ownerPos := rt.placeSingle(in.Net, in.Src, in.Dst)
	rt.budget.note()
	body := routesvc.GetWireBuf()
	body.B = routesvc.AppendRouteJSON(body.B, &in, false)
	out, err := rt.sendRoute(set, ownerPos, body.B)
	routesvc.PutWireBuf(body)
	if err != nil {
		rt.proxyErr(w, err)
		return
	}
	routesvc.WriteBody(w, http.StatusOK, out.B)
	routesvc.PutWireBuf(out)
}

// placeSingle returns a single route's replica set and its owner's
// position in the set, hashing the key once. The owner is Ring.Owner's
// and ownerAt's rank 0, so a key lands on the same replica as a single
// and as a batch item.
func (rt *Router) placeSingle(net string, src, dst int) ([]int, int) {
	set := rt.ring.ReplicaSet(net)
	return set, int(keyHash(src, dst) % uint64(len(set)))
}

// replica is the backend at replica rank k of a route: the owner first,
// then the partition's other replicas in ring order.
func (rt *Router) replica(set []int, ownerPos, rank int) *backend {
	return rt.bks[set[(ownerPos+rank)%len(set)]]
}

// retryNext reports whether a failed attempt may retry at rank next:
// retry against the next untried replica, budget permitting, after
// retryBackoff — a small linear backoff, so a brown-out is not met with
// an instant second volley.
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
