package fleet

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"iadm/internal/routesvc"
)

// The batch path never decodes items into routesvc.RouteJSON: one scan of
// the incoming body yields each item's bytes plus the (net, src, dst) key
// that places it, sub-batches are those bytes concatenated, and each
// backend's answer is split at item boundaries into sub-slices of its
// pooled body, which the merged response splices back in input order.

// ownerAt returns the backend holding replica `rank` of the item's key:
// rank 0 is the cache-affinity owner, higher ranks the partition's other
// replicas in ring order (used by the batch retry round).
func (rt *Router) ownerAt(it *routesvc.BatchItem, rank int) int {
	set := rt.ring.ReplicaSet(it.Net)
	return set[(keyHash(it.Src, it.Dst)+uint64(rank))%uint64(len(set))]
}

// group buckets the item indices in idx by their rank-th replica owner,
// preserving input order inside every bucket so each backend receives a
// dense, ordered sub-batch for its 64-lane sliced kernels.
func (rt *Router) group(items []routesvc.BatchItem, idx []int, rank int) [][]int {
	groups := make([][]int, len(rt.bks))
	for _, i := range idx {
		b := rt.ownerAt(&items[i], rank)
		groups[b] = append(groups[b], i)
	}
	return groups
}

// fanout sends every non-empty group to its backend concurrently and
// points out[i] at item i's bytes in its backend's response body. It
// returns the indices whose sub-batch failed outright (their slots left
// nil), the highest epoch any backend reported, the last sub-batch
// error, and the response bodies out now points into (the caller
// releases them once the merged answer is written).
func (rt *Router) fanout(items []routesvc.BatchItem, groups [][]int, out [][]byte, asRetry bool) (failed []int, epoch uint64, lastErr error, bodies []*routesvc.WireBuf) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	for b, idx := range groups {
		if len(idx) == 0 {
			continue
		}
		rt.subs.Add(1)
		wg.Add(1)
		go func(b int, idx []int) {
			defer wg.Done()
			size := len(`{"requests":[]}`) + len(idx)
			for _, i := range idx {
				size += len(items[i].Raw)
			}
			body := append(make([]byte, 0, size), `{"requests":[`...)
			for k, i := range idx {
				if k > 0 {
					body = append(body, ',')
				}
				body = append(body, items[i].Raw...)
			}
			body = append(body, "]}"...)
			bk := rt.bks[b]
			bk.reqs.Add(1)
			if asRetry {
				bk.retried.Add(1)
			}
			resp := routesvc.GetWireBuf()
			var spans [][]byte
			var ep uint64
			err := bk.client.PostRaw("/route/batch", body, resp)
			if err == nil {
				if spans, ep, err = routesvc.AppendBatchResponses(make([][]byte, 0, len(idx)), resp.B); err != nil {
					err = fmt.Errorf("routesvc: decode /route/batch response: %w", err)
				}
			}
			bk.observe(err)
			if err == nil && len(spans) != len(idx) {
				err = fmt.Errorf("fleet: backend %s answered %d items for %d requests",
					bk.base, len(spans), len(idx))
				bk.errs.Add(1)
			}
			if err != nil {
				routesvc.PutWireBuf(resp)
				mu.Lock()
				failed = append(failed, idx...)
				lastErr = err
				mu.Unlock()
				return
			}
			// Indices in idx are disjoint across groups, so the splice
			// below is race-free without the mutex.
			for k, i := range idx {
				out[i] = spans[k]
			}
			mu.Lock()
			epoch = max(epoch, ep)
			bodies = append(bodies, resp)
			mu.Unlock()
		}(b, idx)
	}
	wg.Wait()
	return failed, epoch, lastErr, bodies
}

// routeBatch is the scatter-gather batch path: split the incoming batch
// by owning backend, fan the sub-batches out concurrently, splice the
// raw responses back in input order. A sub-batch whose backend fails
// outright gets one retry round against each item's next replica (under
// the retry budget); items still unserved answer per-item errors, so one
// dead backend degrades 1/K of a batch instead of failing it whole.
func (rt *Router) routeBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErrJSON(w, http.StatusBadRequest, fmt.Errorf("method %s", r.Method), "invalid", 0)
		return
	}
	in := routesvc.GetWireBuf()
	defer routesvc.PutWireBuf(in)
	err := in.ReadAll(r.Body, r.ContentLength)
	var items []routesvc.BatchItem
	if err == nil {
		items, err = routesvc.AppendBatchItems(nil, in.B)
	}
	if err != nil {
		writeErrJSON(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %v", err), "invalid", 0)
		return
	}
	rt.batches.Add(1)
	rt.budget.note()
	out := make([][]byte, len(items))
	all := make([]int, len(items))
	for i := range all {
		all[i] = i
	}
	failed, epoch, ferr, bodies := rt.fanout(items, rt.group(items, all, 0), out, false)
	defer func() {
		for _, b := range bodies {
			routesvc.PutWireBuf(b)
		}
	}()
	if len(failed) > 0 && rt.ring.Replicas() > 1 && retryable(ferr) && rt.budget.allow() {
		var ep2 uint64
		var more []*routesvc.WireBuf
		failed, ep2, ferr, more = rt.fanout(items, rt.group(items, failed, 1), out, true)
		bodies = append(bodies, more...)
		epoch = max(epoch, ep2)
	}
	if len(failed) > 0 {
		fails := routesvc.GetWireBuf()
		defer routesvc.PutWireBuf(fails)
		ends := make([]int, len(failed))
		for k, i := range failed {
			// The item was decoded once already by AppendBatchItems.
			var item routesvc.RouteJSON
			_ = routesvc.DecodeRouteJSON(items[i].Raw, &item)
			item.Error, item.Code = ferr.Error(), "backend"
			// json.Marshal's escaping, as these items were always written.
			fails.B = routesvc.AppendRouteJSON(fails.B, &item, true)
			ends[k] = len(fails.B)
		}
		start := 0
		for k, i := range failed {
			out[i] = fails.B[start:ends[k]]
			start = ends[k]
		}
	}

	// Merge: splice the item bytes into one response body in input order.
	buf := routesvc.GetWireBuf()
	defer routesvc.PutWireBuf(buf)
	buf.B = append(buf.B, `{"responses":[`...)
	for i, raw := range out {
		if i > 0 {
			buf.B = append(buf.B, ',')
		}
		buf.B = append(buf.B, raw...)
	}
	buf.B = append(buf.B, `],"epoch":`...)
	buf.B = strconv.AppendUint(buf.B, epoch, 10)
	buf.B = append(buf.B, "}\n"...)
	routesvc.WriteBody(w, http.StatusOK, buf.B)
}
