package fleet

import (
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"iadm/internal/routesvc"
)

// The batch path never decodes items into routesvc.RouteJSON: one scan of
// the incoming body yields each item's bytes plus the (net, src, dst) key
// that places it, sub-batches are those bytes concatenated, and each
// backend's answer is split at item boundaries into sub-slices of its
// pooled body, which the merged response splices back in input order. (A
// body outside the wire codec's canonical grammar is decoded by
// encoding/json instead, and its item bytes live in buffers of their own.)
// Every sub-batch asks for the answer shape the client asked for
// (routesvc.Answers), so the items splice unchanged in either shape.

// batchWork is the memory one routed batch works in, pooled so a batch
// allocates per batch rather than per item: the scanned items, the
// answer span of each, their indices, the per-backend groups and
// response splits, and the failed indices and response bodies a fan-out
// collects.
type batchWork struct {
	path   string // the sub-batches' request path: the client's answer shape
	items  []routesvc.BatchItem
	out    [][]byte
	all    []int
	groups [][]int    // by backend
	spans  [][][]byte // by backend: sendSub's split of its response
	failed []int
	bodies []*routesvc.WireBuf
}

// maxPooledItems caps the batches whose work returns to the pool, so one
// huge batch cannot pin its slices for the life of the process.
const maxPooledItems = 1 << 13

var batchPool = sync.Pool{New: func() any { return new(batchWork) }}

// getBatchWork takes a batchWork sized for nb backends.
func getBatchWork(nb int) *batchWork {
	w := batchPool.Get().(*batchWork)
	if len(w.groups) != nb {
		w.groups, w.spans = make([][]int, nb), make([][][]byte, nb)
	}
	return w
}

// putBatchWork drops the work's references into request and response
// bodies and returns it to the pool.
func putBatchWork(w *batchWork) {
	if cap(w.items) > maxPooledItems {
		return
	}
	clear(w.items)
	clear(w.out)
	for b := range w.spans {
		clear(w.spans[b])
	}
	clear(w.bodies)
	batchPool.Put(w)
}

// ownerAt returns the backend holding replica `rank` of the item's key:
// rank 0 is the key's owner (Ring.Owner), higher ranks the partition's other
// replicas in ring order (used by the batch retry round).
func (rt *Router) ownerAt(it *routesvc.BatchItem, rank int) int {
	set := rt.ring.ReplicaSet(it.Net)
	return set[(keyHash(it.Src, it.Dst)+uint64(rank))%uint64(len(set))]
}

// group buckets the item indices in idx into w.groups by their rank-th
// replica owner, preserving input order inside every bucket so each
// backend receives a dense, ordered sub-batch for its 64-lane sliced
// kernels.
func (rt *Router) group(w *batchWork, idx []int, rank int) {
	for b := range w.groups {
		w.groups[b] = w.groups[b][:0]
	}
	for _, i := range idx {
		b := rt.ownerAt(&w.items[i], rank)
		w.groups[b] = append(w.groups[b], i)
	}
}

// fanout sends every non-empty group of w.groups to its backend
// concurrently — the last one on the calling goroutine — and points
// w.out[i] at item i's bytes in its backend's response body. It sets
// w.failed to the indices whose sub-batch failed outright (their slots
// left nil) and appends the response bodies w.out now points into to
// w.bodies (the caller releases them once the merged answer is
// written); it returns the highest epoch any backend reported and the
// last sub-batch error.
func (rt *Router) fanout(w *batchWork, asRetry bool) (epoch uint64, lastErr error) {
	groups := w.groups
	last := -1
	for b, idx := range groups {
		if len(idx) > 0 {
			last = b
		}
	}
	w.failed = w.failed[:0]
	var wg sync.WaitGroup
	var mu sync.Mutex
	send := func(b int, idx []int) {
		resp, ep, err := rt.sendSub(w, b, idx, asRetry)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			w.failed = append(w.failed, idx...)
			lastErr = err
			return
		}
		epoch = max(epoch, ep)
		w.bodies = append(w.bodies, resp)
	}
	for b, idx := range groups {
		if len(idx) == 0 || b == last {
			continue
		}
		wg.Add(1)
		go func(b int, idx []int) {
			defer wg.Done()
			send(b, idx)
		}(b, idx)
	}
	if last >= 0 {
		send(last, groups[last])
	}
	wg.Wait()
	return epoch, lastErr
}

// sendSub sends the items at idx to backend b as one sub-batch and, on
// success, points w.out[i] at each item's answer inside the returned
// response body. Indices are disjoint across a fan-out's groups, and
// each backend splits its answer into its own w.spans[b], so concurrent
// sub-batches write w without a lock.
func (rt *Router) sendSub(w *batchWork, b int, idx []int, asRetry bool) (*routesvc.WireBuf, uint64, error) {
	items := w.items
	rt.subs.Add(1)
	body := routesvc.GetWireBuf()
	defer routesvc.PutWireBuf(body)
	body.B = append(body.B, `{"requests":[`...)
	for k, i := range idx {
		if k > 0 {
			body.B = append(body.B, ',')
		}
		body.B = append(body.B, items[i].Raw...)
	}
	body.B = append(body.B, "]}"...)
	bk := rt.bks[b]
	bk.reqs.Add(1)
	if asRetry {
		bk.retried.Add(1)
	}
	resp := routesvc.GetWireBuf()
	var spans [][]byte
	var ep uint64
	err := bk.client.PostRaw(w.path, body.B, resp)
	if err == nil {
		spans, ep, err = routesvc.AppendBatchResponses(w.spans[b][:0], resp.B)
		w.spans[b] = spans
		if err != nil {
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
		return nil, 0, err
	}
	for k, i := range idx {
		w.out[i] = spans[k]
	}
	return resp, ep, nil
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
	shape, err := routesvc.ParseAnswers(r.URL.RawQuery)
	if err != nil {
		writeErrJSON(w, http.StatusBadRequest, err, "invalid", 0)
		return
	}
	in := routesvc.GetWireBuf()
	defer routesvc.PutWireBuf(in)
	bw := getBatchWork(len(rt.bks))
	defer putBatchWork(bw)
	bw.path = shape.BatchPath()
	err = in.ReadAll(r.Body, r.ContentLength)
	if err == nil {
		bw.items, err = routesvc.AppendBatchItems(bw.items[:0], in.B)
	}
	if err != nil {
		writeErrJSON(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %v", err), "invalid", 0)
		return
	}
	rt.batches.Add(1)
	rt.budget.note()
	items := bw.items
	bw.out = slices.Grow(bw.out[:0], len(items))[:len(items)]
	out := bw.out
	bw.all = bw.all[:0]
	for i := range items {
		bw.all = append(bw.all, i)
	}
	bw.bodies = bw.bodies[:0]
	defer func() {
		for _, b := range bw.bodies {
			routesvc.PutWireBuf(b)
		}
	}()
	rt.group(bw, bw.all, 0)
	epoch, ferr := rt.fanout(bw, false)
	if len(bw.failed) > 0 && rt.ring.Replicas() > 1 && retryable(ferr) && rt.budget.allow() {
		var ep2 uint64
		rt.group(bw, bw.failed, 1)
		ep2, ferr = rt.fanout(bw, true)
		epoch = max(epoch, ep2)
	}
	if failed := bw.failed; len(failed) > 0 {
		fails := routesvc.GetWireBuf()
		defer routesvc.PutWireBuf(fails)
		ends := make([]int, len(failed))
		for k, i := range failed {
			if shape == routesvc.TagAnswers {
				fails.B = routesvc.AppendErrorJSON(fails.B, ferr.Error(), "backend")
			} else {
				// A full-shape item echoes the request, which was decoded
				// once already by AppendBatchItems, with the scheme spelled
				// as backend items spell it.
				var item routesvc.RouteJSON
				_ = routesvc.DecodeRouteJSON(items[i].Raw, &item)
				if sc, err := routesvc.ParseScheme(item.Scheme); err == nil {
					item.Scheme = sc.String()
				}
				item.Error, item.Code = ferr.Error(), "backend"
				// json.Marshal's escaping, as these items were always written.
				fails.B = routesvc.AppendRouteJSON(fails.B, &item, true)
			}
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
