package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"iadm/internal/routesvc"
)

// rawPost sends body to url and returns the status and the response body.
func rawPost(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestRoutedBodiesMatchDirect: through the router, /route answers the
// backend's body byte for byte, and /route/batch answers the backend's
// items spliced unchanged into the router's {"responses","epoch"} shape;
// with ?answers=tags, whose body already has that shape, the routed body
// equals the direct one. The fleet has one backend and a twin direct
// backend sees the same request sequence, so cache flags and epochs
// agree.
func TestRoutedBodiesMatchDirect(t *testing.T) {
	f := newTestFleet(t, 1, Config{Replicas: 1})
	twin := routesvc.NewMulti(routesvc.Config{N: 64, Admission: routesvc.AdmissionConfig{Disabled: true}}, 16)
	direct := httptest.NewServer(routesvc.NewMultiHandler(twin))
	t.Cleanup(func() {
		direct.Close()
		twin.Drain()
	})
	routed := httptest.NewServer(f.rt)
	t.Cleanup(routed.Close)
	for _, base := range []string{routed.URL, direct.URL} {
		if code, body := rawPost(t, base+"/fault", `{"net":"p1","links":["1:5:0","0:5:+","0:5:-"]}`); code != http.StatusOK {
			t.Fatalf("fault: %d %s", code, body)
		}
	}

	var batch, mixed routesvc.BatchJSON
	for i := 0; i < 150; i++ {
		sch := []string{"tsdt", "ssdt", "", "reroute"}[i%4]
		batch.Requests = append(batch.Requests, routesvc.RouteJSON{Net: "p1", Src: i % 64, Dst: (i * 7) % 70, Scheme: sch})
		mixed.Requests = append(mixed.Requests, routesvc.RouteJSON{Net: []string{"", "p1", "p2", "p<&>"}[i%4], Src: (i * 3) % 64, Dst: i % 64, Scheme: sch})
	}
	encode := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	bodies := []string{encode(batch), encode(batch), encode(mixed), `{"requests":[]}`, `{"requests":null}`, "{}",
		`{"requests":[{"net":"p1","src":5,"dst":5},{"src":1,"dst":99,"scheme":"ssdt"}]}`}
	for _, body := range bodies {
		codeR, gotR := rawPost(t, routed.URL+"/route/batch", body)
		codeD, gotD := rawPost(t, direct.URL+"/route/batch", body)
		if codeR != http.StatusOK || codeD != http.StatusOK {
			t.Fatalf("batch %s: routed %d, direct %d", body, codeR, codeD)
		}
		var view struct {
			Responses []json.RawMessage `json:"responses"`
			Epoch     uint64            `json:"epoch"`
		}
		if err := json.Unmarshal(gotD, &view); err != nil {
			t.Fatal(err)
		}
		want := []byte(`{"responses":[`)
		for i, item := range view.Responses {
			if i > 0 {
				want = append(want, ',')
			}
			want = append(want, item...)
		}
		want = fmt.Appendf(want, "],\"epoch\":%d}\n", view.Epoch)
		if !bytes.Equal(gotR, want) {
			t.Fatalf("batch %s:\nrouted %s\n  want %s", body, gotR, want)
		}

		codeR, gotR = rawPost(t, routed.URL+"/route/batch?answers=tags", body)
		codeD, gotD = rawPost(t, direct.URL+"/route/batch?answers=tags", body)
		if codeR != http.StatusOK || codeD != http.StatusOK || !bytes.Equal(gotR, gotD) {
			t.Fatalf("batch %s with tag answers:\nrouted %d %s\ndirect %d %s", body, codeR, gotR, codeD, gotD)
		}
	}
	for s := 0; s < 64; s += 9 {
		for d := 0; d < 64; d += 13 {
			for _, body := range []string{
				fmt.Sprintf(`{"net":"p1","src":%d,"dst":%d,"scheme":"tsdt"}`, s, d),
				fmt.Sprintf(`{"src":%d,"dst":%d,"scheme":"ssdt"}`, s, d),
			} {
				codeR, gotR := rawPost(t, routed.URL+"/route", body)
				codeD, gotD := rawPost(t, direct.URL+"/route", body)
				if codeR != codeD || !bytes.Equal(gotR, gotD) {
					t.Fatalf("route %s: routed %d %s, direct %d %s", body, codeR, gotR, codeD, gotD)
				}
			}
		}
	}
}

// TestFleetTamperedItemCount: a backend answering the wrong number of
// items fails its whole sub-batch — every item answers a per-item
// "backend" error: in the full shape encoded as json.Marshal encodes the
// request's RouteJSON with its canonical scheme name, in the tag shape as
// the error body.
func TestFleetTamperedItemCount(t *testing.T) {
	m := routesvc.NewMulti(routesvc.Config{N: 64, Admission: routesvc.AdmissionConfig{Disabled: true}}, 16)
	h := routesvc.NewMultiHandler(m)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/route/batch" {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var out routesvc.BatchJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Error(err)
		}
		out.Responses = out.Responses[:len(out.Responses)-1] // drop one item
		_ = json.NewEncoder(w).Encode(out)
	}))
	t.Cleanup(func() {
		srv.Close()
		m.Drain()
	})
	rt, err := New(Config{Backends: []string{srv.URL}, Replicas: 1, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Probe(); err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)

	in := routesvc.BatchJSON{Requests: []routesvc.RouteJSON{
		{Net: "p<&>", Src: 1, Dst: 2, Scheme: "ssdt"},
		{Src: 3, Dst: 4},
		{Net: "p1", Src: 5, Dst: 6, Scheme: "reroute"},
	}}
	body, _ := json.Marshal(in)
	code, got := rawPost(t, front.URL+"/route/batch", string(body))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	msg := fmt.Sprintf("fleet: backend %s answered 2 items for 3 requests", srv.URL)
	want := []byte(`{"responses":[`)
	for i, rq := range in.Requests {
		if i > 0 {
			want = append(want, ',')
		}
		// Failed items spell the scheme as backend items do.
		rq.Scheme = []string{"ssdt", "tsdt", "tsdt"}[i]
		rq.Error, rq.Code = msg, "backend"
		item, _ := json.Marshal(rq)
		want = append(want, item...)
	}
	want = append(want, "],\"epoch\":0}\n"...)
	if !bytes.Equal(got, want) {
		t.Fatalf("tampered batch:\n got %s\nwant %s", got, want)
	}

	code, got = rawPost(t, front.URL+"/route/batch?answers=tags", string(body))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, got)
	}
	want = []byte(`{"responses":[`)
	for i := range in.Requests {
		if i > 0 {
			want = append(want, ',')
		}
		want = routesvc.AppendErrorJSON(want, msg, "backend")
	}
	want = append(want, "],\"epoch\":0}\n"...)
	if !bytes.Equal(got, want) {
		t.Fatalf("tampered tag-shape batch:\n got %s\nwant %s", got, want)
	}
	if errs := rt.bks[0].errs.Load(); errs != 2 {
		t.Errorf("backend error count %d, want 2", errs)
	}
}

// TestRouterRefusesMalformedBatches: bodies the router cannot place, and
// answer shapes it does not know, answer 400 "invalid" without reaching a
// backend.
func TestRouterRefusesMalformedBatches(t *testing.T) {
	f := newTestFleet(t, 2, Config{Replicas: 1})
	front := httptest.NewServer(f.rt)
	t.Cleanup(front.Close)
	for _, body := range []string{"{", "", `{"requests":[{"src":"1"}]}`, `{"requests":[1]}`, `{"requests":[{"src":1}]`, `{"requests":[{"src":1,"src":2}]}`} {
		code, got := rawPost(t, front.URL+"/route/batch", body)
		var e struct{ Code string }
		_ = json.Unmarshal(got, &e)
		if code != http.StatusBadRequest || e.Code != "invalid" {
			t.Errorf("%q: %d %s, want 400 invalid", body, code, got)
		}
	}
	for _, q := range []string{"answers=full", "answers=", "answers=tags&answers=tags"} {
		code, got := rawPost(t, front.URL+"/route/batch?"+q, `{"requests":[{"src":1,"dst":2}]}`)
		var e struct{ Code string }
		_ = json.Unmarshal(got, &e)
		if code != http.StatusBadRequest || e.Code != "invalid" {
			t.Errorf("?%s: %d %s, want 400 invalid", q, code, got)
		}
	}
	if subs := f.rt.subs.Load(); subs != 0 {
		t.Errorf("%d sub-batches sent for malformed bodies", subs)
	}
}
