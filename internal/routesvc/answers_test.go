package routesvc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"iadm/internal/core"
	"iadm/internal/topology"
)

func TestParseAnswers(t *testing.T) {
	for _, c := range []struct {
		q    string
		want Answers
		ok   bool
	}{
		{"", FullAnswers, true},
		{"answers=tags", TagAnswers, true},
		{"x=1&answers=tags", TagAnswers, true},
		{"answers=%74ags", TagAnswers, true},
		{"x=1", FullAnswers, true},
		{"%zz", FullAnswers, true},
		{"answers=full", 0, false},
		{"answers=", 0, false},
		{"answers", 0, false},
		{"answers=TAGS", 0, false},
		{"answers=tags&answers=tags", 0, false},
	} {
		got, err := ParseAnswers(c.q)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseAnswers(%q) = %v, %v; want %v", c.q, got, err, c.want)
		}
		if !c.ok && !errors.Is(err, ErrInvalid) {
			t.Errorf("ParseAnswers(%q) = %v, %v; want ErrInvalid", c.q, got, err)
		}
	}
}

// answersHost is a multi-network backend where some pairs of p1 are
// unroutable, some networks are over the host's cap, and TSDT tags carry
// state bits: the mix every answer shape must carry.
func answersHost(t *testing.T) (*Multi, *httptest.Server) {
	t.Helper()
	m := NewMulti(Config{N: 16, Admission: AdmissionConfig{Disabled: true}}, 4)
	t.Cleanup(m.Drain)
	svc, err := m.Get("p1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ApplyFaults([]topology.Link{
		{Stage: 1, From: 5, Kind: topology.Straight}, {Stage: 0, From: 5, Kind: topology.Plus},
		{Stage: 0, From: 5, Kind: topology.Minus}, {Stage: 2, From: 3, Kind: topology.Plus},
	}, nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewMultiHandler(m))
	t.Cleanup(ts.Close)
	return m, ts
}

// answersBatches are request batches over answersHost: one network with
// faults, mixed networks (one over the cap), out-of-range pairs and all
// four scheme spellings.
func answersBatches() [][]RouteJSON {
	var one, mixed, overCap []RouteJSON
	for i := 0; i < 150; i++ {
		sch := []string{"tsdt", "ssdt", "", "reroute"}[i%4]
		one = append(one, RouteJSON{Net: "p1", Src: i % 16, Dst: (i * 7) % 19, Scheme: sch})
		mixed = append(mixed, RouteJSON{Net: []string{"", "p1", DefaultNet, "p<&>"}[i%4], Src: (i * 3) % 17, Dst: i % 16, Scheme: sch})
		overCap = append(overCap, RouteJSON{Net: fmt.Sprintf("q%d", i%5), Src: i % 16, Dst: 5, Scheme: sch})
	}
	return [][]RouteJSON{one, mixed, overCap, one[:1], one[5:70], {{Net: "p1", Src: 5, Dst: 6, Scheme: "tsdt"}}}
}

func rawBatch(t *testing.T, url string, reqs []RouteJSON) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(appendBatchJSON(nil, &BatchJSON{Requests: reqs})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestClientTagAnswersMatchFullShape: for every item, what
// Client.RouteBatch completes from tag answers deep-equals the
// full-shape answer the same server gives the same batch.
func TestClientTagAnswersMatchFullShape(t *testing.T) {
	_, ts := answersHost(t)
	c := NewClient(ts.URL, 5*time.Second)
	for _, reqs := range answersBatches() {
		got, err := c.RouteBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		code, body := rawBatch(t, ts.URL+"/route/batch", reqs)
		if code != http.StatusOK {
			t.Fatalf("full shape: %d %s", code, body)
		}
		var want BatchJSON
		if err := oracleDecode(body, &want); err != nil {
			t.Fatal(err)
		}
		if len(got.Responses) != len(want.Responses) || got.Epoch != want.Epoch || got.Requests != nil {
			t.Fatalf("%d answers epoch %d, full shape %d answers epoch %d", len(got.Responses), got.Epoch, len(want.Responses), want.Epoch)
		}
		var tags, errs int
		for i := range want.Responses {
			w := want.Responses[i]
			if !reflect.DeepEqual(got.Responses[i], w) {
				t.Fatalf("item %d (%+v):\n got %+v\nwant %+v", i, reqs[i], got.Responses[i], w)
			}
			if w.Error != "" {
				errs++
			} else {
				tags++
			}
		}
		if len(reqs) > 100 && (tags == 0 || errs == 0) {
			t.Errorf("batch of %d: %d tags, %d errors; the case wants both", len(reqs), tags, errs)
		}
	}
}

// TestHTTPBatchAnswersOption: ?answers=tags answers tag items in the
// router's body shape, any other answers value is 400 "invalid", and
// other query parameters leave the full shape byte for byte.
func TestHTTPBatchAnswersOption(t *testing.T) {
	_, ts := answersHost(t)
	reqs := answersBatches()[1]
	_, full := rawBatch(t, ts.URL+"/route/batch", reqs)
	code, withParam := rawBatch(t, ts.URL+"/route/batch?x=1", reqs)
	if code != http.StatusOK || !bytes.Equal(withParam, full) {
		t.Fatalf("?x=1: %d %s\nwant %s", code, withParam, full)
	}
	for _, q := range []string{"answers=full", "answers=", "answers=tags&answers=tags"} {
		code, body := rawBatch(t, ts.URL+"/route/batch?"+q, reqs)
		var e errJSON
		if err := decodeErrorJSON(body, &e); err != nil || code != http.StatusBadRequest || e.Code != "invalid" {
			t.Errorf("?%s: %d %s, want 400 invalid", q, code, body)
		}
	}
	code, body := rawBatch(t, ts.URL+"/route/batch?answers=tags", reqs)
	if code != http.StatusOK {
		t.Fatalf("tags: %d %s", code, body)
	}
	var view tagBatchJSON
	if err := oracleDecode(body, &view); err != nil {
		t.Fatal(err)
	}
	var fv BatchJSON
	if err := oracleDecode(full, &fv); err != nil {
		t.Fatal(err)
	}
	want := tagBatchJSON{Epoch: fv.Epoch}
	for _, r := range fv.Responses {
		if r.Error != "" {
			want.Responses = append(want.Responses, tagAnswerJSON{Error: r.Error, Code: r.Code})
		} else {
			want.Responses = append(want.Responses, tagAnswerJSON{Tag: r.Tag, Epoch: r.Epoch})
		}
	}
	if !bytes.Equal(body, oracleEncode(t, want, false)) {
		t.Fatalf("tag answers:\n got %s\nwant %s", body, oracleEncode(t, want, false))
	}
	if bytes.Contains(body, []byte(`"path"`)) || len(body) >= len(full)/2 {
		t.Errorf("tag answers carry %d bytes against the full shape's %d", len(body), len(full))
	}
}

// TestClientRefusesBadTagAnswers: a tag answer with the wrong item
// count, an item with neither tag nor error, or a tag that does not
// parse or does not fit the source fails the call as an undecodable body
// does.
func TestClientRefusesBadTagAnswers(t *testing.T) {
	reqs := []RouteJSON{{Src: 1, Dst: 2, Scheme: "ssdt"}, {Src: 3, Dst: 4}}
	for _, body := range []string{
		`{"responses":[`, // undecodable: the reference
		`{"responses":[{"tag":"010000"}],"epoch":0}`,
		`{"responses":[{"tag":"010000"},{"tag":"001000"},{"tag":"001000"}],"epoch":0}`,
		`{"epoch":3}`,
		`{"responses":[{"tag":"010000"},{}],"epoch":0}`,
		`{"responses":[{"tag":"010000"},null],"epoch":0}`,
		`{"responses":[{"tag":"010000"},{"tag":"001x00"}],"epoch":0}`,
		`{"responses":[{"tag":"010000"},{"tag":"00100"}],"epoch":0}`,
		`{"responses":[{"tag":"010000"},{"tag":"01"}],"epoch":0}`,
		`{"responses":[{"tag":"010000"},{"tag":"` + strings.Repeat("0", 62) + `"}],"epoch":0}`,
		`{"responses":[{"tag":"010000"},{"tag":1}],"epoch":0}`,
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.RawQuery != "answers=tags" {
				t.Errorf("client asked for %q", r.URL.RawQuery)
			}
			WriteBody(w, http.StatusOK, []byte(body))
		}))
		out, err := NewClient(ts.URL, 5*time.Second).RouteBatch(reqs)
		ts.Close()
		var apiErr *APIError
		if err == nil || errors.As(err, &apiErr) || !strings.HasPrefix(err.Error(), "routesvc: decode /route/batch?answers=tags response: ") {
			t.Errorf("%s: %+v, %v; want a decode error", body, out, err)
		}
	}
	// The same items, well formed, complete.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteBody(w, http.StatusOK, []byte(`{"responses":[{"tag":"010000"},{"error":"no","code":"unroutable","tag":"x"}],"epoch":2}`))
	}))
	defer ts.Close()
	out, err := NewClient(ts.URL, 5*time.Second).RouteBatch(reqs)
	p8 := topology.MustParams(8)
	tag := core.MustTag(p8, 2)
	want := BatchJSON{Epoch: 2, Responses: []RouteJSON{
		{Src: 1, Dst: 2, Scheme: "ssdt", Tag: tag.String(), Path: tag.Follow(p8, 1).Switches()},
		{Src: 3, Dst: 4, Scheme: "tsdt", Tag: "x", Error: "no", Code: "unroutable"},
	}}
	if err != nil || !reflect.DeepEqual(out, want) {
		t.Fatalf("got %+v, %v\nwant %+v", out, err, want)
	}
	// A repeated key is no refusal: the last one wins, as encoding/json
	// decodes it.
	body := []byte(`{"responses":[{"tag":"010000"},{"tag":"011000","tag":"001000"}],"epoch":0}`)
	if err := decodeTagAnswers(body, reqs, &out); err != nil || out.Responses[1].Tag != "001000" {
		t.Fatalf("%s: %+v, %v; want the last tag", body, out, err)
	}
}
