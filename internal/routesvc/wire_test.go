package routesvc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"iadm/internal/core"
	"iadm/internal/topology"
)

// oracleEncode is the encoding the hot endpoints wrote before the wire
// codec: a json.Encoder with the given HTML escaping, trailing newline
// included. json.Marshal is the same minus the newline, escaping on.
func oracleEncode(t testing.TB, v any, escapeHTML bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(escapeHTML)
	if err := enc.Encode(v); err != nil {
		t.Fatalf("oracle encode %#v: %v", v, err)
	}
	return buf.Bytes()
}

func oracleDecode(body []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// routerReqView and routerRespView are the types the fleet router
// decoded batch bodies into before it scanned raw item spans.
type routerReqView struct {
	Requests []RouteJSON `json:"requests"`
}

type routerRespView struct {
	Responses []json.RawMessage `json:"responses"`
	Epoch     uint64            `json:"epoch"`
}

// checkDecoded holds an entry point to the oracle on one body: it
// accepts exactly what the oracle accepts, with an equal value.
func checkDecoded(t *testing.T, what string, body []byte, errO, errW error, ours, want any) {
	t.Helper()
	switch {
	case errO == nil && errW != nil:
		t.Fatalf("%s: codec accepted %q, oracle refused: %v", what, body, errW)
	case errO == nil && !reflect.DeepEqual(ours, want):
		t.Fatalf("%s: %q decoded to\n%#v\nwant\n%#v", what, body, ours, want)
	case errO != nil && errW == nil:
		t.Fatalf("%s: codec refused %q, oracle accepted: %v", what, body, errO)
	}
}

// checkFast holds the fast path alone to the oracle: a body it accepts,
// the oracle accepts with an equal value, so no wrong acceptance can hide
// behind the fallback.
func checkFast(t *testing.T, what string, body []byte, fast bool, errW error, ours, want any) {
	t.Helper()
	if fast && (errW != nil || !reflect.DeepEqual(ours, want)) {
		t.Fatalf("%s: fast path accepted %q as\n%#v\noracle (%v)\n%#v", what, body, ours, errW, want)
	}
}

// fastBatch runs the batch walk alone, keeping every field, and returns
// the items of both arrays, the epoch and whether it accepted the body.
func fastBatch(body []byte) (reqs, resps []RouteJSON, epoch uint64, ok bool) {
	d := wireDec{b: body}
	epoch, ok = d.batch(func(resp bool, _ []byte, r *RouteJSON) {
		if resp {
			resps = append(resps, *r)
		} else {
			reqs = append(reqs, *r)
		}
	})
	return reqs, resps, epoch, ok
}

// sameItems reports whether two item lists hold equal items (an empty
// list and a nil one alike).
func sameItems(a, b []RouteJSON) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// checkWireBody runs every decode entry point of the codec, and its
// fast path alone, against the oracle on body, and re-encodes what
// decoded against the oracle encoder.
func checkWireBody(t *testing.T, body []byte) {
	t.Helper()
	var r, rw, rf RouteJSON
	errO, errW := DecodeRouteJSON(body, &r), oracleDecode(body, &rw)
	checkDecoded(t, "RouteJSON", body, errO, errW, r, rw)
	checkFast(t, "RouteJSON", body, decodeRouteFast(body, &rf), errW, rf, rw)
	if errW == nil {
		checkEncodeRoute(t, &rw)
	}

	var bw BatchJSON
	errW = oracleDecode(body, &bw)
	if errW == nil {
		if got, want := append(appendBatchJSON(nil, &bw), '\n'), oracleEncode(t, &bw, false); !bytes.Equal(got, want) {
			t.Fatalf("BatchJSON encode:\n got %q\nwant %q", got, want)
		}
	}
	if reqs, resps, epoch, ok := fastBatch(body); ok && (errW != nil || epoch != bw.Epoch || !sameItems(reqs, bw.Requests) || !sameItems(resps, bw.Responses)) {
		t.Fatalf("batch walk accepted %q as %+v %+v epoch %d, oracle (%v) %+v", body, reqs, resps, epoch, errW, bw)
	}

	var e, ew errJSON
	var ef RouteJSON
	errO, errW = decodeErrorJSON(body, &e), oracleDecode(body, &ew)
	checkDecoded(t, "errJSON", body, errO, errW, e, ew)
	checkFast(t, "errJSON", body, decodeRouteFast(body, &ef), errW, errJSON{Error: ef.Error, Code: ef.Code}, ew)
	if errW == nil {
		if got, want := append(AppendErrorJSON(nil, ew.Error, ew.Code), '\n'), oracleEncode(t, &ew, false); !bytes.Equal(got, want) {
			t.Fatalf("errJSON encode:\n got %q\nwant %q", got, want)
		}
	}

	// The router's scan: each item span decodes to the item the oracle
	// decodes, and carries that item's placement key.
	var rq routerReqView
	items, errO := AppendBatchItems(nil, body)
	errW = oracleDecode(body, &rq)
	checkDecoded(t, "router requests", body, errO, errW, nil, nil)
	if errO == nil {
		if len(items) != len(rq.Requests) {
			t.Fatalf("router scan of %q: %d items, oracle %d", body, len(items), len(rq.Requests))
		}
		for i, it := range items {
			var v RouteJSON
			if err := oracleDecode(it.Raw, &v); err != nil {
				t.Fatalf("item %d span %q does not decode: %v", i, it.Raw, err)
			}
			if it.Net != v.Net || it.Src != v.Src || it.Dst != v.Dst || !reflect.DeepEqual(v, rq.Requests[i]) {
				t.Fatalf("router item %d of %q: key (%q,%d,%d), span %#v, oracle %#v", i, body, it.Net, it.Src, it.Dst, v, rq.Requests[i])
			}
		}
	}

	// The client's answer decode: the fast walk alone decodes each
	// tag-shape item as the oracle does, and the completion, fallback
	// included, refuses what the oracle refuses and keeps every item's
	// answer fields.
	var tb tagBatchJSON
	errW = oracleDecode(body, &tb)
	if _, resps, epoch, ok := fastBatch(body); ok {
		answers := make([]tagAnswerJSON, len(resps))
		for i, r := range resps {
			answers[i] = tagAnswerJSON{Tag: r.Tag, Epoch: r.Epoch, Error: r.Error, Code: r.Code}
		}
		if errW != nil || epoch != tb.Epoch || len(answers) != len(tb.Responses) || len(answers) > 0 && !reflect.DeepEqual(answers, tb.Responses) {
			t.Fatalf("tag answers of %q: %+v epoch %d, oracle (%v) %+v epoch %d", body, answers, epoch, errW, tb.Responses, tb.Epoch)
		}
	}
	var out BatchJSON
	errO = decodeTagAnswers(body, make([]RouteJSON, len(tb.Responses)), &out)
	switch {
	case errW != nil && errO == nil:
		t.Fatalf("tag answers: codec accepted %q, oracle refused: %v", body, errW)
	case errO == nil:
		for i, a := range tb.Responses {
			if r := out.Responses[i]; r.Tag != a.Tag || r.Epoch != a.Epoch || r.Error != a.Error || r.Code != a.Code {
				t.Fatalf("tag answer %d of %q: %+v, oracle %+v", i, body, r, a)
			}
		}
	}

	var rs routerRespView
	spans, epoch, errO := AppendBatchResponses(nil, body)
	errW = oracleDecode(body, &rs)
	checkDecoded(t, "router responses", body, errO, errW, nil, nil)
	if errO == nil {
		if epoch != rs.Epoch || len(spans) != len(rs.Responses) {
			t.Fatalf("response split of %q: %d items epoch %d, oracle %d items epoch %d", body, len(spans), epoch, len(rs.Responses), rs.Epoch)
		}
		for i := range spans {
			if !bytes.Equal(spans[i], rs.Responses[i]) {
				t.Fatalf("response item %d: %q, oracle %q", i, spans[i], rs.Responses[i])
			}
		}
	}
}

// checkEncodeRoute compares AppendRouteJSON with both oracle escapings.
func checkEncodeRoute(t *testing.T, r *RouteJSON) {
	t.Helper()
	if got, want := append(AppendRouteJSON(nil, r, false), '\n'), oracleEncode(t, r, false); !bytes.Equal(got, want) {
		t.Fatalf("RouteJSON encode:\n got %q\nwant %q", got, want)
	}
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendRouteJSON(nil, r, true); !bytes.Equal(got, want) {
		t.Fatalf("RouteJSON encode (HTML escaping):\n got %q\nwant %q", got, want)
	}
}

// checkSharedPaths asserts every path of a completed answer lives in one
// backing array: laid end to end, each capped at its own length so an
// append to one cannot clobber the next.
func checkSharedPaths(t *testing.T, b *BatchJSON) {
	t.Helper()
	type span struct{ at, n uintptr }
	var spans []span
	for _, r := range b.Responses {
		if len(r.Path) == 0 {
			continue
		}
		if cap(r.Path) != len(r.Path) {
			t.Fatalf("path %v has cap %d", r.Path, cap(r.Path))
		}
		spans = append(spans, span{reflect.ValueOf(r.Path).Pointer(), uintptr(len(r.Path))})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].at < spans[j].at })
	for i := 1; i < len(spans); i++ {
		if want := spans[i-1].at + spans[i-1].n*unsafe.Sizeof(int(0)); spans[i].at != want {
			t.Fatalf("path %d starts at %#x, want %#x (right after path %d)", i, spans[i].at, want, i-1)
		}
	}
}

// wireSeedBodies are the request and response bodies the handler, router
// and client tests send, plus hand-written edge cases.
func wireSeedBodies(t testing.TB) [][]byte {
	var seeds [][]byte
	add := func(v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, raw, append(raw, '\n'))
	}
	add(RouteJSON{Src: 2, Dst: 3, Scheme: "ssdt"})
	add(RouteJSON{Net: "p0", Src: 5, Dst: 900, Scheme: "tsdt"})
	batch := BatchJSON{Requests: []RouteJSON{
		{Src: 0, Dst: 7, Scheme: "tsdt"},
		{Src: 1, Dst: 7, Scheme: "ssdt"},
		{Src: 2, Dst: 7, Scheme: "ssdt"},
		{Src: 0, Dst: 99, Scheme: "tsdt"},
	}}
	add(batch)
	batch.Requests[1].Scheme = "warp"
	add(batch)
	var fleet BatchJSON
	for i := 0; i < 12; i++ {
		fleet.Requests = append(fleet.Requests, RouteJSON{Net: fmt.Sprintf("p%d", i%4), Src: i % 64, Dst: (i * 7) % 64, Scheme: "ssdt"})
	}
	add(fleet)
	add(MutateJSON{Links: []string{"1:5:0"}})
	add(BatchJSON{
		Responses: []RouteJSON{
			{Net: "p1", Src: 1, Dst: 6, Scheme: "tsdt", Tag: "011000", Path: []int{1, 2, 6, 6}, Epoch: 3},
			{Src: 0, Dst: 99, Scheme: "tsdt", Error: "routesvc: invalid request: pair (0, 99) outside 0..7", Code: "invalid"},
		},
		Epoch: 3,
	})
	add(errJSON{Error: "routesvc: overload", Code: "overload"})
	for _, s := range []string{
		"{", "", " ", "null", "nullx", "{}", "[]", `"x"`, "0",
		`{"requests":[],"responses":[]}`,
		`{"requests":null,"responses":[null,{"path":[]},{"path":null}]}`,
		`{"SRC":1,"Dst":2,"scheme":"reroute","x":{"a":[1,{"b":null}],"c":-1.5e3}}`,
		`{"net":"p\u0030","tag":"\ud83d\ude00\ud800x\u2028","error":"a\"b\\c\/d\b\f\n\r\t"}`,
		`{"src":-9223372036854775808,"dst":9223372036854775807,"epoch":18446744073709551615}`,
		`{"src":9223372036854775808}`, `{"epoch":-0}`, `{"src":1.0}`, `{"src":"1"}`,
		`{"src":1,"src":2}`, `{"s\u0072c":1}`, `{"ſrc":1}`, `{"cached":true,"coalesced":false}`,
		`{"path":[1,null,3]}`, `{"requests":[{"src":1}]} trailing`, "\t{\n\"src\" : 1 ,\r\"dst\":2}",
		`{"net":"\xff\xfe"}`, `{"requests":{}}`, `{"responses":[1,"two",[3],{"x":4},true,null]}`,
		// Decoder boundaries: the path loop's hand-off to the general
		// integer scan (leading zero, whitespace, sign, fraction,
		// exponent, the 18-digit fast-path limit, a trailing comma, a cut
		// body), and keys sharing the key index's length and first byte.
		`{"path":[01]}`, `{"path":[1 ,2]}`, `{"path":[ 1]}`, `{"path":[-0,-1]}`, `{"path":[1e2]}`, `{"path":[1.0]}`,
		`{"path":[123456789012345678]}`, `{"path":[1234567890123456789]}`, `{"path":[12345678901234567890]}`,
		`{"path":[1,]}`, `{"path":[1`,
		`{"responses":[{"path":[01]},{"path":[1 ,2]},{"path":[1,]}]}`, `{"responses":[{"path":[1`,
		`{"EPOCH":1,"Error":"x"}`, `{"srC":1}`,
		// Keys as the encoders write them, repeated or out of encoder
		// order, so the in-order key match hands over to the general
		// scan and its repeat refusal.
		`{"net":"a","src":1,"net":"b"}`, `{"src":1,"dst":2,"src":3}`, `{"code":"x","code":"y"}`,
		`{"dst":2,"src":1,"net":"a","scheme":"ssdt"}`, `{"code":"c","error":"e","path":[1],"tag":"01","net":"n"}`,
		`{"net":"a","src":1,"dst":2,"scheme":"tsdt","tag":"0110","path":[1,2,3],"epoch":4,"cached":true,"coalesced":false,"error":"e","code":"c"}`,
		`{"net":"a","src":1,"dst":2,"scheme":"tsdt","tag":"0110","path":[1,2,3],"epoch":4,"cached":true,"coalesced":false,"error":"e","code":"c","src":5}`,
		`{"net" :"a","src":1,"SRC":2}`, `{"src":1,"Src":2}`, `{"srcx":1,"src":2}`, `{"src":1,"dst":2,"dst":3,"net":"x"}`,
		`{"requests":[{"src":1,"dst":2},{"dst":2,"src":1},{"src":1,"src":1}]}`,
		// Tag-shape answers: the client's side of ?answers=tags.
		`{"responses":[{"tag":"0110","epoch":3},{"error":"routesvc: overload","code":"overload"},{"tag":"1000"}],"epoch":3}`,
		`{"responses":[{"epoch":2,"tag":"01"},{"code":"x","error":"y"},{"tag":"01","tag":"10"}]}`,
		`{"responses":[{"tag":1}]}`, `{"responses":[{"epoch":-1}]}`, `{"responses":[{"src":"x","tag":"01"}]}`,
		// One body per class outside the fast path's grammar, each
		// otherwise canonical: an escaped key, a case-folded key, a
		// repeated key, whitespace, an escape in a value, invalid UTF-8,
		// an exponent, a number past uint64 (after the largest one), and
		// nesting 10000 deep.
		`{"s\u0072c":1,"dst":2,"scheme":"ssdt"}`, `{"src":1,"DST":2,"scheme":"ssdt"}`, `{"src":1,"dst":2,"dst":3,"scheme":"ssdt"}`,
		`{"requests":[{"src":1,"dst":2,"scheme":"ssdt"}, {"src":3,"dst":4,"scheme":"tsdt"}]}`,
		`{"responses":[{"tag":"01\u0031","epoch":2}],"epoch":2}`, "{\"requests\":[{\"net\":\"p\xff\",\"src\":1,\"dst\":2,\"scheme\":\"ssdt\"}]}",
		`{"src":1e0,"dst":2,"scheme":"ssdt"}`, `{"responses":[{"tag":"01","epoch":18446744073709551615}],"epoch":18446744073709551616}`,
		`{"src":1,"dst":2,"scheme":"ssdt","x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

func FuzzWireCodec(f *testing.F) {
	for _, s := range wireSeedBodies(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkWireBody(t, body)
		checkEncodeFromBytes(t, body)
	})
}

// checkEncodeFromBytes builds wire values straight from fuzz bytes — so
// strings may hold invalid UTF-8, control bytes and HTML metacharacters
// that a decoded value never carries — and compares every encoder with
// its oracle.
func checkEncodeFromBytes(t *testing.T, raw []byte) {
	t.Helper()
	part := func(k int) string {
		n := len(raw) / 5
		return string(raw[k*n : (k+1)*n])
	}
	num := func(k int) int64 {
		var w [8]byte
		copy(w[:], raw[min(len(raw), k):])
		return int64(binary.LittleEndian.Uint64(w[:]))
	}
	r := RouteJSON{
		Net: part(0), Src: int(num(0)), Dst: int(num(3)), Scheme: part(1), Tag: part(2),
		Epoch: uint64(num(5)), Error: part(3), Code: part(4),
	}
	for i := 0; i+1 < len(raw) && i < 16; i += 2 {
		r.Path = append(r.Path, int(int8(raw[i])))
	}
	checkEncodeRoute(t, &r)
	b := BatchJSON{Requests: []RouteJSON{r, {}}, Responses: []RouteJSON{r}, Epoch: r.Epoch}
	if got, want := append(appendBatchJSON(nil, &b), '\n'), oracleEncode(t, &b, false); !bytes.Equal(got, want) {
		t.Fatalf("BatchJSON encode:\n got %q\nwant %q", got, want)
	}
	if got, want := append(AppendErrorJSON(nil, r.Error, r.Code), '\n'), oracleEncode(t, errJSON{Error: r.Error, Code: r.Code}, false); !bytes.Equal(got, want) {
		t.Fatalf("errJSON encode:\n got %q\nwant %q", got, want)
	}

	// A service result rendered in place: tag bits and path switches.
	p, _ := topology.NewParams(16)
	res := Result{Src: int(uint64(num(1)) % 16), Dst: int(uint64(num(2)) % 16), Scheme: Scheme(len(raw) % 2), Epoch: r.Epoch}
	res.Tag = core.MustTag(p, res.Dst)
	for i := 0; i < p.Stages(); i++ {
		res.Tag = res.Tag.WithStateBit(i, int(num(4)>>i&1))
	}
	res.Path = res.Tag.Follow(p, res.Src)
	switch len(raw) % 4 {
	case 1:
		res.Err = fmt.Errorf("%w: %s", core.ErrNoPath, r.Error)
	case 2:
		res.Err = ErrOverload
	}
	want := resultJSON(res)
	want.Net = r.Net
	if got, w := append(appendResult(nil, r.Net, &res), '\n'), oracleEncode(t, &want, false); !bytes.Equal(got, w) {
		t.Fatalf("result encode:\n got %q\nwant %q", got, w)
	}

	// The same result as a tag answer, alone and in a body beside a
	// failed copy of itself.
	ta := tagAnswerJSON{Tag: want.Tag, Epoch: want.Epoch, Error: want.Error, Code: want.Code}
	if res.Err != nil {
		ta.Tag, ta.Epoch = "", 0
	}
	if got, w := append(appendTagAnswer(nil, &res), '\n'), oracleEncode(t, &ta, false); !bytes.Equal(got, w) {
		t.Fatalf("tag answer encode:\n got %q\nwant %q", got, w)
	}
	failed := Result{Err: fmt.Errorf("%w: %s", ErrInvalid, r.Net)}
	tb := tagBatchJSON{Responses: []tagAnswerJSON{ta, {Error: failed.Err.Error(), Code: "invalid"}}, Epoch: uint64(num(6))}
	if got, w := append(appendTagResults(nil, []Result{res, failed}, tb.Epoch), '\n'), oracleEncode(t, &tb, false); !bytes.Equal(got, w) {
		t.Fatalf("tag answers encode:\n got %q\nwant %q", got, w)
	}
	if got, w := append(appendTagResults(nil, nil, 0), '\n'), oracleEncode(t, &tagBatchJSON{Responses: []tagAnswerJSON{}}, false); !bytes.Equal(got, w) {
		t.Fatalf("empty tag answers encode:\n got %q\nwant %q", got, w)
	}
}

func TestWireSeedsAgainstOracle(t *testing.T) {
	for _, s := range wireSeedBodies(t) {
		checkWireBody(t, s)
		checkEncodeFromBytes(t, s)
	}
}

// TestWireRefusalClasses: the bodies the codec once refused although
// encoding/json accepts them (escaped, non-ASCII and repeated keys)
// leave the fast path and decode, through the fallback, exactly as
// encoding/json decodes them.
func TestWireRefusalClasses(t *testing.T) {
	for _, body := range []string{
		`{"s\u0072c":1}`,                // escaped key
		`{"ſrc":1}`,                     // non-ASCII key (folds onto src)
		`{"naïve":1}`,                   // non-ASCII unknown key
		`{"src":1,"src":2}`,             // repeated key
		`{"src":1,"SRC":2}`,             // repeated after case folding
		`{"requests":[],"requests":[]}`, /* repeated array */
	} {
		if err := oracleDecode([]byte(body), &RouteJSON{}); err != nil {
			t.Fatalf("oracle refused %s: %v", body, err)
		}
		if _, _, _, ok := fastBatch([]byte(body)); ok || decodeRouteFast([]byte(body), &RouteJSON{}) {
			t.Errorf("%s took the fast path", body)
		}
		checkWireBody(t, []byte(body))
	}
}

// TestWireTruncatedBodies: every proper prefix of a batch body is
// refused by the codec and the oracle alike, and every proper prefix of
// a tag answer by the client's decode.
func TestWireTruncatedBodies(t *testing.T) {
	body := oracleEncode(t, BatchJSON{
		Requests:  []RouteJSON{{Net: "p\"1", Src: 3, Dst: 4, Scheme: "ssdt"}},
		Responses: []RouteJSON{{Src: 1, Dst: 2, Scheme: "tsdt", Tag: "0110", Path: []int{1, 3, 2}, Epoch: 12, Error: "é\u2028"}},
		Epoch:     12,
	}, false)
	body = bytes.TrimSpace(body)
	for n := 0; n < len(body); n++ {
		if err := oracleDecode(body[:n], &BatchJSON{}); err == nil {
			t.Fatalf("oracle accepted prefix %q", body[:n])
		}
		if _, err := AppendBatchItems(nil, body[:n]); err == nil {
			t.Fatalf("router scan accepted prefix %q", body[:n])
		}
		if _, _, err := AppendBatchResponses(nil, body[:n]); err == nil {
			t.Fatalf("response split accepted prefix %q", body[:n])
		}
	}
	reqs := []RouteJSON{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}}
	tags := []byte(`{"responses":[{"tag":"0110","epoch":12},{"error":"é\u2028","code":"unroutable"}],"epoch":12}`)
	for n := 0; n < len(tags); n++ {
		if err := decodeTagAnswers(tags[:n], reqs, &BatchJSON{}); err == nil {
			t.Fatalf("tag answer prefix %q accepted", tags[:n])
		}
	}
	if err := decodeTagAnswers(tags, reqs, &BatchJSON{}); err != nil {
		t.Fatalf("whole tag answer: %v", err)
	}
}

// TestWireNestedUnknownValues: unknown keys carry any JSON value, nested
// as deep as encoding/json allows, and are skipped.
func TestWireNestedUnknownValues(t *testing.T) {
	var r RouteJSON
	body := `{"x":{"a":[1,{"b":null,"c":[true,false,"}]"]}],"d":{}},"src":7,"y":[[[]]],"dst":-3}`
	if err := DecodeRouteJSON([]byte(body), &r); err != nil || r.Src != 7 || r.Dst != -3 {
		t.Fatalf("decode %s = %+v, %v", body, r, err)
	}
	deep := func(n int) []byte {
		return []byte(`{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `,"src":1}`)
	}
	// The top-level object is depth 1: 9999 nested arrays fit
	// encoding/json's limit of 10000, 10000 exceed it, for the codec and
	// the oracle alike.
	const jsonMaxDepth = 10000
	for _, n := range []int{jsonMaxDepth - 1, jsonMaxDepth} {
		errO := DecodeRouteJSON(deep(n), &RouteJSON{})
		errW := oracleDecode(deep(n), &RouteJSON{})
		if (errO == nil) != (errW == nil) {
			t.Errorf("depth %d: codec %v, oracle %v", n+1, errO, errW)
		}
	}
}

// TestWireStringEscapes: escapes, surrogate pairs, lone surrogates and
// invalid UTF-8 decode as encoding/json decodes them; malformed escapes
// are refused.
// TestUnplainBytes holds the string scanner's word test to plainByte:
// the lowest flag of a word always marks its first non-plain byte, for
// every byte value at every position after plain bytes, with every
// value above it.
func TestUnplainBytes(t *testing.T) {
	first := func(w [8]byte) int {
		for k, c := range w {
			if !plainByte[c] {
				return k
			}
		}
		return 8
	}
	for pos := 0; pos < 8; pos++ {
		for c := 0; c < 256; c++ {
			for _, above := range []byte{'a', 0, '"', '\\', 0x1f, 0x20, 0x21, 0x7f, 0x80, 0xff} {
				w := [8]byte{'x', 'x', 'x', 'x', 'x', 'x', 'x', 'x'}
				w[pos] = byte(c)
				for k := pos + 1; k < 8; k++ {
					w[k] = above
				}
				got := 8
				if m := unplainBytes(binary.LittleEndian.Uint64(w[:])); m != 0 {
					got = bits.TrailingZeros64(m) >> 3
				}
				if want := first(w); got != want {
					t.Fatalf("word %q: first non-plain byte at %d, word test says %d", w, want, got)
				}
			}
		}
	}
}

func TestWireStringEscapes(t *testing.T) {
	for _, body := range []string{
		`{"net":"p\u0030"}`, `{"net":"\ud83d\ude00"}`, `{"net":"\ud800"}`, `{"net":"\udc00\ud800x"}`,
		`{"net":"a\"b\\c\/d\b\f\n\r\t"}`, "{\"net\":\"\xff\xc3\"}", `{"net":"\u00e9\u2028"}`, `{"tag":"\u0000"}`,
	} {
		var got, want RouteJSON
		if err := DecodeRouteJSON([]byte(body), &got); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if err := oracleDecode([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %q/%q, want %q/%q", body, got.Net, got.Tag, want.Net, want.Tag)
		}
	}
	for _, body := range []string{`{"net":"\x"}`, `{"net":"\u12"}`, `{"net":"\u12g4"}`, "{\"net\":\"a\nb\"}", `{"net":"\'"}`} {
		if err := DecodeRouteJSON([]byte(body), &RouteJSON{}); err == nil {
			t.Errorf("%s accepted", body)
		}
		if err := oracleDecode([]byte(body), &RouteJSON{}); err == nil {
			t.Errorf("oracle accepted %s", body)
		}
	}
}

// TestDecodeBatchSharesPaths: a completed tag answer holds all its paths
// in one backing array, in item order, each the tag's walk from its
// source and capped at its own length.
func TestDecodeBatchSharesPaths(t *testing.T) {
	p := topology.MustParams(1024)
	var reqs []RouteJSON
	var in tagBatchJSON
	for i := 0; i < 300; i++ {
		reqs = append(reqs, RouteJSON{Src: i, Dst: (i * 37) % 1024, Scheme: "ssdt"})
		a := tagAnswerJSON{Tag: core.MustTag(p, reqs[i].Dst).WithStateBit(i%10, 1).String(), Epoch: uint64(i % 3)}
		if i%7 == 3 {
			a = tagAnswerJSON{Error: "no", Code: "unroutable"}
		}
		in.Responses = append(in.Responses, a)
	}
	body := oracleEncode(t, in, false)
	body = bytes.Replace(body, []byte(`"tag":"1`), []byte(`"tag":"\u0031`), 1) // one escaped tag
	var out BatchJSON
	if err := decodeTagAnswers(body, reqs, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Responses) != cap(out.Responses) || len(out.Responses) != len(reqs) {
		t.Fatalf("responses: len %d cap %d, want an exact-size slice of %d", len(out.Responses), cap(out.Responses), len(reqs))
	}
	checkSharedPaths(t, &out)
	for i, r := range out.Responses {
		a := in.Responses[i]
		if r.Tag != a.Tag || r.Epoch != a.Epoch || r.Error != a.Error || r.Code != a.Code {
			t.Fatalf("item %d: %+v, sent %+v", i, r, a)
		}
		if a.Error == "" {
			tag, err := core.ParseTag(p.Stages(), a.Tag)
			if err != nil {
				t.Fatal(err)
			}
			if want := tag.Follow(p, reqs[i].Src).Switches(); !slices.Equal(r.Path, want) {
				t.Fatalf("item %d path %v, tag walk %v", i, r.Path, want)
			}
		} else if r.Path != nil {
			t.Fatalf("failed item %d has path %v", i, r.Path)
		}
	}
	for i := 0; i+1 < len(out.Responses); i++ {
		next := slices.Clone(out.Responses[i+1].Path)
		out.Responses[i].Path = append(out.Responses[i].Path, -1, -2)
		if !slices.Equal(out.Responses[i+1].Path, next) {
			t.Fatalf("appending to item %d's path changed item %d's: %v, was %v", i, i+1, out.Responses[i+1].Path, next)
		}
	}
}

// TestWireHandlerDifferential drives twin services with the same request
// sequence, one through the codec-backed Handler and one through the
// legacy encoding/json handlers, and requires byte-identical bodies for
// every accepted request (status and "code" for refusals, whose messages
// name the decoder's error).
func TestWireHandlerDifferential(t *testing.T) {
	newHost := func() (*Multi, *Handler) {
		m := NewMulti(Config{N: 16, Admission: AdmissionConfig{Disabled: true}}, 3)
		t.Cleanup(m.Drain)
		return m, NewMultiHandler(m)
	}
	mA, ours := newHost()
	mB, hB := newHost()
	legacy := legacyHandler(hB)
	for _, m := range []*Multi{mA, mB} {
		svc, err := m.Get("p1")
		if err != nil {
			t.Fatal(err)
		}
		// Straight links at stage 1 out of 5 make some p1 pairs unroutable.
		if _, err := svc.ApplyFaults([]topology.Link{{Stage: 1, From: 5, Kind: topology.Straight}, {Stage: 0, From: 5, Kind: topology.Plus}, {Stage: 0, From: 5, Kind: topology.Minus}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var batch, mixed, overCap BatchJSON
	for i := 0; i < 150; i++ {
		sch := []string{"tsdt", "ssdt", "", "reroute"}[i%4]
		batch.Requests = append(batch.Requests, RouteJSON{Net: "p1", Src: i % 16, Dst: (i * 7) % 19, Scheme: sch})
		mixed.Requests = append(mixed.Requests, RouteJSON{Net: []string{"", "p1", DefaultNet, "p<&>"}[i%4], Src: (i * 3) % 16, Dst: i % 16, Scheme: sch})
		overCap.Requests = append(overCap.Requests, RouteJSON{Net: fmt.Sprintf("q%d", i%5), Src: i % 16, Dst: 5, Scheme: sch})
	}
	type call struct{ method, target, body string }
	var calls []call
	post := func(target string, v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, call{http.MethodPost, target, string(raw)})
	}
	for s := 0; s < 16; s += 3 {
		for d := 0; d < 16; d += 5 {
			calls = append(calls, call{http.MethodGet, fmt.Sprintf("/route?src=%d&dst=%d&net=p1", s, d), ""})
			post("/route", RouteJSON{Net: "p1", Src: s, Dst: d, Scheme: "tsdt"})
			post("/route", RouteJSON{Src: s, Dst: d, Scheme: "ssdt"})
		}
	}
	post("/route/batch", batch)
	post("/route/batch", batch) // the same batch again
	post("/route/batch", mixed)
	post("/route/batch", overCap)
	post("/route/batch", BatchJSON{Requests: []RouteJSON{}})
	post("/route/batch", BatchJSON{Requests: []RouteJSON{{Net: "p1", Src: 0, Dst: 99}, {Src: 3, Dst: 2, Scheme: "warp"}}})
	post("/route", RouteJSON{Src: 1, Dst: 99})
	post("/route", RouteJSON{Src: 1, Dst: 2, Scheme: "warp"})
	for _, raw := range []string{
		"{", "", "null", "{}", `{"requests":null}`, `{"requests":[null,{"src":3,"dst":4}]}`,
		` {"Net":"p1","SRC":5,"dst":5,"scheme":"ssdt","extra":[1,{"a":"}"}]} trailing`,
		`{"net":"p\u0031","src":2,"dst":9,"tag":"ignored","path":[1,2]}`,
		`{"requests":[{"src":1,"dst":2}],"responses":[{"src":1}],"epoch":4}`,
		`{"requests":[{"src":1.5}]}`, `{"src":"1"}`, `{"requests":"x"}`,
	} {
		calls = append(calls, call{http.MethodPost, "/route", raw}, call{http.MethodPost, "/route/batch", raw})
	}
	calls = append(calls, call{http.MethodGet, "/route/batch", ""}, call{http.MethodPut, "/route", "{}"})

	for _, c := range calls {
		recA, recB := httptest.NewRecorder(), httptest.NewRecorder()
		ours.ServeHTTP(recA, httptest.NewRequest(c.method, c.target, strings.NewReader(c.body)))
		legacy.ServeHTTP(recB, httptest.NewRequest(c.method, c.target, strings.NewReader(c.body)))
		if recA.Code != recB.Code {
			t.Fatalf("%s %s %s: status %d, legacy %d (%s)", c.method, c.target, c.body, recA.Code, recB.Code, recB.Body)
		}
		if recA.Header().Get("Content-Type") != recB.Header().Get("Content-Type") {
			t.Fatalf("%s %s: content type %q, legacy %q", c.method, c.target, recA.Header().Get("Content-Type"), recB.Header().Get("Content-Type"))
		}
		if recA.Code == http.StatusOK {
			if !bytes.Equal(recA.Body.Bytes(), recB.Body.Bytes()) {
				t.Fatalf("%s %s %s:\n got %s\nwant %s", c.method, c.target, c.body, recA.Body, recB.Body)
			}
			continue
		}
		var eA, eB errJSON
		if err := json.Unmarshal(recA.Body.Bytes(), &eA); err != nil {
			t.Fatalf("error body %q: %v", recA.Body, err)
		}
		_ = json.Unmarshal(recB.Body.Bytes(), &eB)
		if eA.Code != eB.Code {
			t.Fatalf("%s %s %s: code %q, legacy %q", c.method, c.target, c.body, eA.Code, eB.Code)
		}
		if c.method != http.MethodPost && recA.Body.String() != recB.Body.String() {
			// Refusals without a body decode carry the same message too.
			t.Fatalf("%s %s %q: %s, legacy %s", c.method, c.target, c.body, recA.Body, recB.Body)
		}
	}
}

// TestCanonicalBodiesTakeFastPath: every body the repo's writers produce
// (the encoders, the Client's request bodies, and the fleet router's
// sub-batches and merged answers, framed here as the router frames them)
// is accepted by the fast path alone, with the oracle's value, over
// random nets, pairs, tags, paths, epochs and both answer shapes. A
// canonical body that fell back would still decode right, only slower;
// this is what catches it.
func TestCanonicalBodiesTakeFastPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	p := topology.MustParams(1024)
	nets := []string{"", "p0", "p3", DefaultNet, "fabric-7.west"}
	route := func(what string, body []byte) {
		t.Helper()
		var got, want RouteJSON
		if !decodeRouteFast(body, &got) {
			t.Fatalf("%s: %q left the fast path", what, body)
		}
		if err := oracleDecode(body, &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %q decoded to %+v, oracle %+v (%v)", what, body, got, want, err)
		}
	}
	batch := func(what string, body []byte) {
		t.Helper()
		reqs, resps, epoch, ok := fastBatch(body)
		if !ok {
			t.Fatalf("%s: %q left the fast path", what, body)
		}
		var want BatchJSON
		if err := oracleDecode(body, &want); err != nil || epoch != want.Epoch || !sameItems(reqs, want.Requests) || !sameItems(resps, want.Responses) {
			t.Fatalf("%s: %q decoded to %+v %+v epoch %d, oracle %+v (%v)", what, body, reqs, resps, epoch, want, err)
		}
	}
	// frame joins item spans as the fleet router does: a sub-batch
	// ({"requests":[…]}) or a merged answer ({"responses":[…],"epoch":N}).
	frame := func(head string, spans [][]byte, tail string) []byte {
		b := []byte(head)
		for i, s := range spans {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, s...)
		}
		return append(b, tail...)
	}
	for round := 0; round < 300; round++ {
		n := rng.IntN(70)
		var reqs []RouteJSON
		if n > 0 || rng.IntN(2) == 0 {
			reqs = make([]RouteJSON, n)
		}
		nn := make([]string, n)
		results := make([]Result, n)
		for i := range reqs {
			src, dst := rng.IntN(p.Size()), rng.IntN(p.Size())
			switch rng.IntN(20) {
			case 0:
				src, dst = -rng.IntN(5), p.Size()+rng.IntN(9000)
			case 1:
				src, dst = math.MinInt64, math.MaxInt64
			}
			nn[i] = nets[rng.IntN(len(nets))]
			reqs[i] = RouteJSON{Net: nn[i], Src: src, Dst: dst, Scheme: []string{"", "ssdt", "tsdt", "reroute", "SSDT"}[rng.IntN(5)]}
			res := Result{Src: src, Dst: dst, Scheme: Scheme(rng.IntN(2)), Epoch: uint64(rng.IntN(2)) * (rng.Uint64() >> rng.IntN(64))}
			switch rng.IntN(8) {
			case 0:
				res.Err = fmt.Errorf("%w: pair (%d, %d) outside 0..%d", ErrInvalid, src, dst, p.Size()-1)
			case 1:
				res.Err = ErrOverload
			case 2:
				res.Err = fmt.Errorf("%w: every path from %d to %d crosses a blocked link", core.ErrNoPath, src, dst)
			default:
				res.Src, res.Dst = rng.IntN(p.Size()), rng.IntN(p.Size())
				res.Tag = core.MustTag(p, res.Dst)
				for s := 0; s < p.Stages() && res.Scheme == SchemeTSDT; s++ {
					res.Tag = res.Tag.WithStateBit(s, rng.IntN(2))
				}
				res.Path = res.Tag.Follow(p, res.Src)
			}
			results[i] = res
		}
		epoch := rng.Uint64() >> rng.IntN(64)

		// A single: the Client's request and every answer body.
		if n > 0 {
			route("Client.Route request", AppendRouteJSON(nil, &reqs[0], false))
			if results[0].Err == nil {
				route("/route answer", appendResult(nil, nn[0], &results[0]))
			}
			full := resultJSON(results[0])
			full.Net = nn[0]
			route("AppendRouteJSON", AppendRouteJSON(nil, &full, false))
		}
		route("error body", AppendErrorJSON(nil, "routesvc: overloaded, slow-path request shed", []string{"", "overload", "invalid"}[rng.IntN(3)]))

		// A batch: the Client's request, both answer shapes, and the
		// router's sub-batch and merged answers built from their spans.
		body := appendBatchJSON(nil, &BatchJSON{Requests: reqs})
		batch("Client.RouteBatch request", body)
		items, err := AppendBatchItems(nil, body)
		if err != nil {
			t.Fatal(err)
		}
		spans := make([][]byte, len(items))
		for i := range items {
			spans[i] = items[i].Raw
		}
		batch("router sub-batch", frame(`{"requests":[`, spans, "]}"))
		batch("appendBatchJSON", appendBatchJSON(nil, &BatchJSON{Requests: reqs, Responses: reqs, Epoch: epoch}))
		tags := appendTagResults(nil, results, epoch)
		full := appendBatchResults(nil, nn, results, epoch)
		for _, answer := range [][]byte{tags, full} {
			batch("backend answer", answer)
			split, ep, err := AppendBatchResponses(nil, answer)
			if err != nil || ep != epoch {
				t.Fatalf("split of %q: epoch %d, %v", answer, ep, err)
			}
			batch("router merged answer", frame(`{"responses":[`, split, `],"epoch":`+strconv.FormatUint(epoch, 10)+"}"))
		}
	}
}
