package routesvc

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"iadm/internal/core"
)

// This file is the wire codec of the hot endpoints, /route and
// /route/batch: a hand-written, reflection-free encoder and decoder for
// RouteJSON, BatchJSON, the tag answers of /route/batch?answers=tags and
// the error body, shared by the Handler, the fleet router and Client.
// The cold endpoints (/fault, /repair, /healthz, /metrics) keep
// encoding/json.
//
// Encoder: output is byte-identical to a json.Encoder with
// SetEscapeHTML(false) (json.Marshal's escaping when escapeHTML is set);
// the Encode trailing newline is the caller's to add.
//
// Decoder: a fast path for the bytes the encoders write, and
// encoding/json for every other body. The fast path accepts the
// canonical grammar: no whitespace; object keys spelled exactly as the
// encoders write them, in their order, each at most once; strings of
// printable ASCII with nothing to escape; integers in their type's
// range with no leading zero, fraction or exponent, a minus sign only on
// src and dst; path arrays non-empty, of at most 18-digit elements; null
// only for a batch array; bytes after the top-level object ignored, as Decode ignores
// them. At the first byte outside that grammar the whole body is
// decoded again by json.NewDecoder(body).Decode into the same Go type,
// so every entry point decodes exactly as encoding/json does, refusals
// included; the callers turn a refusal into the ErrInvalid / 400 /
// "invalid" answer.

// maxPooledWire caps the buffers the codec returns to its pool, so one
// huge request cannot pin a huge buffer for the life of the process.
const maxPooledWire = 1 << 20

// WireBuf is a pooled body buffer: the Handler, Client and the fleet
// router read request and response bodies into them and encode answers
// into them, so steady-state traffic allocates no body buffers. Take one
// with GetWireBuf and hand it back with PutWireBuf once nothing refers
// to its bytes (decoded strings are copies; they may outlive it).
// Outgoing request bodies may be pooled too: the Client's transport has
// written a body by the time the call returns.
type WireBuf struct{ B []byte }

var wirePool = sync.Pool{New: func() any { return &WireBuf{B: make([]byte, 0, 4096)} }}

// GetWireBuf takes an empty buffer from the pool.
func GetWireBuf() *WireBuf {
	wb := wirePool.Get().(*WireBuf)
	wb.B = wb.B[:0]
	return wb
}

// PutWireBuf returns wb to the pool (oversized buffers are dropped).
func PutWireBuf(wb *WireBuf) {
	if cap(wb.B) <= maxPooledWire {
		wirePool.Put(wb)
	}
}

// ReadAll replaces the buffer's contents with everything r yields;
// sizeHint (a Content-Length, or -1 when unknown) pre-sizes it.
func (wb *WireBuf) ReadAll(r io.Reader, sizeHint int64) error {
	b := wb.B[:0]
	if sizeHint > 0 && sizeHint < maxPooledWire && int64(cap(b)) <= sizeHint {
		b = make([]byte, 0, sizeHint+1)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			wb.B = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// WriteBody sends a complete encoded body (trailing newline included)
// as a JSON response.
func WriteBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// ---- encoder ----------------------------------------------------------

const hexDigits = "0123456789abcdef"

// appendQuoted appends s as a JSON string, escaping exactly as
// encoding/json does: quote, backslash and control bytes (\b \f \n \r \t
// short forms, \u00XX otherwise), invalid UTF-8 as \ufffd, U+2028 and
// U+2029 always, and <, >, & only when escapeHTML is set.
func appendQuoted(dst []byte, s string, escapeHTML bool) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && (!escapeHTML || (b != '<' && b != '>' && b != '&')) {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendInt is strconv.AppendInt with a table fast path for the small
// non-negative values (switch labels) that fill route bodies.
func appendInt(dst []byte, v int) []byte {
	switch {
	case uint(v) < 10:
		return append(dst, byte('0'+v))
	case uint(v) < 100:
		return append(dst, digitPairs[2*v], digitPairs[2*v+1])
	case uint(v) < 10000:
		hi, lo := v/100, v%100
		if hi < 10 {
			dst = append(dst, byte('0'+hi))
		} else {
			dst = append(dst, digitPairs[2*hi], digitPairs[2*hi+1])
		}
		return append(dst, digitPairs[2*lo], digitPairs[2*lo+1])
	}
	return strconv.AppendInt(dst, int64(v), 10)
}

const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendRouteHead appends the fields every route item carries, from the
// opening brace through "scheme".
func appendRouteHead(dst []byte, net string, src, dst2 int, scheme string, escapeHTML bool) []byte {
	if net != "" {
		dst = append(dst, `{"net":`...)
		dst = appendQuoted(dst, net, escapeHTML)
		dst = append(dst, `,"src":`...)
	} else {
		dst = append(dst, `{"src":`...)
	}
	dst = appendInt(dst, src)
	dst = append(dst, `,"dst":`...)
	dst = appendInt(dst, dst2)
	dst = append(dst, `,"scheme":`...)
	return appendQuoted(dst, scheme, escapeHTML)
}

// appendRouteTail appends the omitempty fields after "path" and the
// closing brace.
func appendRouteTail(dst []byte, epoch uint64, errMsg, code string, escapeHTML bool) []byte {
	if epoch != 0 {
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendUint(dst, epoch, 10)
	}
	if errMsg != "" {
		dst = append(dst, `,"error":`...)
		dst = appendQuoted(dst, errMsg, escapeHTML)
	}
	if code != "" {
		dst = append(dst, `,"code":`...)
		dst = appendQuoted(dst, code, escapeHTML)
	}
	return append(dst, '}')
}

// AppendRouteJSON appends r's wire encoding (no trailing newline).
// escapeHTML selects json.Marshal's escaping of <, > and &; the
// endpoints write with it off, as a json.Encoder with SetEscapeHTML(false).
func AppendRouteJSON(dst []byte, r *RouteJSON, escapeHTML bool) []byte {
	dst = appendRouteHead(dst, r.Net, r.Src, r.Dst, r.Scheme, escapeHTML)
	if r.Tag != "" {
		dst = append(dst, `,"tag":`...)
		dst = appendQuoted(dst, r.Tag, escapeHTML)
	}
	if len(r.Path) > 0 {
		dst = append(dst, `,"path":[`...)
		for i, v := range r.Path {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInt(dst, v)
		}
		dst = append(dst, ']')
	}
	return appendRouteTail(dst, r.Epoch, r.Error, r.Code, escapeHTML)
}

// appendResult appends the wire encoding of one service result, echoing
// net; it is AppendRouteJSON of the RouteJSON the result maps to, written
// straight from the Result: tag bits and path switches are rendered in
// place, with no Tag.String or Path.Switches per item.
func appendResult(dst []byte, net string, res *Result) []byte {
	dst = appendRouteHead(dst, net, res.Src, res.Dst, res.Scheme.String(), false)
	if res.Err != nil {
		return appendRouteTail(dst, res.Epoch, res.Err.Error(), errCode(res.Err), false)
	}
	if res.Tag.Stages() > 0 {
		dst = append(dst, `,"tag":"`...)
		dst = append(appendTagBits(dst, res.Tag), '"')
	}
	// Path.Switches: the source, then where each link arrives (Link.To
	// by mask arithmetic — the network size is a power of two).
	dst = append(dst, `,"path":[`...)
	dst = appendInt(dst, res.Path.Source)
	p := res.Path.Params()
	for _, l := range res.Path.Links {
		dst = append(dst, ',')
		dst = appendInt(dst, core.Step(p, l.Stage, l.From, l.Kind))
	}
	dst = append(dst, ']')
	return appendRouteTail(dst, res.Epoch, "", "", false)
}

// appendTagBits appends t in Tag.String order: the n destination bits,
// then the n state bits, each LSB first.
func appendTagBits(dst []byte, t core.Tag) []byte {
	n := t.Stages()
	for i := 0; i < n; i++ {
		dst = append(dst, byte('0'+t.DestBit(i)))
	}
	for i := 0; i < n; i++ {
		dst = append(dst, byte('0'+t.StateBit(i)))
	}
	return dst
}

// appendTagAnswer appends one item of a tag-shape /route/batch answer:
// {"tag":…,"epoch":…} for a resolved result (which always has a tag;
// epoch omitted when 0), the error body for a failed one.
func appendTagAnswer(dst []byte, res *Result) []byte {
	if res.Err != nil {
		return AppendErrorJSON(dst, res.Err.Error(), errCode(res.Err))
	}
	dst = append(dst, `{"tag":"`...)
	dst = append(appendTagBits(dst, res.Tag), '"')
	if res.Epoch != 0 {
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendUint(dst, res.Epoch, 10)
	}
	return append(dst, '}')
}

// appendTagResults appends the /route/batch?answers=tags response for
// results: {"responses":[…],"epoch":N}, one appendTagAnswer item per
// result in request order, epoch always written. It is the shape the
// fleet router splices its answers into, so a routed body equals a
// direct one.
func appendTagResults(dst []byte, results []Result, epoch uint64) []byte {
	dst = append(dst, `{"responses":[`...)
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendTagAnswer(dst, &results[i])
	}
	dst = append(dst, `],"epoch":`...)
	dst = strconv.AppendUint(dst, epoch, 10)
	return append(dst, '}')
}

// appendBatchHead opens a BatchJSON body: "requests" has no omitempty,
// so a response always leads with it.
func appendBatchHead(dst []byte, reqs []RouteJSON) []byte {
	if reqs == nil {
		return append(dst, `{"requests":null`...)
	}
	dst = append(dst, `{"requests":[`...)
	for i := range reqs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendRouteJSON(dst, &reqs[i], false)
	}
	return append(dst, ']')
}

// appendBatchEpoch closes a BatchJSON body after its responses.
func appendBatchEpoch(dst []byte, epoch uint64) []byte {
	if epoch != 0 {
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendUint(dst, epoch, 10)
	}
	return append(dst, '}')
}

// appendBatchJSON appends b's wire encoding (no trailing newline).
func appendBatchJSON(dst []byte, b *BatchJSON) []byte {
	dst = appendBatchHead(dst, b.Requests)
	if len(b.Responses) > 0 {
		dst = append(dst, `,"responses":[`...)
		for i := range b.Responses {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendRouteJSON(dst, &b.Responses[i], false)
		}
		dst = append(dst, ']')
	}
	return appendBatchEpoch(dst, b.Epoch)
}

// appendBatchResults appends the /route/batch response for results (in
// request order, nets[i] echoed on item i): appendBatchJSON of the
// BatchJSON the results map to, written straight from the Results.
func appendBatchResults(dst []byte, nets []string, results []Result, epoch uint64) []byte {
	dst = appendBatchHead(dst, nil)
	if len(results) > 0 {
		dst = append(dst, `,"responses":[`...)
		for i := range results {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendResult(dst, nets[i], &results[i])
		}
		dst = append(dst, ']')
	}
	return appendBatchEpoch(dst, epoch)
}

// AppendErrorJSON appends the error body {"error":msg,"code":code} (code
// omitted when empty), no trailing newline.
func AppendErrorJSON(dst []byte, msg, code string) []byte {
	dst = append(dst, `{"error":`...)
	dst = appendQuoted(dst, msg, false)
	if code != "" {
		dst = append(dst, `,"code":`...)
		dst = appendQuoted(dst, code, false)
	}
	return append(dst, '}')
}

// ---- decoder ----------------------------------------------------------

// decodeJSON is the decoder's fallback: encoding/json's Decode of body
// into v, as the hot endpoints decoded every body before this codec.
func decodeJSON(body []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// wireDec is the decoder's fast path: one pass over a body in the
// canonical grammar (see the top of this file) that reports false at the
// first byte outside it, leaving what it decoded so far for the caller
// to discard. keep says which values it keeps; the path elements of the
// body land in ints, and names interns the short strings (net, scheme,
// code) a batch repeats on every item.
type wireDec struct {
	b     []byte
	i     int
	keep  keepMode
	ints  []int
	names [8]string
	nn    int
	text  []byte
}

// keepMode is what the fast path keeps of the values it scans.
type keepMode uint8

const (
	// keepAll: every field.
	keepAll keepMode = iota
	// keepTagText: every field, but tags are appended to text rather than
	// becoming a string each (decodeTagAnswers cuts them from one string).
	keepTagText
	// keepNone: nothing; values are only checked (a split at item
	// boundaries needs only the bytes).
	keepNone
)

// open consumes the '{' or '[' at the cursor: more reports a first
// member, and an empty container is consumed whole.
func (d *wireDec) open(open, close byte) (more, ok bool) {
	b, i := d.b, d.i
	if i >= len(b) || b[i] != open {
		return false, false
	}
	if i+1 < len(b) && b[i+1] == close {
		d.i = i + 2
		return false, true
	}
	d.i = i + 1
	return true, true
}

// next consumes the separator after a member: ',' (more follow) or the
// closing byte.
func (d *wireDec) next(close byte) (more, ok bool) {
	if d.i < len(d.b) {
		switch d.b[d.i] {
		case ',':
			d.i++
			return true, true
		case close:
			d.i++
			return false, true
		}
	}
	return false, false
}

// key matches the cursor against keys (quoted, colon included) from
// index from on and consumes the first that matches; -1 if none does.
// Callers pass the index after the last key matched, so keys come in
// encoder order and each at most once.
func (d *wireDec) key(keys []string, from int) int {
	rest := d.b[d.i:]
	for k := from; k < len(keys); k++ {
		// The key's first letter rules out most keys before a compare.
		if q := keys[k]; len(rest) >= len(q) && rest[1] == q[1] && string(rest[:len(q)]) == q {
			d.i += len(q)
			return k
		}
	}
	return -1
}

// str scans a string of plain bytes and returns its contents.
func (d *wireDec) str() ([]byte, bool) {
	b, i := d.b, d.i+1
	if i > len(b) || b[i-1] != '"' {
		return nil, false
	}
	// Eight bytes at a time while the body has them: step over a word of
	// plain bytes, or straight to the first byte that is not.
	for i+8 <= len(b) {
		if m := unplainBytes(binary.LittleEndian.Uint64(b[i:])); m != 0 {
			i += bits.TrailingZeros64(m) >> 3
			break
		}
		i += 8
	}
	for i < len(b) && plainByte[b[i]] {
		i++
	}
	if i == len(b) || b[i] != '"' {
		return nil, false
	}
	raw := b[d.i+1 : i]
	d.i = i + 1
	return raw, true
}

// unplainBytes flags the bytes of the little-endian word w that plainByte
// does not mark (a control byte, the quote, the backslash, a non-ASCII
// byte) by setting their high bits. A flag can be spurious only above a
// true one, so the lowest flag always marks the first such byte.
func unplainBytes(w uint64) uint64 {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	quote, bslash := w^('"'*lo), w^('\\'*lo)
	return ((w-0x20*lo)&^w | (quote-lo)&^quote | (bslash-lo)&^bslash | w) & hi
}

// plainByte marks the string bytes that need no attention: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// intern returns raw as a string, reusing an earlier identical one.
func (d *wireDec) intern(raw []byte) string {
	for _, s := range d.names[:d.nn] {
		if string(raw) == s {
			return s
		}
	}
	s := string(raw)
	if d.nn < len(d.names) {
		d.names[d.nn] = s
		d.nn++
	}
	return s
}

// stringInto decodes a string into *p, interned when intern is set.
func (d *wireDec) stringInto(p *string, intern bool) bool {
	raw, ok := d.str()
	switch {
	case !ok, d.keep == keepNone:
	case intern:
		*p = d.intern(raw)
	default:
		*p = string(raw)
	}
	return ok
}

// num scans an unsigned decimal without a leading zero that fits a
// uint64. A longer number leaves a digit at the cursor, where no caller
// accepts one.
func (d *wireDec) num() (uint64, bool) {
	b, i := d.b, d.i
	var v uint64
	j := i
	for end := min(len(b), i+20); j < end && b[j]-'0' <= 9; j++ {
		c := uint64(b[j] - '0')
		if j-i == 19 && v > (math.MaxUint64-c)/10 {
			return 0, false
		}
		v = v*10 + c
	}
	if j == i || b[i] == '0' && j > i+1 {
		return 0, false
	}
	d.i = j
	return v, true
}

// int scans num's grammar with an optional minus sign, within int's
// range.
func (d *wireDec) int() (int, bool) {
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	v, ok := d.num()
	if neg {
		return -int(v), ok && v <= 1<<63
	}
	return int(v), ok && v <= math.MaxInt64
}

// path scans a non-empty array of path elements, each a switch label:
// num's grammar with at most 18 digits, directly followed by its
// separator. Unless keeping nothing, it appends them to d.ints and
// points *p at them, capped at their length.
func (d *wireDec) path(p *[]int) bool {
	b, i := d.b, d.i
	if i >= len(b) || b[i] != '[' {
		return false
	}
	i++
	keep := d.keep != keepNone
	if keep && d.ints == nil {
		// One allocation sized from what is left of the body (a path
		// element takes at least two bytes, most take four or more).
		d.ints = make([]int, 0, max(16, (len(b)-i)/8))
	}
	out, start := d.ints, len(d.ints)
	for {
		v, j := 0, i
		for end := min(len(b), i+18); j < end && b[j]-'0' <= 9; j++ {
			v = v*10 + int(b[j]-'0')
		}
		if j == i || j == len(b) || b[i] == '0' && j > i+1 {
			return false
		}
		if keep {
			out = append(out, v)
		}
		i = j + 1
		if b[j] == ']' {
			break
		}
		if b[j] != ',' {
			return false
		}
	}
	d.i = i
	if keep {
		d.ints, *p = out, out[start:len(out):len(out)]
	}
	return true
}

// quoted returns names as the encoders write them as keys: quoted, colon
// included.
func quoted(names ...string) []string {
	q := make([]string, len(names))
	for k, name := range names {
		q[k] = `"` + name + `":`
	}
	return q
}

// routeKeys are RouteJSON's keys in the order the encoders write them,
// indexed by the rk constants.
var routeKeys = quoted("net", "src", "dst", "scheme", "tag", "path", "epoch", "error", "code")

const (
	rkNet = iota
	rkSrc
	rkDst
	rkScheme
	rkTag
	rkPath
	rkEpoch
	rkError
	rkCode
)

// route decodes one RouteJSON object. A tag-shape answer item and the
// error body are RouteJSON objects with keys left out, so it decodes
// them too.
func (d *wireDec) route(r *RouteJSON) bool {
	if r == nil {
		r = new(RouteJSON) // keeping nothing: a scratch item on the stack
	}
	more, ok := d.open('{', '}')
	for from := 0; more && ok; {
		k := d.key(routeKeys, from)
		switch k {
		case rkNet:
			ok = d.stringInto(&r.Net, true)
		case rkSrc:
			r.Src, ok = d.int()
		case rkDst:
			r.Dst, ok = d.int()
		case rkScheme:
			ok = d.stringInto(&r.Scheme, true)
		case rkTag:
			if d.keep == keepTagText {
				var raw []byte
				raw, ok = d.str()
				d.text = append(d.text, raw...)
			} else {
				ok = d.stringInto(&r.Tag, false)
			}
		case rkPath:
			ok = d.path(&r.Path)
		case rkEpoch:
			r.Epoch, ok = d.num()
		case rkError:
			ok = d.stringInto(&r.Error, false)
		case rkCode:
			ok = d.stringInto(&r.Code, true)
		default:
			return false
		}
		if ok {
			more, ok = d.next('}')
		}
		from = k + 1
	}
	return ok
}

// decodeRouteFast is DecodeRouteJSON's fast path alone.
func decodeRouteFast(body []byte, r *RouteJSON) bool {
	d := wireDec{b: body}
	return d.route(r)
}

// DecodeRouteJSON decodes a /route body into r.
func DecodeRouteJSON(body []byte, r *RouteJSON) error {
	was := *r
	if decodeRouteFast(body, r) {
		return nil
	}
	v := was // decoded apart, so that r stays off the heap on the fast path
	err := decodeJSON(body, &v)
	*r = v
	return err
}

// batchKeys are BatchJSON's keys in the order the encoders write them.
var batchKeys = quoted("requests", "responses", "epoch")

// batch walks a batch body: {"requests":…,"responses":…,"epoch":N}, each
// member optional, either array null, every element a RouteJSON object.
// It calls item with each element of both arrays (resp false: requests,
// true: responses), its bytes and its decoded value, which is valid
// during the call only, and returns the body's epoch. On false the body
// is not canonical, and the caller discards what item was given.
func (d *wireDec) batch(item func(resp bool, raw []byte, r *RouteJSON)) (epoch uint64, ok bool) {
	// The item handed to item escapes to the heap: one per walk, none
	// when the walk keeps nothing (item then gets nil).
	var r *RouteJSON
	if d.keep != keepNone {
		r = new(RouteJSON)
	}
	more, ok := d.open('{', '}')
	for from := 0; more && ok; {
		k := d.key(batchKeys, from)
		switch k {
		case 0, 1:
			ok = d.items(k == 1, r, item)
		case 2:
			epoch, ok = d.num()
		default:
			return 0, false
		}
		if ok {
			more, ok = d.next('}')
		}
		from = k + 1
	}
	return epoch, ok
}

// items walks one batch array for batch.
func (d *wireDec) items(resp bool, r *RouteJSON, item func(bool, []byte, *RouteJSON)) bool {
	if rest := d.b[d.i:]; len(rest) >= 4 && string(rest[:4]) == "null" {
		d.i += 4
		return true
	}
	more, ok := d.open('[', ']')
	for more && ok {
		start := d.i
		if r != nil {
			*r = RouteJSON{}
		}
		if ok = d.route(r); ok {
			item(resp, d.b[start:d.i], r)
			more, ok = d.next(']')
		}
	}
	return ok
}

// BatchItem is one element of a /route/batch request as the fleet router
// places it: the element's bytes, forwarded verbatim to its backend, and
// the key it is placed by.
type BatchItem struct {
	Raw      []byte
	Net      string
	Src, Dst int
}

// AppendBatchItems scans a /route/batch request body and appends one
// BatchItem per element of its "requests" array, decoded as the backend
// decodes it. On a canonical body each Raw is a sub-slice of body; on
// any other, encoding/json decodes the body and each Raw is the
// element's value re-encoded into a buffer of its own.
func AppendBatchItems(dst []BatchItem, body []byte) ([]BatchItem, error) {
	n := len(dst)
	d := wireDec{b: body}
	if _, ok := d.batch(func(resp bool, raw []byte, r *RouteJSON) {
		if !resp {
			dst = append(dst, BatchItem{Raw: raw, Net: r.Net, Src: r.Src, Dst: r.Dst})
		}
	}); ok {
		return dst, nil
	}
	var in struct {
		Requests []RouteJSON `json:"requests"`
	}
	if err := decodeJSON(body, &in); err != nil {
		return dst[:n], err
	}
	var raw []byte
	ends := make([]int, len(in.Requests))
	for i := range in.Requests {
		r := &in.Requests[i]
		raw = AppendRouteJSON(raw, r, false)
		if r.Path != nil && len(r.Path) == 0 {
			// The encoder omits an empty path, which decodes as none.
			raw = append(raw[:len(raw)-1], `,"path":[]}`...)
		}
		ends[i] = len(raw)
	}
	dst, start := dst[:n], 0
	for i, r := range in.Requests {
		dst = append(dst, BatchItem{Raw: raw[start:ends[i]], Net: r.Net, Src: r.Src, Dst: r.Dst})
		start = ends[i]
	}
	return dst, nil
}

// AppendBatchResponses splits a /route/batch response body at item
// boundaries: it appends the bytes of every element of its "responses"
// array (sub-slices of a canonical body, encoding/json's
// json.RawMessage copies of any other) to dst and returns the body's
// epoch.
func AppendBatchResponses(dst [][]byte, body []byte) ([][]byte, uint64, error) {
	n := len(dst)
	d := wireDec{b: body, keep: keepNone}
	epoch, ok := d.batch(func(resp bool, raw []byte, _ *RouteJSON) {
		if resp {
			dst = append(dst, raw)
		}
	})
	if ok {
		return dst, epoch, nil
	}
	var out struct {
		Responses []json.RawMessage `json:"responses"`
		Epoch     uint64            `json:"epoch"`
	}
	err := decodeJSON(body, &out)
	dst = dst[:n]
	for _, raw := range out.Responses {
		dst = append(dst, raw)
	}
	return dst, out.Epoch, err
}

// decodeErrorJSON decodes an error body into e.
func decodeErrorJSON(body []byte, e *errJSON) error {
	r := RouteJSON{Error: e.Error, Code: e.Code}
	if decodeRouteFast(body, &r) {
		e.Error, e.Code = r.Error, r.Code
		return nil
	}
	return decodeJSON(body, e)
}
