package routesvc

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"iadm/internal/core"
)

// This file is the wire codec of the hot endpoints, /route and
// /route/batch: a hand-written, reflection-free encoder and decoder for
// RouteJSON, BatchJSON and the error body, shared by the Handler, the
// fleet router and Client. The cold endpoints (/fault, /repair,
// /prewarm, /healthz, /metrics) keep encoding/json, which is also the
// codec's test oracle.
//
// Encoder: output is byte-identical to a json.Encoder with
// SetEscapeHTML(false) (json.Marshal's escaping when escapeHTML is set);
// the Encode trailing newline is the caller's to add.
//
// Decoder: one pass over the body bytes. It accepts what
// json.NewDecoder(body).Decode accepts into the same type — any
// whitespace and key order, ASCII case-insensitive key matching, unknown
// keys with any value, null for any field, string escapes, invalid UTF-8
// coerced to U+FFFD, trailing bytes after the first value ignored — with
// two documented exceptions it refuses instead:
//
//   - an object key holding an escape or a non-ASCII byte (encoding/json
//     unescapes and Unicode-case-folds keys, so "\u0073rc" or "ſrc"
//     can name the src field);
//   - a schema key repeated in one object (encoding/json lets the last
//     one win, merging repeated arrays element by element into the first).
//
// Every refusal is an error, which the callers turn into the same
// ErrInvalid / 400 / "invalid" answer a json decode error produced.

// wireMaxDepth is encoding/json's nesting limit, mirrored so a deeply
// nested unknown value is refused exactly when the oracle refuses it.
const wireMaxDepth = 10000

// maxPooledWire caps the buffers the codec returns to its pool, so one
// huge request cannot pin a huge buffer for the life of the process.
const maxPooledWire = 1 << 20

// WireBuf is a pooled body buffer: the Handler, Client and the fleet
// router read request and response bodies into them and encode answers
// into them, so steady-state traffic allocates no body buffers. Take one
// with GetWireBuf and hand it back with PutWireBuf once nothing refers
// to its bytes (decoded strings are copies; they may outlive it).
//
// Outgoing request bodies are not pooled: the HTTP transport may still be
// reading one after the response has arrived (when a server answers
// before reading the whole body), so they are plain allocations the
// garbage collector retires.
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
func appendRouteTail(dst []byte, epoch uint64, cached, coalesced bool, errMsg, code string, escapeHTML bool) []byte {
	if epoch != 0 {
		dst = append(dst, `,"epoch":`...)
		dst = strconv.AppendUint(dst, epoch, 10)
	}
	if cached {
		dst = append(dst, `,"cached":true`...)
	}
	if coalesced {
		dst = append(dst, `,"coalesced":true`...)
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
	return appendRouteTail(dst, r.Epoch, r.Cached, r.Coalesced, r.Error, r.Code, escapeHTML)
}

// appendResult appends the wire encoding of one service result, echoing
// net; it is AppendRouteJSON of the RouteJSON the result maps to, written
// straight from the Result: tag bits and path switches are rendered in
// place, with no Tag.String or Path.Switches per item.
func appendResult(dst []byte, net string, res *Result) []byte {
	dst = appendRouteHead(dst, net, res.Src, res.Dst, res.Scheme.String(), false)
	if res.Err != nil {
		return appendRouteTail(dst, res.Epoch, res.Cached, res.Coalesced, res.Err.Error(), errCode(res.Err), false)
	}
	if n := res.Tag.Stages(); n > 0 {
		// Tag.String order: the n destination bits, then the n state
		// bits, each LSB first.
		dst = append(dst, `,"tag":"`...)
		for i := 0; i < n; i++ {
			dst = append(dst, byte('0'+res.Tag.DestBit(i)))
		}
		for i := 0; i < n; i++ {
			dst = append(dst, byte('0'+res.Tag.StateBit(i)))
		}
		dst = append(dst, '"')
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
	return appendRouteTail(dst, res.Epoch, res.Cached, res.Coalesced, "", "", false)
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

// wireError is a decode refusal: what was wrong and at which byte.
// class is errRefusedKey for the refusals encoding/json would accept.
type wireError struct {
	off   int
	msg   string
	class error
}

func (e *wireError) Error() string { return fmt.Sprintf("%s at offset %d", e.msg, e.off) }

func (e *wireError) Unwrap() error { return e.class }

// errRefusedKey classes the codec's documented refusals (see the top of
// this file): an escaped or non-ASCII key, a repeated schema key.
var errRefusedKey = errors.New("object key outside the wire codec's grammar")

// wireDec scans one body. ints collects the path elements of the whole
// body in parse order; names interns the short strings (net, scheme,
// code) a batch repeats on every item.
type wireDec struct {
	b     []byte
	i     int
	depth int
	ints  []int
	names [8]string
	nn    int
}

func (d *wireDec) fail(msg string) error { return &wireError{off: d.i, msg: msg} }

func (d *wireDec) unexpected() error {
	if d.i >= len(d.b) {
		return d.fail("unexpected end of JSON input")
	}
	return d.fail(fmt.Sprintf("invalid character %q", d.b[d.i]))
}

// ws skips whitespace and reports the next byte (0 at end of input).
// The common case, no whitespace at all, stays inlined.
func (d *wireDec) ws() byte {
	if d.i < len(d.b) && d.b[d.i] > ' ' {
		return d.b[d.i]
	}
	return d.skipWS()
}

func (d *wireDec) skipWS() byte {
	for d.i < len(d.b) {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return c
		}
	}
	return 0
}

func (d *wireDec) literal(lit string) error {
	if len(d.b)-d.i < len(lit) || string(d.b[d.i:d.i+len(lit)]) != lit {
		return d.fail("invalid literal, want " + lit)
	}
	d.i += len(lit)
	return nil
}

// open consumes the '{' or '[' at d.i and reports whether the container
// has a first member (false: it was empty and is already closed).
func (d *wireDec) open(close byte) (bool, error) {
	d.i++
	if d.depth++; d.depth > wireMaxDepth {
		return false, d.fail("exceeded max nesting depth")
	}
	if d.ws() == close {
		d.i++
		d.depth--
		return false, nil
	}
	return true, nil
}

// next consumes the separator after a member: true for ',' (another
// member follows), false for the closing byte.
func (d *wireDec) next(close byte) (bool, error) {
	switch d.ws() {
	case ',':
		d.i++
		return true, nil
	case close:
		d.i++
		d.depth--
		return false, nil
	}
	return false, d.unexpected()
}

// str scans the string literal at d.i and returns its raw contents;
// slow reports an escape or a non-ASCII byte, which unquote must
// resolve.
func (d *wireDec) str() (raw []byte, slow bool, err error) {
	i := d.i + 1
	for i < len(d.b) {
		c := d.b[i]
		if plainByte[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			raw = d.b[d.i+1 : i]
			d.i = i + 1
			return raw, slow, nil
		case c == '\\':
			slow = true
			if i+1 >= len(d.b) {
				d.i = len(d.b)
				return nil, false, d.unexpected()
			}
			switch d.b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(d.b) || !isHex(d.b[k]) {
						d.i = min(k, len(d.b))
						return nil, false, d.unexpected()
					}
				}
				i += 6
			default:
				d.i = i + 1
				return nil, false, d.fail("invalid escape in string literal")
			}
		case c < 0x20:
			d.i = i
			return nil, false, d.fail("invalid control character in string literal")
		default:
			if c >= utf8.RuneSelf {
				slow = true
			}
			i++
		}
	}
	d.i = i
	return nil, false, d.unexpected()
}

// plainByte marks the string bytes that need no attention: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote resolves the escapes of a scanned string as encoding/json
// does: surrogate pairs combine, a lone surrogate and every invalid
// UTF-8 byte become U+FFFD.
func unquote(raw []byte) string {
	b := make([]byte, 0, len(raw)+2*utf8.UTFMax)
	for r := 0; r < len(raw); {
		c := raw[r]
		switch {
		case c == '\\':
			switch e := raw[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(raw[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(raw[r:])); dec != unicode.ReplacementChar {
						r += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			r += size
			b = utf8.AppendRune(b, rr)
		}
	}
	return string(b)
}

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

// stringInto decodes a string (or null, a no-op) into *p.
func (d *wireDec) stringInto(p *string, intern bool) error {
	switch d.ws() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.mismatch("string")
	}
	raw, slow, err := d.str()
	switch {
	case err != nil:
		return err
	case slow:
		*p = unquote(raw)
	case intern:
		*p = d.intern(raw)
	default:
		*p = string(raw)
	}
	return nil
}

// mismatch refuses a value of the wrong JSON type for its field (after
// checking it is valid JSON at all, so syntax errors win as they do in
// encoding/json).
func (d *wireDec) mismatch(want string) error {
	at := d.i
	if err := d.skip(); err != nil {
		return err
	}
	d.i = at
	return d.fail("cannot unmarshal into a field of type " + want)
}

// number scans a JSON number literal and returns it.
func (d *wireDec) number() ([]byte, error) {
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(d.b) && d.b[d.i] == '0':
		d.i++
	case !d.digits():
		return nil, d.unexpected()
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if !d.digits() {
			return nil, d.unexpected()
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if !d.digits() {
			return nil, d.unexpected()
		}
	}
	return d.b[start:d.i], nil
}

// digits consumes a run of decimal digits and reports whether there was
// at least one.
func (d *wireDec) digits() bool {
	at := d.i
	for d.i < len(d.b) && isDigit(d.b[d.i]) {
		d.i++
	}
	return d.i > at
}

// parseDigits parses an unsigned decimal (only digits), false on any
// other byte or on uint64 overflow.
func parseDigits(s []byte) (uint64, bool) {
	var u uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		v := uint64(c - '0')
		if u > (math.MaxUint64-v)/10 {
			return 0, false
		}
		u = u*10 + v
	}
	return u, len(s) > 0
}

// intInto decodes an integer (or null, a no-op) into *p, refusing what
// strconv.ParseInt(lit, 10, 64) refuses: fractions, exponents, overflow.
func (d *wireDec) intInto(p *int) error {
	c := d.ws()
	if c == 'n' {
		return d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return d.mismatch("int")
	}
	// Fast path: a short unsigned integer ending at a delimiter.
	if i, v := d.i, 0; c != '0' || d.i+1 < len(d.b) && !isDigit(d.b[d.i+1]) {
		for ; i < len(d.b) && i-d.i < 18 && isDigit(d.b[i]); i++ {
			v = v*10 + int(d.b[i]-'0')
		}
		if i > d.i && i < len(d.b) && !isDigit(d.b[i]) && d.b[i] != '.' && d.b[i] != 'e' && d.b[i] != 'E' {
			d.i, *p = i, v
			return nil
		}
	}
	at := d.i
	lit, err := d.number()
	if err != nil {
		return err
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	u, ok := parseDigits(lit)
	switch {
	case !ok, !neg && u > math.MaxInt64, neg && u > 1<<63:
		d.i = at
		return d.fail("number is not an int")
	case neg:
		*p = int(-int64(u))
	default:
		*p = int(u)
	}
	return nil
}

// uintInto decodes an unsigned integer (or null) into *p, refusing what
// strconv.ParseUint(lit, 10, 64) refuses (a sign included).
func (d *wireDec) uintInto(p *uint64) error {
	c := d.ws()
	if c == 'n' {
		return d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return d.mismatch("uint64")
	}
	at := d.i
	lit, err := d.number()
	if err != nil {
		return err
	}
	u, ok := parseDigits(lit)
	if !ok {
		d.i = at
		return d.fail("number is not a uint64")
	}
	*p = u
	return nil
}

// boolInto decodes true, false or null (a no-op) into *p.
func (d *wireDec) boolInto(p *bool) error {
	switch d.ws() {
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("bool")
}

// emptyInts is the decoded value of "path":[] — empty but not nil, as
// encoding/json decodes it.
var emptyInts = []int{}

// pathInto decodes an int array (null sets nil; a null element is 0)
// into *p, appending the elements to d.ints.
func (d *wireDec) pathInto(p *[]int) error {
	switch d.ws() {
	case 'n':
		*p = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("[]int")
	}
	if d.ints == nil {
		// One allocation sized from what is left of the body (a path
		// element takes at least two bytes, most take four or more).
		d.ints = make([]int, 0, max(16, (len(d.b)-d.i)/8))
	}
	start := len(d.ints)
	more, err := d.open(']')
	for more && err == nil {
		v := 0
		if err = d.intInto(&v); err == nil {
			d.ints = append(d.ints, v)
			more, err = d.next(']')
		}
	}
	if err != nil {
		return err
	}
	if len(d.ints) == start {
		*p = emptyInts
	} else {
		*p = d.ints[start:len(d.ints):len(d.ints)]
	}
	return nil
}

// skip scans past one JSON value of any type.
func (d *wireDec) skip() error {
	switch c := d.ws(); {
	case c == '{':
		more, err := d.open('}')
		for more && err == nil {
			if _, _, err = d.key(); err == nil {
				if err = d.skip(); err == nil {
					more, err = d.next('}')
				}
			}
		}
		return err
	case c == '[':
		more, err := d.open(']')
		for more && err == nil {
			if err = d.skip(); err == nil {
				more, err = d.next(']')
			}
		}
		return err
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.unexpected()
}

// key scans an object key and its colon.
func (d *wireDec) key() (raw []byte, slow bool, err error) {
	if d.ws() != '"' {
		return nil, false, d.unexpected()
	}
	if raw, slow, err = d.str(); err != nil {
		return nil, false, err
	}
	if d.ws() != ':' {
		return nil, false, d.unexpected()
	}
	d.i++
	return raw, slow, nil
}

// field matches a key against a schema's (lowercase ASCII) field names,
// ASCII case-insensitively as encoding/json does, and refuses keys it
// cannot match that way and repeated schema keys; it returns -1 for an
// unknown key.
func (d *wireDec) field(raw []byte, slow bool, names []string, seen *uint16) (int, error) {
	if slow {
		return -1, &wireError{off: d.i, msg: "escaped or non-ASCII object key", class: errRefusedKey}
	}
	k := -1
	for i, name := range names {
		if string(raw) == name {
			k = i
			break
		}
	}
	for i := 0; k < 0 && i < len(names); i++ {
		if foldEqual(raw, names[i]) {
			k = i
		}
	}
	if k >= 0 {
		if *seen&(1<<k) != 0 {
			return -1, &wireError{off: d.i, msg: "repeated key " + strconv.Quote(names[k]), class: errRefusedKey}
		}
		*seen |= 1 << k
	}
	return k, nil
}

// foldEqual reports whether raw equals the lowercase ASCII name with
// ASCII letters compared case-insensitively.
func foldEqual(raw []byte, name string) bool {
	if len(raw) != len(name) {
		return false
	}
	for j := 0; j < len(raw); j++ {
		c := raw[j]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[j] {
			return false
		}
	}
	return true
}

// routeKeys are RouteJSON's field names, indexed by the rk constants.
var routeKeys = []string{"net", "src", "dst", "scheme", "tag", "path", "epoch", "cached", "coalesced", "error", "code"}

const (
	rkNet = iota
	rkSrc
	rkDst
	rkScheme
	rkTag
	rkPath
	rkEpoch
	rkCached
	rkCoalesced
	rkError
	rkCode
)

// route decodes one RouteJSON object (null leaves r untouched).
func (d *wireDec) route(r *RouteJSON) error {
	switch d.ws() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("RouteJSON")
	}
	var seen uint16
	more, err := d.open('}')
	for more && err == nil {
		var raw []byte
		var slow bool
		if raw, slow, err = d.key(); err != nil {
			break
		}
		var k int
		if k, err = d.field(raw, slow, routeKeys, &seen); err != nil {
			break
		}
		switch k {
		case rkNet:
			err = d.stringInto(&r.Net, true)
		case rkSrc:
			err = d.intInto(&r.Src)
		case rkDst:
			err = d.intInto(&r.Dst)
		case rkScheme:
			err = d.stringInto(&r.Scheme, true)
		case rkTag:
			err = d.stringInto(&r.Tag, false)
		case rkPath:
			err = d.pathInto(&r.Path)
		case rkEpoch:
			err = d.uintInto(&r.Epoch)
		case rkCached:
			err = d.boolInto(&r.Cached)
		case rkCoalesced:
			err = d.boolInto(&r.Coalesced)
		case rkError:
			err = d.stringInto(&r.Error, false)
		case rkCode:
			err = d.stringInto(&r.Code, true)
		default:
			err = d.skip()
		}
		if err == nil {
			more, err = d.next('}')
		}
	}
	return err
}

// top scans the start of a body: true for an object (its '{' is next),
// false for a top-level null, which decodes to the zero value and ends
// the body (encoding/json's Decode ignores what follows a first value).
func (d *wireDec) top() (bool, error) {
	c := d.ws()
	switch {
	case d.i >= len(d.b):
		return false, d.unexpected()
	case c == '{':
		return true, nil
	case c == 'n':
		return false, d.literal("null")
	}
	return false, d.mismatch("object")
}

// DecodeRouteJSON decodes a /route body into r.
func DecodeRouteJSON(body []byte, r *RouteJSON) error {
	d := wireDec{b: body}
	if obj, err := d.top(); !obj {
		return err
	}
	return d.route(r)
}

// itemMode is how a batch walk treats one of the batch arrays.
type itemMode uint8

const (
	// skipItems: the key is not part of the schema being decoded; its
	// value is skipped like any unknown key's.
	skipItems itemMode = iota
	// routeItems: elements are RouteJSON objects (or null).
	routeItems
	// rawItems: elements are any JSON value, kept as byte spans (the
	// json.RawMessage view).
	rawItems
)

// batchSpec names what one batch walk decodes.
type batchSpec struct {
	requests, responses itemMode
	epoch               bool
}

// batchHead is what a batch walk found besides its items: the epoch and
// whether each array was present and not null (an empty array decodes to
// an empty, non-nil slice).
type batchHead struct {
	epoch               uint64
	requests, responses bool
}

var batchKeys = []string{"requests", "responses", "epoch"}

// batch walks one batch body. For every element of an array the spec
// decodes it calls item with the array (false: requests, true:
// responses), the element's raw bytes and, for routeItems, the element
// decoded as a RouteJSON (zero for rawItems).
// Path elements of every item accumulate in d.ints.
func (d *wireDec) batch(spec batchSpec, item func(resp bool, raw []byte, r RouteJSON) error) (batchHead, error) {
	var h batchHead
	if obj, err := d.top(); !obj {
		return h, err
	}
	var seen uint16
	more, err := d.open('}')
	for more && err == nil {
		var raw []byte
		var slow bool
		if raw, slow, err = d.key(); err != nil {
			break
		}
		var k int
		if k, err = d.field(raw, slow, batchKeys, &seen); err != nil {
			break
		}
		switch {
		case k == 0 && spec.requests != skipItems:
			h.requests, err = d.items(spec.requests, false, item)
		case k == 1 && spec.responses != skipItems:
			h.responses, err = d.items(spec.responses, true, item)
		case k == 2 && spec.epoch:
			err = d.uintInto(&h.epoch)
		default:
			if k >= 0 {
				seen &^= 1 << k // outside the spec the key is unknown: repeats are fine
			}
			err = d.skip()
		}
		if err == nil {
			more, err = d.next('}')
		}
	}
	return h, err
}

// items walks one batch array; it reports whether the array was present
// (false for null).
func (d *wireDec) items(mode itemMode, resp bool, item func(resp bool, raw []byte, r RouteJSON) error) (bool, error) {
	switch d.ws() {
	case 'n':
		return false, d.literal("null")
	case '[':
	default:
		return false, d.mismatch("array")
	}
	more, err := d.open(']')
	for more && err == nil {
		d.ws()
		start := d.i
		var r RouteJSON
		if mode == rawItems {
			err = d.skip()
		} else {
			err = d.route(&r)
		}
		if err == nil {
			err = item(resp, d.b[start:d.i], r)
		}
		if err == nil {
			more, err = d.next(']')
		}
	}
	return true, err
}

// decodeBatchJSON decodes a /route/batch body into b. The paths of all
// its items share one backing array.
func decodeBatchJSON(body []byte, b *BatchJSON) error {
	d := wireDec{b: body}
	// The arrays are parsed one after the other (a repeated key is
	// refused), so path elements land in d.ints array by array.
	respFirst, seenPath := false, false
	h, err := d.batch(batchSpec{requests: routeItems, responses: routeItems, epoch: true},
		func(resp bool, _ []byte, r RouteJSON) error {
			if len(r.Path) > 0 && !seenPath {
				respFirst, seenPath = resp, true
			}
			if resp {
				b.Responses = append(b.Responses, r)
			} else {
				b.Requests = append(b.Requests, r)
			}
			return nil
		})
	if err != nil {
		return err
	}
	if h.requests && b.Requests == nil {
		b.Requests = []RouteJSON{}
	}
	if h.responses && b.Responses == nil {
		b.Responses = []RouteJSON{}
	}
	b.Epoch = h.epoch
	// d.ints was reallocated as it grew; re-point every path at its
	// elements in the final array, in the order they were appended.
	first, second := b.Requests, b.Responses
	if respFirst {
		first, second = second, first
	}
	off := repointPaths(first, d.ints, 0)
	repointPaths(second, d.ints, off)
	return nil
}

// repointPaths re-slices the non-empty paths of items, in order, from
// ints starting at off, and returns the offset after them.
func repointPaths(items []RouteJSON, ints []int, off int) int {
	for i := range items {
		if n := len(items[i].Path); n > 0 {
			items[i].Path = ints[off : off+n : off+n]
			off += n
		}
	}
	return off
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
// BatchItem per element of its "requests" array, each Raw a sub-slice of
// body. Every element is decoded as a RouteJSON, so the body is refused
// exactly when decodeBatchJSON into a request-only type would refuse it.
func AppendBatchItems(dst []BatchItem, body []byte) ([]BatchItem, error) {
	d := wireDec{b: body}
	_, err := d.batch(batchSpec{requests: routeItems}, func(_ bool, raw []byte, r RouteJSON) error {
		dst = append(dst, BatchItem{Raw: raw, Net: r.Net, Src: r.Src, Dst: r.Dst})
		d.ints = d.ints[:0]
		return nil
	})
	return dst, err
}

// AppendBatchResponses splits a /route/batch response body at item
// boundaries: it appends the bytes of every element of its "responses"
// array (sub-slices of body, any JSON value) to dst and returns the
// body's epoch.
func AppendBatchResponses(dst [][]byte, body []byte) ([][]byte, uint64, error) {
	d := wireDec{b: body}
	h, err := d.batch(batchSpec{responses: rawItems, epoch: true}, func(_ bool, raw []byte, _ RouteJSON) error {
		dst = append(dst, raw)
		return nil
	})
	return dst, h.epoch, err
}

var errKeys = []string{"error", "code"}

// decodeErrorJSON decodes an error body into e.
func decodeErrorJSON(body []byte, e *errJSON) error {
	d := wireDec{b: body}
	if obj, err := d.top(); !obj {
		return err
	}
	var seen uint16
	more, err := d.open('}')
	for more && err == nil {
		var raw []byte
		var slow bool
		if raw, slow, err = d.key(); err != nil {
			break
		}
		var k int
		if k, err = d.field(raw, slow, errKeys, &seen); err != nil {
			break
		}
		switch k {
		case 0:
			err = d.stringInto(&e.Error, false)
		case 1:
			err = d.stringInto(&e.Code, true)
		default:
			err = d.skip()
		}
		if err == nil {
			more, err = d.next('}')
		}
	}
	return err
}
