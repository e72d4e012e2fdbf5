package routesvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
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
// RouteJSON, BatchJSON, the tag answers of /route/batch?answers=tags and
// the error body, shared by the Handler, the fleet router and Client. The cold endpoints (/fault, /repair, /healthz,
// /metrics) keep encoding/json, which is also the codec's test oracle.
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
	return appendRouteTail(dst, res.Epoch, res.Cached, res.Coalesced, "", "", false)
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
// code) a batch repeats on every item. tagMode is how tags are decoded:
// strText appends the bytes of every tag without escapes to text
// instead of making each a string of its own (decodeTagAnswers cuts them
// from one string).
type wireDec struct {
	b       []byte
	i       int
	depth   int
	ints    []int
	names   [8]string
	nn      int
	tagMode strMode
	text    []byte
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
	b, i := d.b, d.i
	for ; i < len(b); i++ {
		switch c := b[i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			d.i = i
			return c
		}
	}
	d.i = i
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
	b, i := d.b, d.i
	if i < len(b) && b[i] <= ' ' {
		d.skipWS()
		i = d.i
	}
	if i < len(b) {
		switch b[i] {
		case ',':
			d.i = i + 1
			return true, nil
		case close:
			d.i = i + 1
			d.depth--
			return false, nil
		}
	}
	return false, d.unexpected()
}

// str scans the string literal at d.i and returns its raw contents;
// slow reports an escape or a non-ASCII byte, which unquote must
// resolve.
func (d *wireDec) str() (raw []byte, slow bool, err error) {
	b, i := d.b, d.i+1
	for i < len(b) {
		// Eight bytes at a time while the body has them: step over a
		// word of plain bytes, or straight to the first byte that is not.
		if i+8 <= len(b) {
			m := unplainBytes(binary.LittleEndian.Uint64(b[i:]))
			if m == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(m) >> 3
		}
		c := b[i]
		if plainByte[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			raw = b[d.i+1 : i]
			d.i = i + 1
			return raw, slow, nil
		case c == '\\':
			slow = true
			if i+1 >= len(b) {
				d.i = len(b)
				return nil, false, d.unexpected()
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(b) || !isHex(b[k]) {
						d.i = min(k, len(b))
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

// strMode is where stringInto puts a decoded string.
type strMode uint8

const (
	strCopy   strMode = iota // a string of its own
	strIntern                // interned: reused when a body repeats it
	strText                  // without escapes, appended to d.text, *p untouched
)

// stringInto decodes a string (or null, a no-op) into *p.
func (d *wireDec) stringInto(p *string, mode strMode) error {
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
	case mode == strIntern:
		*p = d.intern(raw)
	case mode == strText:
		d.text = append(d.text, raw...)
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
	b, start := d.b, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	var ok bool
	if i < len(b) && b[i] == '0' {
		i++
	} else if i, ok = digits(b, i); !ok {
		d.i = i
		return nil, d.unexpected()
	}
	if i < len(b) && b[i] == '.' {
		if i, ok = digits(b, i+1); !ok {
			d.i = i
			return nil, d.unexpected()
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i, ok = digits(b, i); !ok {
			d.i = i
			return nil, d.unexpected()
		}
	}
	d.i = i
	return b[start:i], nil
}

// digits returns the end of the run of decimal digits at b[i:] and
// whether there was at least one.
func digits(b []byte, i int) (int, bool) {
	at := i
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i, i > at
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
	// Fast path: an unsigned integer of at most 18 digits (so it cannot
	// overflow) without a leading zero, ending at a byte that cannot
	// continue a number.
	b, i, v := d.b, d.i, 0
	for end := min(len(b), i+18); i < end && isDigit(b[i]); i++ {
		v = v*10 + int(b[i]-'0')
	}
	if i > d.i && i < len(b) && !isDigit(b[i]) && b[i] != '.' && b[i] != 'e' && b[i] != 'E' && (c != '0' || i == d.i+1) {
		d.i, *p = i, v
		return nil
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
		if more = d.uintRun(&d.ints); more {
			v := 0
			if err = d.intInto(&v); err == nil {
				d.ints = append(d.ints, v)
				more, err = d.next(']')
			}
		}
	}
	ints := d.ints
	if err != nil {
		return err
	}
	if len(ints) == start {
		*p = emptyInts
	} else {
		*p = ints[start:len(ints):len(ints)]
	}
	return nil
}

// uintRun consumes array elements from the cursor for as long as each is
// an unsigned integer of at most 18 digits without a leading zero,
// directly followed by its separator — the whole of a path as the
// encoders write it — and appends their values to *ints (ints nil: it
// only scans). It returns false once it has consumed the array's closing
// ']', and true at an element it cannot take that way (whitespace, a
// sign, a fraction, a long number, another type), which the caller
// scans in full.
func (d *wireDec) uintRun(ints *[]int) bool {
	b, i := d.b, d.i
	var out []int
	if ints != nil {
		out = *ints
	}
	more := true
	for {
		v, j := 0, i
		for end := min(len(b), i+18); j < end; j++ {
			c := b[j] - '0'
			if c > 9 {
				break
			}
			v = v*10 + int(c)
		}
		if j == i || j == len(b) || b[i] == '0' && j > i+1 || b[j] != ',' && b[j] != ']' {
			break
		}
		if ints != nil {
			out = append(out, v)
		}
		i = j + 1
		if b[j] == ']' {
			d.depth--
			more = false
			break
		}
	}
	d.i = i
	if ints != nil {
		*ints = out
	}
	return more
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
			if more = d.uintRun(nil); more {
				if err = d.skip(); err == nil {
					more, err = d.next(']')
				}
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

// schema is one object type's key set: its field names (lowercase ASCII
// letters and at most 16 of them) and an index of the names by length
// and first letter. at[n][c&31] has bit k set when names[k] is n bytes
// long and starts with the letter whose low five bits are c's, so the
// bit set holds every name an n-byte key starting with c can match,
// exactly or folded.
type schema struct {
	names []string
	at    [16][32]uint16
}

// newSchema builds a schema by value, so the package-level schemas live
// in static data rather than on the heap.
func newSchema(names ...string) (sc schema) {
	sc.names = names
	for k, name := range names {
		sc.at[len(name)][name[0]&31] |= 1 << k
	}
	return sc
}

// field matches a key against a schema's field names, ASCII
// case-insensitively as encoding/json does, and refuses keys it cannot
// match that way and repeated schema keys; it returns -1 for an unknown
// key. The index narrows the candidates to the names sharing the key's
// length and first letter: an exact compare finds the key as the
// encoders write it, the case-fold loop any other spelling.
func (d *wireDec) field(raw []byte, slow bool, sc *schema, seen *uint16) (int, error) {
	if slow {
		return -1, &wireError{off: d.i, msg: "escaped or non-ASCII object key", class: errRefusedKey}
	}
	k := -1
	if len(raw) > 0 && len(raw) < len(sc.at) {
		cand := sc.at[len(raw)][raw[0]&31]
		for m := cand; m != 0; m &= m - 1 {
			if i := bits.TrailingZeros16(m); string(raw) == sc.names[i] {
				k = i
				break
			}
		}
		for m := cand; k < 0 && m != 0; m &= m - 1 {
			if i := bits.TrailingZeros16(m); foldEqual(raw, sc.names[i]) {
				k = i
			}
		}
	}
	if k >= 0 {
		if *seen&(1<<k) != 0 {
			return -1, &wireError{off: d.i, msg: "repeated key " + strconv.Quote(sc.names[k]), class: errRefusedKey}
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

// rkNames are RouteJSON's field names in the order the encoders write
// them, indexed by the rk constants; routeKeys is their schema and
// quotedRouteKeys the keys as written: quoted, colon included.
var rkNames = [...]string{"net", "src", "dst", "scheme", "tag", "path", "epoch", "cached", "coalesced", "error", "code"}

var routeKeys = newSchema(rkNames[:]...)

var quotedRouteKeys = func() (q [len(rkNames)]string) {
	for k, name := range rkNames {
		q[k] = `"` + name + `":`
	}
	return q
}()

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

// encodedKey matches the cursor against the keys the encoders write
// after field `from`, in their order, and consumes the one it finds
// (quotes and colon included) unless seen already holds it. It returns
// -1, consuming nothing, for any other key or spelling, which the
// general key scan then takes, repeat refusals included.
func (d *wireDec) encodedKey(from int, seen *uint16) int {
	rest := d.b[d.i:]
	for k := from; k < len(quotedRouteKeys); k++ {
		q := quotedRouteKeys[k]
		if len(rest) >= len(q) && string(rest[:len(q)]) == q {
			if *seen&(1<<k) != 0 {
				return -1
			}
			*seen |= 1 << k
			d.i += len(q)
			return k
		}
	}
	return -1
}

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
	from := 0
	more, err := d.open('}')
	for more && err == nil {
		k := -1
		if d.ws() == '"' {
			k = d.encodedKey(from, &seen)
		}
		if k < 0 {
			var raw []byte
			var slow bool
			if raw, slow, err = d.key(); err != nil {
				break
			}
			if k, err = d.field(raw, slow, &routeKeys, &seen); err != nil {
				break
			}
		}
		if k >= 0 {
			from = k + 1
		}
		switch k {
		case rkNet:
			err = d.stringInto(&r.Net, strIntern)
		case rkSrc:
			err = d.intInto(&r.Src)
		case rkDst:
			err = d.intInto(&r.Dst)
		case rkScheme:
			err = d.stringInto(&r.Scheme, strIntern)
		case rkTag:
			err = d.stringInto(&r.Tag, d.tagMode)
		case rkPath:
			err = d.pathInto(&r.Path)
		case rkEpoch:
			err = d.uintInto(&r.Epoch)
		case rkCached:
			err = d.boolInto(&r.Cached)
		case rkCoalesced:
			err = d.boolInto(&r.Coalesced)
		case rkError:
			err = d.stringInto(&r.Error, strCopy)
		case rkCode:
			err = d.stringInto(&r.Code, strIntern)
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
	// answerItems: elements are tag-shape answer items (or null), decoded
	// into a RouteJSON's Tag, Epoch, Error and Code.
	answerItems
)

// batchSpec names what one batch walk decodes.
type batchSpec struct {
	requests, responses itemMode
	epoch               bool
}

var batchKeys = newSchema("requests", "responses", "epoch")

// batch walks one batch body. For every element of an array the spec
// decodes it calls item with the array (false: requests, true:
// responses), the element's raw bytes and, for routeItems and
// answerItems, the element decoded into a RouteJSON (nil for rawItems);
// r is only valid during the call. Path elements of every item
// accumulate in d.ints. It returns the body's epoch (0 unless the spec
// decodes it).
func (d *wireDec) batch(spec batchSpec, item func(resp bool, raw []byte, r *RouteJSON) error) (uint64, error) {
	var epoch uint64
	if obj, err := d.top(); !obj {
		return 0, err
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
		if k, err = d.field(raw, slow, &batchKeys, &seen); err != nil {
			break
		}
		switch {
		case k == 0 && spec.requests != skipItems:
			err = d.items(spec.requests, false, item)
		case k == 1 && spec.responses != skipItems:
			err = d.items(spec.responses, true, item)
		case k == 2 && spec.epoch:
			err = d.uintInto(&epoch)
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
	return epoch, err
}

// items walks one batch array (null is an empty one).
func (d *wireDec) items(mode itemMode, resp bool, item func(resp bool, raw []byte, r *RouteJSON) error) error {
	switch d.ws() {
	case 'n':
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("array")
	}
	// The item a callback sees outlives no call, so one per array will
	// do; a raw walk needs none.
	var r *RouteJSON
	if mode != rawItems {
		r = new(RouteJSON)
	}
	more, err := d.open(']')
	for more && err == nil {
		d.ws()
		start := d.i
		switch mode {
		case rawItems:
			err = d.skip()
		case answerItems:
			*r = RouteJSON{}
			err = d.answer(r)
		default:
			*r = RouteJSON{}
			err = d.route(r)
		}
		if err == nil {
			err = item(resp, d.b[start:d.i], r)
		}
		if err == nil {
			more, err = d.next(']')
		}
	}
	return err
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
// exactly when the backend's request decode would refuse it.
func AppendBatchItems(dst []BatchItem, body []byte) ([]BatchItem, error) {
	d := wireDec{b: body}
	_, err := d.batch(batchSpec{requests: routeItems}, func(_ bool, raw []byte, r *RouteJSON) error {
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
	epoch, err := d.batch(batchSpec{responses: rawItems, epoch: true}, func(_ bool, raw []byte, _ *RouteJSON) error {
		dst = append(dst, raw)
		return nil
	})
	return dst, epoch, err
}

// answerKeys are a tag-shape answer item's keys and errorKeys the error
// body's, answerKeys' first two; object decodes either by index.
var answerKeys = newSchema("error", "code", "tag", "epoch")

var errorKeys = newSchema("error", "code")

// answer decodes one tag-shape answer item (null leaves r untouched)
// into r's Error, Code, Tag and Epoch; it is object() over answerKeys.
func (d *wireDec) answer(r *RouteJSON) error {
	switch d.ws() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("object")
	}
	return d.object(&answerKeys, r)
}

// object decodes the members of the object whose '{' is at the cursor
// into r, against sc: the answer keys or their error-body prefix.
func (d *wireDec) object(sc *schema, r *RouteJSON) error {
	var seen uint16
	more, err := d.open('}')
	for more && err == nil {
		var raw []byte
		var slow bool
		if raw, slow, err = d.key(); err != nil {
			break
		}
		var k int
		if k, err = d.field(raw, slow, sc, &seen); err != nil {
			break
		}
		switch k {
		case 0:
			err = d.stringInto(&r.Error, strCopy)
		case 1:
			err = d.stringInto(&r.Code, strIntern)
		case 2:
			err = d.stringInto(&r.Tag, d.tagMode)
		case 3:
			err = d.uintInto(&r.Epoch)
		default:
			err = d.skip()
		}
		if err == nil {
			more, err = d.next('}')
		}
	}
	return err
}

// decodeErrorJSON decodes an error body into e.
func decodeErrorJSON(body []byte, e *errJSON) error {
	d := wireDec{b: body}
	if obj, err := d.top(); !obj {
		return err
	}
	r := RouteJSON{Error: e.Error, Code: e.Code}
	err := d.object(&errorKeys, &r)
	e.Error, e.Code = r.Error, r.Code
	return err
}
