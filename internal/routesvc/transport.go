package routesvc

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// maxIdlePerHost caps the keep-alive connections the transport keeps idle
// per host (http.Transport's MaxIdleConnsPerHost as the Client used to
// set it); a connection released beyond the cap is closed.
const maxIdlePerHost = 256

// transport is the Client's HTTP/1.1 transport. Every exchange runs on
// the caller's goroutine: take the most recently idled connection to the
// host or dial one, write head and body in one writev, and parse the
// answer with http.ReadResponse, all under one deadline that covers the
// dial, the write, the response head, the body and the retry below. A
// connection goes back to the pool only once its body has reached EOF on
// a response that did not say "Connection: close"; any error closes it.
// There is no background goroutine per connection, so a pooled
// connection the server has since closed is only noticed when it is
// used: a request whose reused connection fails before any response byte
// arrives, other than by timing out, is sent once more on a freshly
// dialed one. That is safe for every routesvc endpoint — routes are
// reads and fault/repair reports are idempotent set operations.
//
// Only plain http:// is spoken: no TLS, proxies or transparent gzip.
type transport struct {
	timeout time.Duration
	dialer  net.Dialer // copied per dial with the exchange's deadline set

	mu   sync.Mutex
	idle map[string][]*wireConn // by "host:port", most recently idled last
}

func newTransport(timeout time.Duration) *transport {
	return &transport{timeout: timeout, idle: make(map[string][]*wireConn)}
}

// wireConn is one keep-alive connection.
type wireConn struct {
	nc   net.Conn
	br   *bufio.Reader
	addr string
	vec  [2][]byte
	bufs net.Buffers // aliases vec, so the writev allocates nothing
}

// exchange sends head and body to addr and reads the response head. The
// caller reads the body and then hands the connection to release. req,
// when non-nil, is the request the response answers (http.ReadResponse
// uses it); nil means a request whose response has a body. One deadline,
// now+timeout, bounds the whole call: the dial, a stale-connection retry
// and the body the caller reads after exchange returns.
func (t *transport) exchange(addr string, head, body []byte, req *http.Request) (*http.Response, *wireConn, error) {
	deadline := time.Now().Add(t.timeout)
	wc := t.takeIdle(addr)
	for {
		reused := wc != nil
		if !reused {
			d := t.dialer
			d.Deadline = deadline
			nc, err := d.Dial("tcp", addr)
			if err != nil {
				return nil, nil, err
			}
			wc = &wireConn{nc: nc, br: bufio.NewReader(nc), addr: addr}
		}
		resp, answered, err := wc.roundTrip(head, body, req, deadline)
		if err == nil {
			return resp, wc, nil
		}
		_ = wc.nc.Close()
		// Only a reused connection that failed before answering is a
		// stale one; a timeout is a slow server, not a closed connection.
		var ne net.Error
		if !reused || answered || (errors.As(err, &ne) && ne.Timeout()) {
			return nil, nil, err
		}
		wc = nil
	}
}

// roundTrip writes one request and reads its response head. answered
// reports whether any response byte arrived before an error.
func (wc *wireConn) roundTrip(head, body []byte, req *http.Request, deadline time.Time) (resp *http.Response, answered bool, err error) {
	if err := wc.nc.SetDeadline(deadline); err != nil {
		return nil, false, err
	}
	wc.vec = [2][]byte{head, body}
	wc.bufs = wc.vec[:]
	_, err = wc.bufs.WriteTo(wc.nc)
	wc.vec = [2][]byte{}
	if err != nil {
		return nil, false, err
	}
	if _, err := wc.br.Peek(1); err != nil {
		return nil, false, err
	}
	resp, err = http.ReadResponse(wc.br, req)
	return resp, true, err
}

func (t *transport) takeIdle(addr string) *wireConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	pool := t.idle[addr]
	if len(pool) == 0 {
		return nil
	}
	wc := pool[len(pool)-1]
	pool[len(pool)-1] = nil
	t.idle[addr] = pool[:len(pool)-1]
	return wc
}

// release pools wc when reuse is set and the host's pool has room, and
// closes it otherwise.
func (t *transport) release(wc *wireConn, reuse bool) {
	if reuse {
		t.mu.Lock()
		if pool := t.idle[wc.addr]; len(pool) < maxIdlePerHost {
			t.idle[wc.addr] = append(pool, wc)
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
	}
	_ = wc.nc.Close()
}

// CloseIdleConnections closes every pooled connection; http.Client's
// method of the same name calls it.
func (t *transport) CloseIdleConnections() {
	t.mu.Lock()
	idle := t.idle
	t.idle = make(map[string][]*wireConn)
	t.mu.Unlock()
	for _, pool := range idle {
		for _, wc := range pool {
			_ = wc.nc.Close()
		}
	}
}

// headSkip lists the header fields RoundTrip writes itself.
var headSkip = map[string]bool{"Host": true, "Content-Length": true, "Connection": true, "Transfer-Encoding": true}

// RoundTrip implements http.RoundTripper for the Client's cold endpoints
// (and HTTPClient's callers) over the same exchange as the hot calls.
// The request body is read whole first, so a stale-connection retry can
// send it again.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		b, err := io.ReadAll(req.Body)
		_ = req.Body.Close()
		if err != nil {
			return nil, err
		}
		body = b
	}
	if req.URL.Scheme != "http" {
		return nil, schemeError(req.URL.String())
	}
	host := req.Host
	if host == "" {
		host = req.URL.Host
	}
	method := req.Method
	if method == "" {
		method = http.MethodGet
	}
	var head bytes.Buffer
	fmt.Fprintf(&head, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, req.URL.RequestURI(), host)
	if err := req.Header.WriteSubset(&head, headSkip); err != nil {
		return nil, err
	}
	if req.Body != nil || (method != http.MethodGet && method != http.MethodHead) {
		fmt.Fprintf(&head, "Content-Length: %d\r\n", len(body))
	}
	head.WriteString("\r\n")

	resp, wc, err := t.exchange(dialAddr(req.URL), head.Bytes(), body, req)
	if err != nil {
		return nil, err
	}
	if resp.Body == http.NoBody {
		t.release(wc, !resp.Close)
		return resp, nil
	}
	resp.Body = &connBody{rc: resp.Body, t: t, wc: wc, keep: !resp.Close}
	return resp, nil
}

// connBody releases its connection to the pool when the body reaches
// EOF, and closes it on a read error or an early Close.
type connBody struct {
	rc   io.ReadCloser
	t    *transport
	wc   *wireConn // nil once released
	keep bool      // the response allows keep-alive
	err  error     // what Read answers once wc is released
}

func (b *connBody) Read(p []byte) (int, error) {
	if b.wc == nil {
		return 0, b.err
	}
	n, err := b.rc.Read(p)
	if err != nil {
		b.t.release(b.wc, err == io.EOF && b.keep)
		b.wc, b.err = nil, err
	}
	return n, err
}

func (b *connBody) Close() error {
	if b.wc != nil {
		b.t.release(b.wc, false)
		b.wc, b.err = nil, http.ErrBodyReadAfterClose
	}
	return nil
}

// dialAddr is u's "host:port", port 80 when u names none.
func dialAddr(u *url.URL) string {
	if u.Port() != "" {
		return u.Host
	}
	return net.JoinHostPort(u.Hostname(), "80")
}

func schemeError(rawURL string) error {
	return fmt.Errorf("routesvc: %q is not an http:// URL (the client speaks plain HTTP/1.1 only)", rawURL)
}

// appendPostHead renders the request head of a hot-path POST of n body
// bytes to path.
func (c *Client) appendPostHead(b []byte, path string, n int) []byte {
	b = append(b, "POST "...)
	b = append(b, c.prefix...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, "\r\n\r\n"...)
}
