package routesvc

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// connCounter counts the connections an httptest server accepts and
// closes, through its ConnState hook.
type connCounter struct {
	opened, closed atomic.Int64
}

func (c *connCounter) hook(_ net.Conn, st http.ConnState) {
	switch st {
	case http.StateNew:
		c.opened.Add(1)
	case http.StateClosed, http.StateHijacked:
		c.closed.Add(1)
	}
}

// dropAll runs closeFn, which closes the server's connections, and waits
// until the server has closed every connection it opened and the FINs
// have had time to reach the client.
func (c *connCounter) dropAll(t *testing.T, closeFn func()) {
	t.Helper()
	closeFn()
	deadline := time.Now().Add(5 * time.Second)
	for c.closed.Load() != c.opened.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("server closed %d of %d connections", c.closed.Load(), c.opened.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
}

// countedServer serves h on a fresh loopback listener (or on ln when
// given) and counts its connections.
func countedServer(t *testing.T, h http.Handler, ln net.Listener) (*httptest.Server, *connCounter) {
	t.Helper()
	cc := &connCounter{}
	ts := httptest.NewUnstartedServer(h)
	if ln != nil {
		ts.Listener.Close()
		ts.Listener = ln
	}
	ts.Config.ConnState = cc.hook
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, cc
}

// silentListener accepts connections on a loopback port and never
// answers them. When serve is non-nil, each accepted connection goes to
// it first, and a true result closes the connection instead.
func silentListener(t *testing.T, serve func(c net.Conn) bool) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if serve != nil && serve(c) {
				c.Close()
				continue
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	})
	return ln
}

// TestClientTimeout: the client's timeout bounds a whole call. A backend
// that accepts and never answers fails the call within it, and so does
// one whose dial eats most of the timeout, or one that hangs up a
// pooled connection late, so that the stale-connection retry starts
// with little of the timeout left.
func TestClientTimeout(t *testing.T) {
	const timeout = 500 * time.Millisecond
	const late = 400 * time.Millisecond // most of the timeout
	const slack = 300 * time.Millisecond

	silent := NewClient("http://"+silentListener(t, nil).Addr().String(), timeout)

	slowDial := NewClient("http://"+silentListener(t, nil).Addr().String(), timeout)
	slowDial.tr.dialer.Control = func(string, string, syscall.RawConn) error {
		time.Sleep(late)
		return nil
	}

	// The first connection answers one route through a real handler,
	// then reads the next request and hangs up late without answering;
	// the redialed connection is never answered.
	h := NewHandler(mustService(t, Config{N: 16}))
	var first atomic.Bool
	hangUp := silentListener(t, func(c net.Conn) bool {
		if !first.CompareAndSwap(false, true) {
			return false
		}
		br := bufio.NewReader(c)
		req, err := http.ReadRequest(br)
		if err != nil {
			return true
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			rec.Body.Len(), rec.Body.Bytes())
		if _, err := http.ReadRequest(br); err == nil {
			time.Sleep(late)
		}
		return true
	})
	stale := NewClient("http://"+hangUp.Addr().String(), timeout)
	if _, err := stale.Route("", 1, 2, SchemeTSDT); err != nil {
		t.Fatalf("first route on the pooled connection: %v", err)
	}

	for _, call := range []struct {
		name string
		fn   func() error
	}{
		{"silent Route", func() error { _, err := silent.Route("", 1, 2, SchemeTSDT); return err }},
		{"silent Metrics", func() error { _, err := silent.Metrics(); return err }},
		{"slow-dial Route", func() error { _, err := slowDial.Route("", 1, 2, SchemeTSDT); return err }},
		{"slow-dial Metrics", func() error { _, err := slowDial.Metrics(); return err }},
		{"late-hang-up Route", func() error { _, err := stale.Route("", 1, 2, SchemeTSDT); return err }},
	} {
		t0 := time.Now()
		err := call.fn()
		took := time.Since(t0)
		if err == nil {
			t.Fatalf("%s succeeded", call.name)
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Errorf("%s: error %v is not a timeout", call.name, err)
		}
		if took < timeout || took > timeout+slack {
			t.Errorf("%s failed after %v, want about %v", call.name, took, timeout)
		}
	}
}

// TestClientSurvivesServerClose: pooled keep-alive connections that the
// server has closed — idle connections dropped, or the whole backend
// restarted on the same port — never fail the next call.
func TestClientSurvivesServerClose(t *testing.T) {
	svc := mustService(t, Config{N: 16})
	h := NewHandler(svc)
	ts, cc := countedServer(t, h, nil)
	c := NewClient(ts.URL, 5*time.Second)
	route := func(when string) {
		t.Helper()
		if _, err := c.Route("", 3, 9, SchemeTSDT); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	route("first call")
	route("keep-alive call")
	if n := cc.opened.Load(); n != 1 {
		t.Fatalf("two sequential calls opened %d connections, want 1", n)
	}

	// The server drops its idle connections, as an idle timeout would.
	cc.dropAll(t, ts.CloseClientConnections)
	route("after the server closed idle connections")
	if _, err := c.Fault("", []string{"0:3:+"}, nil); err != nil {
		t.Fatalf("cold call after reconnect: %v", err)
	}
	cc.dropAll(t, ts.CloseClientConnections)
	if _, err := c.Repair("", []string{"0:3:+"}); err != nil {
		t.Fatalf("cold call after the server closed idle connections: %v", err)
	}

	// The backend restarts on the same port.
	addr := ts.Listener.Addr().String()
	cc.dropAll(t, ts.Close)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	countedServer(t, h, ln)
	route("after a restart on the same port")
	if _, err := c.Metrics(); err != nil {
		t.Fatalf("cold call after a restart: %v", err)
	}
}

// TestClientChunkedBatch: a batch answer large enough that net/http
// sends it chunked arrives intact, and the connection is reused after it.
func TestClientChunkedBatch(t *testing.T) {
	svc := mustService(t, Config{N: 64})
	ts, cc := countedServer(t, NewHandler(svc), nil)
	c := NewClient(ts.URL, 5*time.Second)

	reqs := make([]RouteJSON, 300)
	for i := range reqs {
		reqs[i] = RouteJSON{Src: i % 64, Dst: (i * 11) % 64, Scheme: "tsdt"}
	}
	body := appendBatchJSON(nil, &BatchJSON{Requests: reqs})
	resp, err := c.HTTPClient().Post(ts.URL+"/route/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("raw batch: status %d, err %v", resp.StatusCode, err)
	}
	if !reflect.DeepEqual(resp.TransferEncoding, []string{"chunked"}) {
		t.Fatalf("a %d-byte batch answer came with transfer encoding %v, want chunked", len(raw), resp.TransferEncoding)
	}

	for round := 0; round < 3; round++ {
		out, err := c.RouteBatch(reqs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(out.Responses) != len(reqs) {
			t.Fatalf("round %d: %d responses for %d requests", round, len(out.Responses), len(reqs))
		}
		for i, r := range out.Responses {
			if r.Error != "" || r.Src != reqs[i].Src || r.Dst != reqs[i].Dst || len(r.Path) == 0 ||
				r.Path[0] != reqs[i].Src || r.Path[len(r.Path)-1] != reqs[i].Dst {
				t.Fatalf("round %d item %d: %+v", round, i, r)
			}
		}
	}
	if n := cc.opened.Load(); n != 1 {
		t.Fatalf("sequential chunked batches opened %d connections, want 1", n)
	}
}

// TestClientAPIErrors: refusals decode into the same *APIError on the hot
// (wire codec) and cold (encoding/json) calls: a 429 keeps its code,
// message and Retry-After, a draining backend's 503 its code and message.
func TestClientAPIErrors(t *testing.T) {
	shed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Retry-After", "3")
		WriteBody(w, http.StatusTooManyRequests, append(AppendErrorJSON(nil, ErrOverload.Error(), "overload"), '\n'))
	})
	ts, _ := countedServer(t, shed, nil)
	c := NewClient(ts.URL, 5*time.Second)
	want429 := &APIError{Status: http.StatusTooManyRequests, Code: "overload", Msg: ErrOverload.Error(), RetryAfter: 3}

	svc := mustService(t, Config{N: 16})
	svc.Drain()
	dts, _ := countedServer(t, NewHandler(svc), nil)
	dc := NewClient(dts.URL, 5*time.Second)
	want503 := &APIError{Status: http.StatusServiceUnavailable, Code: "draining", Msg: ErrDraining.Error()}

	for _, tc := range []struct {
		name string
		err  func() error
		want *APIError
	}{
		{"429 Route", func() error { _, err := c.Route("", 1, 2, SchemeTSDT); return err }, want429},
		{"429 RouteBatch", func() error { _, err := c.RouteBatch([]RouteJSON{{Src: 1, Dst: 2}}); return err }, want429},
		{"429 Fault", func() error { _, err := c.Fault("", []string{"0:1:+"}, nil); return err }, want429},
		{"503 Route", func() error { _, err := dc.Route("", 1, 2, SchemeTSDT); return err }, want503},
		{"503 RouteBatch", func() error { _, err := dc.RouteBatch([]RouteJSON{{Src: 1, Dst: 2}}); return err }, want503},
	} {
		// Twice: the refusal must leave the connection usable.
		for round := 0; round < 2; round++ {
			var apiErr *APIError
			if err := tc.err(); !errors.As(err, &apiErr) {
				t.Fatalf("%s: error %v is not an *APIError", tc.name, err)
			}
			if !reflect.DeepEqual(apiErr, tc.want) {
				t.Fatalf("%s: got %+v, want %+v", tc.name, apiErr, tc.want)
			}
		}
	}
	h, err := dc.Health()
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != "draining" || h.Status != "draining" {
		t.Fatalf("draining healthz: %+v, %v", h, err)
	}
}

// TestClientCloseIdleConnections: HTTPClient().CloseIdleConnections
// closes the client's pooled connections.
func TestClientCloseIdleConnections(t *testing.T) {
	svc := mustService(t, Config{N: 16})
	ts, cc := countedServer(t, NewHandler(svc), nil)
	c := NewClient(ts.URL, 5*time.Second)

	// Several concurrent calls leave several idle connections.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if _, err := c.Route("", i, k%16, SchemeSSDT); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if _, err := c.Metrics(); err != nil {
		t.Fatal(err)
	}
	opened := cc.opened.Load()
	if opened == 0 || cc.closed.Load() != 0 {
		t.Fatalf("before close: opened %d, closed %d", opened, cc.closed.Load())
	}
	c.HTTPClient().CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for cc.closed.Load() != opened {
		if time.Now().After(deadline) {
			t.Fatalf("closed %d of %d idle connections", cc.closed.Load(), opened)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The client still works afterwards, on a new connection.
	if _, err := c.Route("", 1, 2, SchemeTSDT); err != nil {
		t.Fatal(err)
	}
	if n := cc.opened.Load(); n != opened+1 {
		t.Fatalf("call after close opened %d connections, want 1", n-opened)
	}
}
