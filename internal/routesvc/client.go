package routesvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Client is a typed HTTP client for the Handler wire API, used on every
// hop of the serving stack: by the load generators and the repository
// benchmark towards a backend or the fleet router, and by the router
// towards its backends. /route and /route/batch exchanges go through the
// wire codec (wire.go) with hand-rendered request heads, response bodies
// read into pooled buffers; the cold endpoints use encoding/json through
// http.Client. Both run on the caller's goroutine over one pool of
// keep-alive connections (transport.go).
type Client struct {
	base   string
	addr   string // "host:port" dialed for base
	host   string // Host header
	prefix string // base's path, prepended to request paths
	err    error  // non-nil when base is not an http:// URL
	tr     *transport
	hc     *http.Client
}

// NewClient builds a client for one backend base URL ("http://host:port").
// timeout bounds each call end-to-end (dial, request, response head,
// body and a stale-connection retry); 0 means 10s. A base that is not an http:// URL makes every call
// fail with an error saying so.
func NewClient(base string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	tr := newTransport(timeout)
	c := &Client{base: base, tr: tr, hc: &http.Client{Transport: tr}}
	u, err := url.Parse(base)
	switch {
	case err != nil:
		c.err = fmt.Errorf("routesvc: bad base URL: %w", err)
	case u.Scheme != "http" || u.Host == "":
		c.err = schemeError(base)
	default:
		c.addr, c.host, c.prefix = dialAddr(u), u.Host, strings.TrimSuffix(u.Path, "/")
	}
	return c
}

// Base returns the backend base URL the client was built with.
func (c *Client) Base() string { return c.base }

// HTTPClient exposes the underlying *http.Client for raw requests over
// the client's connection pool (iadmload's GET singles and mutations use
// it); its CloseIdleConnections closes the pooled connections.
func (c *Client) HTTPClient() *http.Client { return c.hc }

// APIError is a non-2xx response decoded from the wire error body.
type APIError struct {
	Status     int
	Code       string // wire error code: overload, draining, invalid, unroutable
	Msg        string
	RetryAfter int // seconds, from the 429 Retry-After header (0 if absent)
}

func (e *APIError) Error() string {
	return fmt.Sprintf("routesvc: backend status %d (%s): %s", e.Status, e.Code, e.Msg)
}

// PostJSON marshals v, POSTs it to path, and decodes the 2xx response
// into out (skipped when out is nil). Non-2xx responses return
// *APIError.
func (c *Client) PostJSON(path string, v, out any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("routesvc: encode %s body: %w", path, err)
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

// GetJSON GETs path and decodes the 2xx response into out.
func (c *Client) GetJSON(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		apiErr, _ := apiError(resp)
		return apiErr
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("routesvc: decode %s response: %w", req.URL.Path, err)
	}
	return nil
}

// apiError builds the *APIError of a non-2xx response from its error
// body (an undecodable body still leaves the status) and Retry-After. The
// error result is the body read's: nil when the body reached EOF.
func apiError(resp *http.Response) (*APIError, error) {
	apiErr := &APIError{Status: resp.StatusCode}
	wb := GetWireBuf()
	var body errJSON
	err := wb.ReadAll(resp.Body, resp.ContentLength)
	if err == nil && decodeErrorJSON(wb.B, &body) == nil {
		apiErr.Code, apiErr.Msg = body.Code, body.Error
	}
	PutWireBuf(wb)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		_, _ = fmt.Sscanf(ra, "%d", &apiErr.RetryAfter)
	}
	return apiErr, err
}

// PostRaw POSTs an encoded body to path and reads the 2xx response body
// into out. Non-2xx responses return *APIError. The exchange is over when
// PostRaw returns, so the caller may reuse body. The fleet router
// forwards route requests and batch items through it without decoding
// them.
func (c *Client) PostRaw(path string, body []byte, out *WireBuf) error {
	if c.err != nil {
		return c.err
	}
	head := GetWireBuf()
	head.B = c.appendPostHead(head.B, path, len(body))
	resp, wc, err := c.tr.exchange(c.addr, head.B, body, nil)
	PutWireBuf(head)
	if err != nil {
		return &url.Error{Op: "Post", URL: c.base + path, Err: err}
	}
	if resp.StatusCode/100 != 2 {
		apiErr, err := apiError(resp)
		c.tr.release(wc, err == nil && !resp.Close)
		return apiErr
	}
	err = out.ReadAll(resp.Body, resp.ContentLength)
	c.tr.release(wc, err == nil && !resp.Close)
	if err != nil {
		return &url.Error{Op: "Post", URL: c.base + path, Err: err}
	}
	return nil
}

// call sends one encoded /route or /route/batch body and hands the
// response body to decode.
func (c *Client) call(path string, body []byte, decode func([]byte) error) error {
	out := GetWireBuf()
	defer PutWireBuf(out)
	if err := c.PostRaw(path, body, out); err != nil {
		return err
	}
	if err := decode(out.B); err != nil {
		return fmt.Errorf("routesvc: decode %s response: %w", path, err)
	}
	return nil
}

// Health fetches /healthz. A draining backend answers 503 with a valid
// body; that body is returned alongside the *APIError so probes can
// distinguish "down" from "draining".
func (c *Client) Health() (HealthJSON, error) {
	var out HealthJSON
	req, err := http.NewRequest(http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return out, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if decErr := json.NewDecoder(resp.Body).Decode(&out); decErr != nil && resp.StatusCode/100 == 2 {
		return out, fmt.Errorf("routesvc: decode /healthz response: %w", decErr)
	}
	if resp.StatusCode/100 != 2 {
		return out, &APIError{Status: resp.StatusCode, Code: out.Status}
	}
	return out, nil
}

// Route requests one tag.
func (c *Client) Route(net string, src, dst int, scheme Scheme) (RouteJSON, error) {
	var out RouteJSON
	body := GetWireBuf()
	defer PutWireBuf(body)
	body.B = AppendRouteJSON(body.B, &RouteJSON{Net: net, Src: src, Dst: dst, Scheme: scheme.String()}, false)
	err := c.call("/route", body.B, func(b []byte) error { return DecodeRouteJSON(b, &out) })
	return out, err
}

// RouteBatch requests many tags in one round trip. It asks for tag
// answers (TagAnswers) and completes them from reqs: each item gets its
// request's net, src and dst, the canonical scheme, and the path the tag
// walks from src, expanded by the 64-lane sliced kernel. The result
// equals the full-shape answer except that Cached is always false. An
// answer with another number of items or a tag that does not parse fails
// the call as an undecodable body does.
//
// The answer's memory is per batch, not per item: Responses has its
// exact length, the items' Path slices share one backing array, each
// capped at its own length (so appending to one never touches the
// next), and their tags are substrings of one string. The caller owns
// all of it.
func (c *Client) RouteBatch(reqs []RouteJSON) (BatchJSON, error) {
	var out BatchJSON
	body := GetWireBuf()
	defer PutWireBuf(body)
	body.B = appendBatchJSON(body.B, &BatchJSON{Requests: reqs})
	err := c.call(TagAnswers.BatchPath(), body.B, func(b []byte) error { return decodeTagAnswers(b, reqs, &out) })
	return out, err
}

// Fault reports faults on net; the response carries the backend's new
// epoch (the fan-out acknowledgement the fleet router collects).
func (c *Client) Fault(net string, links, switches []string) (MutateJSON, error) {
	var out MutateJSON
	err := c.PostJSON("/fault", MutateJSON{Net: net, Links: links, Switches: switches}, &out)
	return out, err
}

// Repair reports link repairs on net.
func (c *Client) Repair(net string, links []string) (MutateJSON, error) {
	var out MutateJSON
	err := c.PostJSON("/repair", MutateJSON{Net: net, Links: links}, &out)
	return out, err
}

// Metrics scrapes /metrics.
func (c *Client) Metrics() (MetricsJSON, error) {
	var out MetricsJSON
	err := c.GetJSON("/metrics", &out)
	return out, err
}
