package routesvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Client is a typed HTTP client for the Handler wire API, shared by the
// fleet router's backend connections and the load generators. /route and
// /route/batch exchanges go through the wire codec (wire.go), response
// bodies read into pooled buffers; the cold endpoints use encoding/json.
// The underlying Transport is tuned for many concurrent keep-alive
// connections to one host.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for one backend base URL ("http://host:port").
// timeout bounds each call end-to-end; 0 means 10s.
func NewClient(base string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	tr := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	}
	return &Client{base: base, hc: &http.Client{Transport: tr, Timeout: timeout}}
}

// Base returns the backend base URL the client was built with.
func (c *Client) Base() string { return c.base }

// HTTPClient exposes the underlying *http.Client for callers that need
// raw requests with the same connection pool (the fleet router's hedged
// sends use it).
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
// *APIError. The body is a fresh allocation, never a reused buffer: the
// transport may read it after the response arrives.
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
		return apiError(resp)
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
// body (an undecodable body still leaves the status) and Retry-After.
func apiError(resp *http.Response) *APIError {
	apiErr := &APIError{Status: resp.StatusCode}
	wb := GetWireBuf()
	var body errJSON
	if wb.ReadAll(resp.Body, resp.ContentLength) == nil && decodeErrorJSON(wb.B, &body) == nil {
		apiErr.Code, apiErr.Msg = body.Code, body.Error
	}
	PutWireBuf(wb)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		_, _ = fmt.Sscanf(ra, "%d", &apiErr.RetryAfter)
	}
	return apiErr
}

// PostRaw POSTs an encoded body to path and reads the 2xx response body
// into out. Non-2xx responses return *APIError. body must not be reused:
// the transport may read it after PostRaw returns. The fleet router
// forwards batch items through it without decoding them.
func (c *Client) PostRaw(path string, body []byte, out *WireBuf) error {
	// A *bytes.Reader body lets the transport write headers and body in
	// one packet.
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	return out.ReadAll(resp.Body, resp.ContentLength)
}

// exchange sends one encoded /route or /route/batch body and hands the
// response body to decode.
func (c *Client) exchange(path string, body []byte, decode func([]byte) error) error {
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
	return c.RouteWire(RouteJSON{Net: net, Src: src, Dst: dst, Scheme: scheme.String()})
}

// RouteWire sends one /route request as given (the fleet router forwards
// a client's request fields, scheme spelling included, this way).
func (c *Client) RouteWire(in RouteJSON) (RouteJSON, error) {
	var out RouteJSON
	body := AppendRouteJSON(make([]byte, 0, 128), &in, false)
	err := c.exchange("/route", body, func(b []byte) error { return DecodeRouteJSON(b, &out) })
	return out, err
}

// RouteBatch requests many tags in one round trip.
func (c *Client) RouteBatch(reqs []RouteJSON) (BatchJSON, error) {
	var out BatchJSON
	body := appendBatchJSON(make([]byte, 0, 32+64*len(reqs)), &BatchJSON{Requests: reqs})
	err := c.exchange("/route/batch", body, func(b []byte) error { return decodeBatchJSON(b, &out) })
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

// Prewarm rebuilds net's dense SSDT table.
func (c *Client) Prewarm(net string) (PrewarmJSON, error) {
	var out PrewarmJSON
	path := "/prewarm"
	if net != "" {
		path += "?net=" + net
	}
	err := c.PostJSON(path, struct{}{}, &out)
	return out, err
}

// Metrics scrapes /metrics.
func (c *Client) Metrics() (MetricsJSON, error) {
	var out MetricsJSON
	err := c.GetJSON("/metrics", &out)
	return out, err
}
