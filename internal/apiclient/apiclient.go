// Package apiclient is the typed HTTP client for the blobserved wire
// protocol, shared by every in-repo consumer that talks to a daemon over
// TCP: the cluster router's scatter-gather tier, the chaos harness, and
// the end-to-end cluster tests. It owns
// the request/decode plumbing those callers used to duplicate — bounded
// JSON bodies, status-to-error mapping, and Retry-After-aware bounded
// retry of 429/503 responses and transport failures.
package apiclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"blobindex/internal/server"
	"blobindex/internal/wire"
)

// StatusError is a non-2xx daemon response. RetryAfter is the parsed
// Retry-After header (0 when absent), the server's own estimate of when a
// retry could succeed.
type StatusError struct {
	Code       int
	Body       string
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Body != "" {
		return fmt.Sprintf("status %d: %s", e.Code, e.Body)
	}
	return fmt.Sprintf("status %d", e.Code)
}

// Retryable reports whether the response is an explicit back-off signal
// (429 queue full, 503 degraded/draining) rather than a permanent failure.
func (e *StatusError) Retryable() bool {
	return e.Code == http.StatusTooManyRequests || e.Code == http.StatusServiceUnavailable
}

// Options configures a Client. The zero value is a non-retrying client
// with a shared default transport.
type Options struct {
	// HTTPClient issues the requests. Default: a client with a pooled
	// transport and no overall timeout (use RequestTimeout or ctx).
	HTTPClient *http.Client
	// RequestTimeout bounds each attempt (not the whole retry loop).
	// 0 means no per-attempt bound beyond the caller's ctx.
	RequestTimeout time.Duration
	// MaxRetries is how many times a retryable failure (429/503, transport
	// error) is retried after the first attempt. Default 0: fail fast, the
	// caller owns the policy — the cluster router, for example, retries by
	// failing over to a replica instead of hammering the same member.
	MaxRetries int
	// RetryWait is the wait before a retry when the server sent no
	// Retry-After. Default 100ms, doubling per attempt.
	RetryWait time.Duration
	// MaxRetryWait caps the wait, including server-requested Retry-After.
	// Default 2s.
	MaxRetryWait time.Duration
}

// Client talks to one daemon (a blobserved shard or a blobrouted router —
// the router serves the same wire protocol).
type Client struct {
	base string
	opts Options
}

// New returns a client for the daemon at base, e.g. "http://127.0.0.1:8080"
// (a bare host:port is given the http scheme).
func New(base string, opts Options) *Client {
	if opts.HTTPClient == nil {
		opts.HTTPClient = defaultHTTPClient
	}
	if opts.RetryWait <= 0 {
		opts.RetryWait = 100 * time.Millisecond
	}
	if opts.MaxRetryWait <= 0 {
		opts.MaxRetryWait = 2 * time.Second
	}
	if len(base) > 0 && base[0] != 'h' {
		base = "http://" + base
	}
	return &Client{base: base, opts: opts}
}

var defaultHTTPClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		IdleConnTimeout:     90 * time.Second,
	},
}

// KNN runs a k-NN search.
func (c *Client) KNN(ctx context.Context, req wire.KNNRequest) (*wire.SearchResponse, error) {
	var resp wire.SearchResponse
	if err := c.call(ctx, http.MethodPost, "/v1/knn", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Range runs a range search.
func (c *Client) Range(ctx context.Context, req wire.RangeRequest) (*wire.SearchResponse, error) {
	var resp wire.SearchResponse
	if err := c.call(ctx, http.MethodPost, "/v1/range", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Insert inserts one point.
func (c *Client) Insert(ctx context.Context, req wire.WriteRequest) (*wire.WriteResponse, error) {
	var resp wire.WriteResponse
	if err := c.call(ctx, http.MethodPost, "/v1/insert", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Delete deletes one point.
func (c *Client) Delete(ctx context.Context, req wire.WriteRequest) (*wire.WriteResponse, error) {
	var resp wire.WriteResponse
	if err := c.call(ctx, http.MethodPost, "/v1/delete", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Compact asks an online daemon to seal its active segment and compact
// everything pending, now. Daemons serving an index with no WAL (-index)
// answer 501.
func (c *Client) Compact(ctx context.Context) (*wire.WriteResponse, error) {
	var resp wire.WriteResponse
	if err := c.call(ctx, http.MethodPost, "/v1/compact", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the daemon's /v1/stats payload.
func (c *Client) Stats(ctx context.Context) (*server.Stats, error) {
	var st server.Stats
	if err := c.call(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Ready probes /readyz: nil when the daemon reports ready, a *StatusError
// carrying the degraded body otherwise.
func (c *Client) Ready(ctx context.Context) error {
	return c.probe(ctx, "/readyz")
}

// Healthy probes /healthz: nil while the process is up.
func (c *Client) Healthy(ctx context.Context) error {
	return c.probe(ctx, "/healthz")
}

// WaitReady polls /readyz with exponential backoff until the daemon reports
// ready or ctx expires. This is the startup/rejoin synchronization point for
// anything that just launched a daemon: unlike a fixed sleep it is exactly as
// slow as the daemon, and unlike a bare probe loop each attempt is bounded,
// so a half-dead process (accepting TCP, never answering) cannot wedge the
// waiter past ctx.
func (c *Client) WaitReady(ctx context.Context) error {
	return c.waitProbe(ctx, "/readyz", c.Ready)
}

// WaitHealthy polls /healthz with exponential backoff until the process
// answers or ctx expires.
func (c *Client) WaitHealthy(ctx context.Context) error {
	return c.waitProbe(ctx, "/healthz", c.Healthy)
}

func (c *Client) waitProbe(ctx context.Context, path string, probe func(context.Context) error) error {
	// Bound each attempt so one stalled connection costs a retry, not the
	// whole wait budget.
	attemptTimeout := c.opts.RequestTimeout
	if attemptTimeout <= 0 || attemptTimeout > time.Second {
		attemptTimeout = time.Second
	}
	wait := 10 * time.Millisecond
	var lastErr error
	for {
		pctx, cancel := context.WithTimeout(ctx, attemptTimeout)
		lastErr = probe(pctx)
		cancel()
		if lastErr == nil {
			return nil
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("apiclient: %s%s not ready: %w (last probe: %v)", c.base, path, ctx.Err(), lastErr)
		case <-t.C:
		}
		if wait *= 2; wait > 500*time.Millisecond {
			wait = 500 * time.Millisecond
		}
	}
}

func (c *Client) probe(ctx context.Context, path string) error {
	// Probes are point-in-time health signals; retrying inside the client
	// would blur exactly the state the caller is sampling.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
	return nil
}

// Post posts the pre-encoded JSON body to path and returns the 200
// answer's body, read into buf[:0] (grown as needed; buf may be nil), under
// the same retry policy and status-error mapping as every other call. It
// lets a caller encode one request for many daemons and handle the answer's
// bytes itself.
func (c *Client) Post(ctx context.Context, path string, body, buf []byte) ([]byte, error) {
	return c.do(ctx, http.MethodPost, path, body, buf)
}

// call marshals in, issues the request, and decodes the 200 body into out.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	raw, err := c.do(ctx, method, path, body, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// do issues one request with the retry policy: attempts are bounded by
// MaxRetries, only retryable failures (transport errors, 429/503) repeat,
// and the wait honors the server's Retry-After up to MaxRetryWait.
func (c *Client) do(ctx context.Context, method, path string, body, buf []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		raw, err := c.attempt(ctx, method, path, body, buf)
		if err == nil || attempt >= c.opts.MaxRetries || !retryable(err) {
			return raw, err
		}
		wait := c.opts.RetryWait << attempt
		var se *StatusError
		if errors.As(err, &se) && se.RetryAfter > 0 {
			wait = se.RetryAfter
		}
		if wait > c.opts.MaxRetryWait {
			wait = c.opts.MaxRetryWait
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

func (c *Client) attempt(ctx context.Context, method, path string, body, buf []byte) ([]byte, error) {
	if c.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.RequestTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	return readBody(resp, buf)
}

// maxSized bounds the buffer readBody sizes up front from a Content-Length;
// a longer body grows only as its bytes actually arrive.
const maxSized = 64 << 20

// readBody reads resp's body into buf[:0]: in one exact read when the
// daemon sent a Content-Length, as they all do, else to EOF.
func readBody(resp *http.Response, buf []byte) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxSized {
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return nil, fmt.Errorf("read body: %w", err)
		}
		return buf, nil
	}
	b := bytes.NewBuffer(buf[:0])
	if _, err := b.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	return b.Bytes(), nil
}

func retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Retryable()
	}
	// Transport-level failures (refused, reset, timeout) are retryable;
	// context expiry is the caller saying stop.
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

func statusError(resp *http.Response) error {
	se := &StatusError{Code: resp.StatusCode}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	// The daemons return {"error": "..."} bodies; fall back to raw text.
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	var eresp struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &eresp) == nil && eresp.Error != "" {
		se.Body = eresp.Error
	} else {
		se.Body = string(bytes.TrimSpace(raw))
	}
	return se
}
