package apiclient

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"blobindex/internal/wire"
)

func TestKNNDecodesNeighbors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/knn" || r.Method != http.MethodPost {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		var req wire.KNNRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("decode request: %v", err)
		}
		json.NewEncoder(w).Encode(wire.SearchResponse{Neighbors: []wire.Neighbor{
			{RID: 7, Dist: 1.5, Dist2: 2.25},
		}})
	}))
	defer ts.Close()

	c := New(ts.URL, Options{})
	resp, err := c.KNN(context.Background(), wire.KNNRequest{Query: []float64{0, 0}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Neighbors) != 1 || resp.Neighbors[0].RID != 7 || resp.Neighbors[0].Dist2 != 2.25 {
		t.Fatalf("got %+v", resp.Neighbors)
	}
}

func TestRetriesHonorRetryAfter(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "draining"})
			return
		}
		json.NewEncoder(w).Encode(wire.SearchResponse{Neighbors: []wire.Neighbor{{RID: 1}}})
	}))
	defer ts.Close()

	c := New(ts.URL, Options{MaxRetries: 3, RetryWait: time.Millisecond})
	resp, err := c.KNN(context.Background(), wire.KNNRequest{Query: []float64{0}, K: 1})
	if err != nil {
		t.Fatalf("want success after retries, got %v", err)
	}
	if len(resp.Neighbors) != 1 {
		t.Fatalf("got %+v", resp.Neighbors)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("want 3 attempts, got %d", n)
	}
}

func TestBadRequestIsNotRetried(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "k must be positive"})
	}))
	defer ts.Close()

	c := New(ts.URL, Options{MaxRetries: 5, RetryWait: time.Millisecond})
	_, err := c.KNN(context.Background(), wire.KNNRequest{Query: []float64{0}, K: -1})
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusBadRequest || se.Body != "k must be positive" {
		t.Fatalf("want StatusError 400, got %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("want 1 attempt, got %d", n)
	}
}

func TestTransportErrorRetriesStopAtBudget(t *testing.T) {
	// A closed listener: every attempt fails at the transport layer.
	ts := httptest.NewServer(http.NewServeMux())
	base := ts.URL
	ts.Close()

	c := New(base, Options{MaxRetries: 2, RetryWait: time.Millisecond})
	start := time.Now()
	_, err := c.Stats(context.Background())
	if err == nil {
		t.Fatal("want error from closed listener")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("retry loop ran far past its budget")
	}
}

func TestWaitReadyPollsUntilReady(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Not ready for the first few probes — the startup window WaitReady
		// exists to absorb.
		if calls.Add(1) < 4 {
			http.Error(w, "degraded: warming up", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := New(ts.URL, Options{}).WaitReady(ctx); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	if n := calls.Load(); n < 4 {
		t.Fatalf("want >= 4 probes, got %d", n)
	}
}

func TestWaitReadyGivesUpAtDeadline(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "never ready", http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	err := New(ts.URL, Options{}).WaitReady(ctx)
	if err == nil {
		t.Fatal("want deadline error")
	}
	// The error must carry both the giving-up and the last probe's failure.
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want wrapped DeadlineExceeded, got %v", err)
	}
}

func TestCompact(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/compact" || r.Method != http.MethodPost {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
		}
		json.NewEncoder(w).Encode(wire.WriteResponse{OK: true})
	}))
	defer ts.Close()

	resp, err := New(ts.URL, Options{}).Compact(context.Background())
	if err != nil || !resp.OK {
		t.Fatalf("compact: %v %+v", err, resp)
	}
}

func TestReadyReportsDegraded(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "degraded: storage error rate 0.80", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c := New(ts.URL, Options{})
	if err := c.Healthy(context.Background()); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	err := c.Ready(context.Background())
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("want 503 StatusError, got %v", err)
	}
	if se.RetryAfter != time.Second {
		t.Fatalf("want Retry-After 1s, got %v", se.RetryAfter)
	}
}

// TestPostReturnsRawBody: Post sends the given bytes untouched and returns
// the answer's bytes in the caller's buffer — sized from Content-Length, or
// read to EOF from a chunked answer — and maps a non-200 as every call does.
func TestPostReturnsRawBody(t *testing.T) {
	const answer = `{"neighbors":[],"cached":false,"coalesced":false}` + "\n"
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ := io.ReadAll(r.Body)
		switch r.URL.Path {
		case "/sized":
			w.Header().Set("Content-Length", strconv.Itoa(len(answer)))
			io.WriteString(w, answer)
		case "/chunked":
			io.WriteString(w, answer[:10])
			w.(http.Flusher).Flush()
			io.WriteString(w, answer[10:])
		default:
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": "bad body " + string(got)})
		}
	}))
	defer ts.Close()

	c := New(ts.URL, Options{})
	buf := make([]byte, 0, 1024)
	for _, path := range []string{"/sized", "/chunked"} {
		got, err := c.Post(context.Background(), path, []byte(`{"k":1}`), buf)
		if err != nil || string(got) != answer {
			t.Fatalf("%s: %q, %v", path, got, err)
		}
		if &got[0] != &buf[:1][0] {
			t.Errorf("%s: the answer did not reuse the caller's buffer", path)
		}
	}
	_, err := c.Post(context.Background(), "/other", []byte(`{"k":1}`), nil)
	se, ok := err.(*StatusError)
	if !ok || se.Code != http.StatusBadRequest || se.Body != `bad body {"k":1}` {
		t.Fatalf("want StatusError 400 echoing the body, got %v", err)
	}
}
