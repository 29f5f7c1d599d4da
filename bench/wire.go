package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// The benchmark speaks to the daemons as an outside client would: plain
// net/http and its own copy of the wire shapes. It imports neither
// server.KNNRequest nor apiclient, so a change to those packages that
// breaks the wire shows up here as failed requests, not as a compile error
// the change can fix on the benchmark's behalf.

type knnRequest struct {
	Query        []float64 `json:"query"`
	K            int       `json:"k"`
	Refine       bool      `json:"refine,omitempty"`
	TargetRecall float64   `json:"target_recall,omitempty"`
}

type wireNeighbor struct {
	RID   int64   `json:"rid"`
	Dist  float64 `json:"dist"`
	Dist2 float64 `json:"dist2"`
}

type knnResponse struct {
	Neighbors []wireNeighbor `json:"neighbors"`
	Cached    bool           `json:"cached"`
	Coalesced bool           `json:"coalesced"`
}

type writeRequest struct {
	Key []float64 `json:"key"`
	RID int64     `json:"rid"`
}

type writeResponse struct {
	OK      bool `json:"ok"`
	Existed bool `json:"existed"`
}

type latencySummary struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
}

// sumUs is count·mean: the one field of the server's histogram that can be
// differenced across a phase.
func (l latencySummary) sumUs() float64 { return float64(l.Count) * l.MeanUs }

type bufferStats struct {
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Evictions      int64 `json:"evictions"`
	Prefetched     int64 `json:"prefetched"`
	PrefetchWasted int64 `json:"prefetch_wasted"`
}

// serverStats is the part of blobserved's GET /v1/stats the benchmark
// reads.
type serverStats struct {
	Requests  int64 `json:"requests"`
	Admission struct {
		Admitted        int64 `json:"admitted"`
		RejectedFull    int64 `json:"rejected_queue_full"`
		RejectedTimeout int64 `json:"rejected_queue_timeout"`
	} `json:"admission"`
	Cache struct {
		Hits          int64 `json:"hits"`
		Misses        int64 `json:"misses"`
		Evictions     int64 `json:"evictions"`
		Invalidations int64 `json:"invalidations"`
	} `json:"cache"`
	Coalesce struct {
		Leaders   int64 `json:"leaders"`
		Followers int64 `json:"followers"`
	} `json:"coalesce"`
	Index struct {
		Len   int `json:"len"`
		Pages int `json:"pages"`
	} `json:"index"`
	Buffer       *bufferStats `json:"buffer"`
	RefineBuffer *bufferStats `json:"refine_buffer"`
	Segments     *struct {
		Count       int    `json:"count"`
		WALBytes    int64  `json:"wal_bytes"`
		Seals       uint64 `json:"seals"`
		Compactions uint64 `json:"compactions"`
		Appends     int64  `json:"appends"`
		Segments    []struct {
			Len       int   `json:"len"`
			SizeBytes int64 `json:"size_bytes"`
		} `json:"segments"`
	} `json:"segments"`
	Stages map[string]struct {
		Searches   int64          `json:"searches"`
		Candidates int64          `json:"candidates"`
		Latency    latencySummary `json:"latency"`
	} `json:"stages"`
	Endpoints map[string]latencySummary `json:"endpoints"`
}

// routerStats is the part of blobrouted's GET /v1/stats the benchmark
// reads.
type routerStats struct {
	Fanout struct {
		Queries       int64 `json:"queries"`
		ShardRequests int64 `json:"shard_requests"`
		Retries       int64 `json:"retries"`
		Hedges        int64 `json:"hedges"`
		Failovers     int64 `json:"failovers"`
	} `json:"fanout"`
	Shards []struct {
		Members []struct {
			Latency latencySummary `json:"latency"`
		} `json:"members"`
	} `json:"shards"`
	Endpoints map[string]latencySummary `json:"endpoints"`
}

// client is one connection's worth of HTTP client: its transport holds at
// most one connection to the host, so "conns = 2" in the output means two
// TCP connections, not two goroutines sharing a pool.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(addr string) *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: "http://" + addr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and returns the status and the response bytes, which
// stay valid until the client's next call.
func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	return c.drain(resp)
}

func (c *client) get(path string) (int, []byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	return c.drain(resp)
}

func (c *client) drain(resp *http.Response) (int, []byte, error) {
	c.buf.Reset()
	_, err := io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// getJSON decodes a GET endpoint into v.
func (c *client) getJSON(path string, v any) error {
	status, body, err := c.get(path)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only finite floats and ints are ever marshalled here
	}
	return b
}

var ridToken = []byte(`"rid"`)

// cheapOK is the in-phase check every response gets: status 200 and exactly
// k neighbours, counted without decoding so the generator stays cheap.
func cheapOK(status int, body []byte, k int) bool {
	return status == http.StatusOK && bytes.Count(body, ridToken) == k
}
