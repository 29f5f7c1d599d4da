// Command blobserved serves a saved blobindex over HTTP/JSON — the network
// face of the Blobworld retrieval stack. It opens the index demand-paged
// (queries fault in only the pages they touch, through the pinning buffer
// pool) and layers the serving machinery of internal/server on top:
// admission control, single-flight coalescing, a result cache invalidated
// on writes, and live latency/buffer metrics.
//
// Endpoints:
//
//	POST /v1/knn     {"query":[...],"k":200}        exact k-NN
//	                 +{"refine":true,"target_recall":0.99}  filter-and-refine tier
//	                 (full-dimensional query; needs -side)
//	POST /v1/range   {"query":[...],"radius":1.5}   range search
//	POST /v1/insert  {"key":[...],"rid":7}          insert (invalidates cache)
//	POST /v1/delete  {"key":[...],"rid":7}          delete (invalidates cache)
//	POST /v1/tighten {}                             recompute predicates
//	GET  /v1/stats                                  serving + buffer + storage stats
//	GET  /healthz                                   liveness (always 200 while up)
//	GET  /readyz                                    readiness (503 once the windowed
//	                                                storage error rate crosses -ready-error-rate)
//	GET  /debug/vars                                expvar (includes "blobserved")
//
// With -index the saved file is never written: /v1/insert and /v1/delete
// apply to a memory segment stacked over it (a delete of a point in the
// file becomes a tombstone), and they are lost when the daemon exits.
// /v1/compact answers 501. With -online DIR the daemon serves a WAL-backed
// online index directory instead: acknowledged /v1/insert and /v1/delete
// calls are fsynced to the write-ahead log before they are applied, WAL
// replay on startup recovers every acknowledged write after a crash, and
// -seal-threshold makes background maintenance seal and bulk-load-compact
// the active memory segment as it fills (see DESIGN.md §13).
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, in-flight
// searches run to completion (bounded by -drain-timeout), then the index is
// closed. A second signal aborts immediately.
//
// Process management: -pid-file writes the daemon's PID after the listener
// is bound (and removes it on clean shutdown; a kill -9 leaves it stale, so
// supervisors must treat the file as advisory), the effective listen address
// is logged on startup (bind to :0 and read it back), and exit codes are
// deterministic:
//
//	0  clean shutdown (drain completed)
//	1  internal error
//	2  flag/usage error
//	3  index or sidecar open failure
//	4  listen or serve failure
//
// Typical session:
//
//	go run ./cmd/datagen -images 2000 -idx blobs.idx
//	go run ./cmd/blobserved -index blobs.idx -addr :8080
//	curl -s localhost:8080/v1/knn -d '{"query":[0,0,0,0,0],"k":10}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"blobindex"
	"blobindex/internal/buildinfo"
	"blobindex/internal/server"
)

// The documented exit codes. log.Fatal would always exit 1; a supervisor
// (or the chaos harness) distinguishing "bad flags" from "index won't open"
// from "port taken" needs the cause in the code.
const (
	exitInternal = 1
	exitUsage    = 2
	exitOpen     = 3
	exitServe    = 4
)

func fatalf(code int, format string, args ...any) {
	log.Printf(format, args...)
	os.Exit(code)
}

// writePIDFile records the process's PID for supervisors. Removal is the
// caller's to defer — only a clean exit removes it.
func writePIDFile(path string) {
	if err := os.WriteFile(path, []byte(strconv.Itoa(os.Getpid())+"\n"), 0o644); err != nil {
		fatalf(exitInternal, "write pid file %s: %v", path, err)
	}
}

func main() {
	var (
		indexPath    = flag.String("index", "", "saved index file to serve (or use -online)")
		onlineDir    = flag.String("online", "", "online index directory to serve: WAL-replay on open, durable writes")
		sealAt       = flag.Int("seal-threshold", 0, "with -online: seal+compact the active segment at this many points (0 = manual)")
		addr         = flag.String("addr", ":8080", "listen address")
		poolPages    = flag.Int("pool", blobindex.DefaultPoolPages, "buffer pool capacity in pages")
		sidePath     = flag.String("side", "", "full-feature refine sidecar (enables refine:true on /v1/knn)")
		sidePool     = flag.Int("side-pool", blobindex.DefaultPoolPages, "refine sidecar buffer pool capacity in pages")
		maxInFlight  = flag.Int("max-inflight", 0, "max concurrently executing searches (0 = 2*GOMAXPROCS)")
		maxQueue     = flag.Int("max-queue", 0, "max searches waiting for a slot (0 = 4*max-inflight)")
		queueTimeout = flag.Duration("queue-timeout", time.Second, "max wait for an execution slot before 503")
		cacheEntries = flag.Int("cache", 4096, "result cache entries (negative disables)")
		cacheShards  = flag.Int("cache-shards", 16, "result cache shards")
		maxK         = flag.Int("max-k", 4096, "largest accepted per-request k")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
		pidFile      = flag.String("pid-file", "", "write the daemon's PID here once listening (removed on clean exit)")

		readyWindow  = flag.Duration("ready-window", 30*time.Second, "sliding window for the /readyz storage error rate")
		readyRate    = flag.Float64("ready-error-rate", 0.5, "storage error rate at which /readyz reports degraded")
		readySamples = flag.Int("ready-min-samples", 16, "min windowed index ops before /readyz may flip")

		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Line("blobserved"))
		return
	}
	log.SetPrefix("blobserved: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.Print(buildinfo.Line("blobserved"))

	var idx *blobindex.Index
	var err error
	switch {
	case *indexPath != "" && *onlineDir != "":
		fatalf(exitUsage, "-index and -online are mutually exclusive")
	case *onlineDir != "":
		idx, err = blobindex.OpenOnline(*onlineDir, blobindex.OnlineOptions{
			PoolPages:     *poolPages,
			SealThreshold: *sealAt,
		})
		if err != nil {
			fatalf(exitOpen, "open online %s: %v", *onlineDir, err)
		}
		ist, _ := idx.IngestStats()
		log.Printf("serving online %s: method=%s dim=%d points=%d segments=%d (replayed %d WAL records, %dB torn tail truncated, seal threshold %d)",
			*onlineDir, idx.Stats().Method, idx.Options().Dim, idx.Len(),
			len(idx.SegmentInfos()), ist.ReplayedRecords, ist.TornBytes, *sealAt)
	case *indexPath != "":
		idx, err = blobindex.OpenWithOptions(*indexPath, blobindex.OpenOptions{PoolPages: *poolPages})
		if err != nil {
			fatalf(exitOpen, "open %s: %v", *indexPath, err)
		}
		st := idx.Stats()
		log.Printf("serving %s: method=%s dim=%d points=%d pages=%d (pool %d pages)",
			*indexPath, st.Method, idx.Options().Dim, st.Len, st.Pages, *poolPages)
	default:
		fatalf(exitUsage, "-index or -online is required (create one with: go run ./cmd/datagen -idx blobs.idx)")
	}
	defer idx.Close()
	if *sidePath != "" {
		if err := idx.AttachRefine(*sidePath, *sidePool); err != nil {
			fatalf(exitOpen, "attach refine sidecar %s: %v", *sidePath, err)
		}
		rd, _ := idx.RefineDim()
		rn, _ := idx.RefineLen()
		log.Printf("refine tier: %s, %d full features at %d dimensions (pool %d pages)",
			*sidePath, rn, rd, *sidePool)
	}

	srv, err := server.New(server.Config{
		Index:        idx,
		MaxInFlight:  *maxInFlight,
		MaxQueue:     *maxQueue,
		QueueTimeout: *queueTimeout,
		CacheEntries: *cacheEntries,
		CacheShards:  *cacheShards,
		MaxK:         *maxK,

		ReadyWindow:     *readyWindow,
		ReadyErrorRate:  *readyRate,
		ReadyMinSamples: *readySamples,
	})
	if err != nil {
		fatalf(exitInternal, "%v", err)
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Bind explicitly so a :0 request logs the port the kernel actually
	// assigned — the line a harness (or an operator's script) scrapes.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf(exitServe, "listen %s: %v", *addr, err)
	}
	log.Printf("listening on %s", ln.Addr())
	if *pidFile != "" {
		writePIDFile(*pidFile)
		defer os.Remove(*pidFile)
	}

	errCh := make(chan error, 1)
	go func() {
		errCh <- hs.Serve(ln)
	}()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("received %s, draining (budget %s; signal again to abort)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		go func() {
			<-sigCh
			log.Print("second signal, aborting drain")
			cancel()
		}()
		if err := hs.Shutdown(ctx); err != nil {
			log.Printf("drain incomplete (%v); hard-closing listener, in-flight searches may fail", err)
			hs.Close()
			// Closing the connections cancels each in-flight request's
			// context; give those handlers a moment to unwind through the
			// ctx-aware search paths before idx.Close pulls the store away.
			time.Sleep(250 * time.Millisecond)
		}
		cancel()
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatalf(exitServe, "serve: %v", err)
		}
	}

	final := srv.Stats()
	log.Printf("served %d requests; cache hit rate %.1f%%; admission rejected %d busy / %d timeout",
		final.Requests, 100*final.Cache.HitRate,
		final.Admission.RejectedFull, final.Admission.RejectedTimeout)
	if st := final.Storage; st.TransientErrors+st.CorruptErrors > 0 || final.Buffer != nil && final.Buffer.Retries > 0 {
		var retries, gaveUp int64
		if final.Buffer != nil {
			retries, gaveUp = final.Buffer.Retries, final.Buffer.GaveUp
		}
		log.Printf("storage: %d transient / %d corrupt errors; %d page-read retries, %d gave up",
			st.TransientErrors, st.CorruptErrors, retries, gaveUp)
	}
	if err := idx.Close(); err != nil {
		log.Printf("close index: %v", err)
	}
}
