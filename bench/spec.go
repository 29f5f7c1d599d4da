package main

// This file is the benchmark's declarative half: the workloads with the
// reason each exists, the metrics with unit, bound and the prediction of
// what each layer metric should move, and the two scales. BENCHMARK.json at
// the repository root restates the names, units and bounds for the driver;
// TestBenchmarkJSONMatchesSpec keeps the two from drifting.

// refSeconds is the measuring time the op counts below are written for
// (BENCHMARK.json's run_seconds). Another -seconds scales every count
// linearly, so the rates — and with them the load on the system — stay
// what they are here.
const refSeconds = 10

// conns is the number of client connections (and waiting callers) every
// workload uses. The box has two cores: more callers than that would
// measure the run queue, as the 64-client artifacts of earlier PRs did.
const conns = 2

// k is the neighbour count of every query: the paper's 200-NN.
const k = 200

// indexDim is the SVD-reduced dimensionality the indexes are built in.
const indexDim = 5

// nSlices is how many pieces each timed phase is cut into; the pieces of the
// phases alternate, so every phase samples the whole measuring window.
const nSlices = 4

// checkEvery is the in-phase oracle's sampling: one response in this many
// is fully decoded and compared with the precomputed answer.
const checkEvery = 64

type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{"serve-hot", "1024 queries repeated Zipf(1.1), all result-cache hits: the server pipeline and JSON do all the work, nn and pagefile none"},
	{"serve-cold", "every query distinct over 210k blobs with the pool at 19% of the pages: cache bypassed, geom/nn/pagefile do their most work"},
	{"refine", "distinct 218-d refine queries re-ranking 2400 candidates: sidecar paging and QFDist2 dominate; recall is pinned"},
	{"ingest-mixed", "durable writes beside distinct reads on an online index that seals and compacts: the reader's view of a growing segment stack"},
	{"ingest-write", "the same write traffic seen from the writer, plus write saturation: WAL fsync, seal stalls, cache invalidation"},
	{"cluster", "distinct queries through blobrouted over 3 hash shards: fan-out, 3x200 decode-merge-re-encode and the second hop dominate"},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Moves  string  // per-layer only: the end-to-end metric and workload it should move
	What   string
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them; on ingest-write the "request" is the write.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, What: "corpus + files + boot + warm-up, median of the run's set-up repetitions, excluding the one-off go build; like the four timed metrics below, at the CPU share the host granted (steal.go)"},
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25, What: "closed-loop successful requests per second (ingest-mixed: the reader beside one writer; ingest-write: two writers saturating)"},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, What: "closed-loop median latency (ingest-write: one writer beside one reader)"},
	{Name: "p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, What: "closed-loop 99th percentile, exact, at least 1000 samples; on the ingest workloads it carries seal and compaction stalls"},
	{Name: "open_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, What: "open-loop median latency at the workload's fixed rate, timed from when each request was due"},
	{Name: "success_rate", Unit: "ratio", Better: "higher", Bound: 0.001, What: "1 - (non-200 + transport errors + deadline-aborted + oracle mismatches + unreadable acked writes) / attempted, all timed phases and checks"},
	{Name: "recall_at_k", Unit: "ratio", Better: "higher", Bound: 0.005, What: "mean recall@200 of served answers against brute force in the query's own space over 32 fixed queries"},
	{Name: "disk_bytes_per_blob", Unit: "B", Better: "lower", Bound: 0.02, What: "bytes of served files per blob (online index: after a full compaction of the run's final state)"},
}

// perLayer lists the single-layer metrics, layer = module name. A metric
// that a workload does not exercise reads 0 there, which is itself the
// statement that the layer saw no traffic.
var perLayer = []metricSpec{
	{Name: "geom.block_ns_per_leaf", Unit: "ns", Better: "lower", Moves: "p50_ms on serve-cold only, and little: the kernel is a small share of a query", What: "Dist2FlatBlock over one full leaf block"},
	{Name: "geom.leaf_blocks_per_query", Unit: "count", Better: "lower", Moves: "p50_ms on serve-cold", What: "leaf blocks scored per query"},

	{Name: "nn.total_us", Unit: "us", Better: "lower", Moves: "p50_ms, throughput_rps on serve-cold; a third of that on cluster; none on serve-hot", What: "nn.SearchCtxInto on the in-memory tree, median"},
	{Name: "nn.self_us", Unit: "us", Better: "lower", Moves: "as nn.total_us", What: "nn.total_us minus the kernel time of the leaves it scored"},
	{Name: "nn.leaves_per_query", Unit: "count", Better: "lower", Moves: "p50_ms on serve-cold", What: "leaf pages visited per query (gist.Trace)"},
	{Name: "nn.inner_per_query", Unit: "count", Better: "lower", Moves: "p50_ms on serve-cold", What: "inner pages visited per query"},
	{Name: "nn.empty_leaf_ratio", Unit: "ratio", Better: "lower", Moves: "nn.leaves_per_query", What: "visited leaves that contributed no result: the paper's excess coverage"},

	{Name: "pagefile.total_us", Unit: "us", Better: "lower", Moves: "p50_ms, p99_ms on serve-cold", What: "the same search over OpenPaged at the workload's pool"},
	{Name: "pagefile.self_us", Unit: "us", Better: "lower", Moves: "as pagefile.total_us", What: "pagefile.total_us - nn.total_us: the cost of paging"},
	{Name: "pagefile.pins_per_query", Unit: "count", Better: "lower", Moves: "p50_ms on serve-cold", What: "buffer-pool pins per query, closed phase of the daemon"},
	{Name: "pagefile.miss_rate", Unit: "ratio", Better: "lower", Moves: "p50_ms, p99_ms on serve-cold; 0 on serve-hot", What: "pool misses / pins, closed phase of the daemon"},
	{Name: "pagefile.evictions_per_query", Unit: "count", Better: "lower", Moves: "p99_ms on serve-cold", What: "pool evictions per query, closed phase"},
	{Name: "pagefile.prefetch_wasted_ratio", Unit: "ratio", Better: "lower", Moves: "p50_ms on serve-cold", What: "prefetched pages never used / prefetched, closed phase"},
	{Name: "pagefile.side_feature_us", Unit: "us", Better: "lower", Moves: "p50_ms on refine", What: "SideStore.Feature per candidate, in the order the facade reads them"},
	{Name: "pagefile.side_pages_per_candidate", Unit: "ratio", Better: "lower", Moves: "p50_ms on refine", What: "distinct sidecar pages per refined candidate"},
	{Name: "pagefile.side_miss_rate", Unit: "ratio", Better: "lower", Moves: "p50_ms, p99_ms on refine", What: "sidecar pool misses / pins, closed phase of the daemon"},

	{Name: "blobworld.qfdist_ns", Unit: "ns", Better: "lower", Moves: "p50_ms on refine: the arithmetic floor paging is compared with", What: "QFDist2 on 218-d vectors in memory"},

	{Name: "segment.total_us", Unit: "us", Better: "lower", Moves: "p50_ms on the read workloads", What: "Stack.SearchKNN over one file segment"},
	{Name: "segment.self_us", Unit: "us", Better: "lower", Moves: "as segment.total_us", What: "segment.total_us - pagefile.total_us"},
	{Name: "segment.mem_insert_us", Unit: "us", Better: "lower", Moves: "p50_ms on ingest-write", What: "segment.Mem.Insert: the in-memory apply of a write"},
	{Name: "segment.count_end", Unit: "count", Better: "lower", Moves: "p50_ms, throughput_rps of the reader on ingest-mixed (read amplification)", What: "live segments at the end of the timed phases"},
	{Name: "segment.seals", Unit: "count", Better: "higher", Moves: "p99_ms on the ingest workloads via seal stalls", What: "seals during the timed phases"},
	{Name: "segment.compactions", Unit: "count", Better: "higher", Moves: "p99_ms on the ingest workloads", What: "compactions during the timed phases"},
	{Name: "segment.bytes_per_blob", Unit: "B", Better: "lower", Moves: "disk_bytes_per_blob on the ingest workloads", What: "segment file bytes per stored point as the run left them, before the full compaction"},

	{Name: "device.fsync_us", Unit: "us", Better: "lower", Moves: "every write metric: the floor under a durable write", What: "64-byte write + fsync on the work directory"},
	{Name: "wal.append_us", Unit: "us", Better: "lower", Moves: "throughput_rps, p50_ms, open_p50_ms on ingest-write; nothing elsewhere", What: "wal.Log.Append of one record"},
	{Name: "wal.self_us", Unit: "us", Better: "lower", Moves: "as wal.append_us", What: "wal.append_us - device.fsync_us"},
	{Name: "wal.bytes_per_write", Unit: "B", Better: "lower", Moves: "throughput_rps on ingest-write", What: "WAL bytes appended per acknowledged write, in process"},
	{Name: "wal.appends_per_write", Unit: "ratio", Better: "lower", Moves: "throughput_rps on ingest-write: group commit drives it below 1", What: "WAL appends the daemon counted per acknowledged write, timed phases"},

	{Name: "facade.search_us", Unit: "us", Better: "lower", Moves: "every read workload, equally", What: "Index.SearchInto (refine: the filter stage alone)"},
	{Name: "facade.self_us", Unit: "us", Better: "lower", Moves: "as facade.search_us", What: "facade.search_us - segment.total_us"},
	{Name: "facade.refine_us", Unit: "us", Better: "lower", Moves: "p50_ms on refine", What: "Index.SearchInto with Refine set"},
	{Name: "facade.refine_candidates", Unit: "count", Better: "lower", Moves: "p50_ms on refine", What: "candidates re-ranked per refined query"},
	{Name: "facade.insert_us", Unit: "us", Better: "lower", Moves: "p50_ms on ingest-write", What: "online Index.Insert"},
	{Name: "facade.insert_self_us", Unit: "us", Better: "lower", Moves: "as facade.insert_us", What: "facade.insert_us - wal.append_us"},

	{Name: "server.handler_us", Unit: "us", Better: "lower", Moves: "p50_ms, throughput_rps on serve-hot (all of it); the floor under every other workload", What: "the workload's request through server.New(...).Handler() with no network"},
	{Name: "server.self_us", Unit: "us", Better: "lower", Moves: "as server.handler_us", What: "server.handler_us minus the facade call it makes"},
	{Name: "server.insert_handler_us", Unit: "us", Better: "lower", Moves: "p50_ms on ingest-write", What: "POST /v1/insert through the handler with no network"},
	{Name: "server.cache_hit_rate", Unit: "ratio", Better: "higher", Moves: "p50_ms on serve-hot", What: "result-cache hits / lookups, closed phase"},
	{Name: "server.cache_evictions", Unit: "count", Better: "lower", Moves: "p50_ms on serve-hot", What: "result-cache evictions, closed phase"},
	{Name: "server.cache_invalidations", Unit: "count", Better: "lower", Moves: "p50_ms of the reader on ingest-mixed", What: "stale cache entries discarded, timed phases"},
	{Name: "server.coalesced_ratio", Unit: "ratio", Better: "higher", Moves: "throughput_rps on serve-hot", What: "requests that shared another's search / requests, closed phase"},
	{Name: "server.rejected", Unit: "count", Better: "lower", Moves: "success_rate", What: "admission rejections (429 + 503), timed phases"},
	{Name: "server.knn_mean_us", Unit: "us", Better: "lower", Moves: "p50_ms everywhere", What: "the daemon's own mean knn handler time over the closed phase"},
	{Name: "server.knn_p50_us", Unit: "us", Better: "lower", Moves: "p50_ms everywhere", What: "the daemon's knn endpoint histogram p50 since boot (19% buckets)"},
	{Name: "server.filter_p50_us", Unit: "us", Better: "lower", Moves: "p50_ms on serve-cold, refine", What: "the daemon's filter-stage histogram p50 since boot"},
	{Name: "server.refine_p50_us", Unit: "us", Better: "lower", Moves: "p50_ms on refine", What: "the daemon's refine-stage histogram p50 since boot"},

	{Name: "wire.tcp_us", Unit: "us", Better: "lower", Moves: "p50_ms everywhere; twice on cluster", What: "the same handler over loopback TCP, one keep-alive connection"},
	{Name: "wire.self_us", Unit: "us", Better: "lower", Moves: "as wire.tcp_us", What: "wire.tcp_us - server.handler_us"},
	{Name: "wire.insert_tcp_us", Unit: "us", Better: "lower", Moves: "p50_ms on ingest-write", What: "POST /v1/insert over loopback TCP, one keep-alive connection"},
	{Name: "wire.req_bytes", Unit: "B", Better: "lower", Moves: "p50_ms on refine (4 KB bodies)", What: "mean request body, closed phase"},
	{Name: "wire.resp_bytes", Unit: "B", Better: "lower", Moves: "p50_ms, throughput_rps on serve-hot", What: "mean response body, closed phase"},
	{Name: "wire.client_minus_server_us", Unit: "us", Better: "lower", Moves: "p50_ms everywhere", What: "client mean latency - the target daemon's own mean handler time, closed phase"},

	{Name: "cluster.router_handler_us", Unit: "us", Better: "lower", Moves: "p50_ms, throughput_rps on cluster only", What: "the router's handler with no client network, shards over loopback"},
	{Name: "cluster.self_us", Unit: "us", Better: "lower", Moves: "as cluster.router_handler_us", What: "cluster.router_handler_us - wire.tcp_us of one shard"},
	{Name: "cluster.router_tcp_us", Unit: "us", Better: "lower", Moves: "p50_ms on cluster", What: "the router's handler over loopback TCP"},
	{Name: "cluster.shard_requests_per_query", Unit: "ratio", Better: "lower", Moves: "throughput_rps on cluster", What: "shard calls per routed query, closed phase"},
	{Name: "cluster.retries", Unit: "count", Better: "lower", Moves: "p99_ms on cluster", What: "shard-call retries, timed phases"},
	{Name: "cluster.hedges", Unit: "count", Better: "lower", Moves: "p99_ms on cluster", What: "hedged shard calls, timed phases"},
	{Name: "cluster.failovers", Unit: "count", Better: "lower", Moves: "success_rate on cluster", What: "shard calls answered by a non-primary, timed phases"},
	{Name: "cluster.member_p50_us", Unit: "us", Better: "lower", Moves: "p50_ms on cluster", What: "median over members of the router's per-member latency p50"},
	{Name: "cluster.straggler_ratio", Unit: "ratio", Better: "lower", Moves: "p50_ms on cluster: the slowest-of-three cost", What: "router knn p50 / member p50"},

	{Name: "proc.server.cpu_ms_per_req", Unit: "ms", Better: "lower", Moves: "throughput_rps on the same workload: on two cores CPU per request is capacity", What: "blobserved utime+stime per request, closed phase"},
	{Name: "proc.server.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "none gated; shows memory bought for speed", What: "blobserved VmHWM"},
	{Name: "proc.router.cpu_ms_per_req", Unit: "ms", Better: "lower", Moves: "throughput_rps on cluster", What: "blobrouted utime+stime per request, closed phase"},
	{Name: "proc.router.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "none gated", What: "blobrouted VmHWM"},
	{Name: "proc.shards.cpu_ms_per_req", Unit: "ms", Better: "lower", Moves: "throughput_rps on cluster", What: "the three shards' utime+stime per routed request, closed phase"},
	{Name: "proc.shards.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "none gated", What: "the three shards' VmHWM, summed"},
	{Name: "proc.build_s", Unit: "s", Better: "lower", Moves: "none: the go build this run paid, apart from setup_s", What: "go build of the two daemons"},

	{Name: "ingest.write_p50_ms", Unit: "ms", Better: "lower", Moves: "p50_ms on ingest-write", What: "the writer's closed-loop median, whichever view the workload reports"},
	{Name: "ingest.write_p99_ms", Unit: "ms", Better: "lower", Moves: "p99_ms on ingest-write", What: "the writer's closed-loop p99"},
	{Name: "ingest.write_open_p50_ms", Unit: "ms", Better: "lower", Moves: "open_p50_ms on ingest-write", What: "the writer's open-loop median from due time"},
	{Name: "ingest.read_p50_ms", Unit: "ms", Better: "lower", Moves: "p50_ms on ingest-mixed", What: "the reader's closed-loop median"},
	{Name: "ingest.read_open_p50_ms", Unit: "ms", Better: "lower", Moves: "open_p50_ms on ingest-mixed", What: "the reader's open-loop median from due time"},

	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "higher", Moves: "none: below 1 the host was taking the guest's cores, and the timed end-to-end metrics are reported at this share", What: "busy / (busy + stolen) CPU time of the guest over the closed phase, from /proc/stat"},
	{Name: "loadgen.raw_throughput_rps", Unit: "1/s", Better: "higher", Moves: "none: throughput_rps as the clock read it, before the share", What: "successful requests per second of wall time"},
	{Name: "loadgen.raw_p50_ms", Unit: "ms", Better: "lower", Moves: "none: p50_ms as the clock read it", What: "closed-loop median latency, wall time"},
	{Name: "loadgen.raw_p99_ms", Unit: "ms", Better: "lower", Moves: "none: p99_ms as the clock read it", What: "closed-loop p99, wall time"},
	{Name: "loadgen.raw_open_p50_ms", Unit: "ms", Better: "lower", Moves: "none: open_p50_ms as the clock read it", What: "open-loop median from due time, wall time"},
	{Name: "loadgen.raw_setup_s", Unit: "s", Better: "lower", Moves: "none: setup_s as the clock read it", What: "median set-up wall time"},
	{Name: "loadgen.cpu_ms_per_req", Unit: "ms", Better: "lower", Moves: "none: says when a number measured the generator", What: "the benchmark process's own CPU per request, closed phase"},
	{Name: "loadgen.open_lag_p99_ms", Unit: "ms", Better: "lower", Moves: "none", What: "how late open-loop requests left, p99 (loose below 1000 samples)"},
	{Name: "loadgen.open_p99_ms", Unit: "ms", Better: "lower", Moves: "none: diagnostic, not repeatable on a shared box", What: "open-loop p99 from due time (loose below 1000 samples)"},
	{Name: "loadgen.write_open_p99_ms", Unit: "ms", Better: "lower", Moves: "none: diagnostic", What: "open-loop write p99 from due time (loose below 1000 samples)"},
	{Name: "loadgen.span_overhead_ns", Unit: "ns", Better: "lower", Moves: "none: the ladder's own cost per span", What: "recording one empty span"},
	{Name: "loadgen.loadavg_start", Unit: "count", Better: "lower", Moves: "none: says when the neighbours were measured", What: "1-minute load average when the run began"},
}

// scale sizes a run. full is what BENCHMARK.json measures; smoke exercises
// every code path in seconds and is never compared.
type scale struct {
	Name          string
	HotImages     int // serve-hot, refine, cluster corpus
	ColdImages    int // serve-cold corpus
	IngestImages  int // ingest preload
	ColdPool      int // serve-cold -pool, pages
	SidePool      int // refine -side-pool, pages
	HotDistinct   int // serve-hot distinct queries
	SealThreshold int
	Verify        int // responses checked bit for bit before the timed phases
	VerifyRefine  int // the same on refine, where a check costs two 30 ms searches
	RecallQueries int
	SetupReps     int  // set-up repetitions per run; setup_s is their median
	LongReps      int  // the same on serve-cold and refine, the two longest runs
	Strict        bool // enforce the samples-beyond rule
	FixedOps      int  // smoke: requests per phase regardless of -seconds; 0 = scale the table
	LadderQueries int
	LadderRefine  int
	LadderWrites  int
}

var scales = map[string]scale{
	"full": {
		Name: "full", HotImages: 8000, ColdImages: 35000, IngestImages: 1200,
		ColdPool: 256, SidePool: 1024, HotDistinct: 1024, SealThreshold: 500,
		Verify: 64, VerifyRefine: 16, RecallQueries: 32, SetupReps: 3, LongReps: 2, Strict: true,
		LadderQueries: 512, LadderRefine: 96, LadderWrites: 2000,
	},
	"smoke": {
		Name: "smoke", HotImages: 300, ColdImages: 600, IngestImages: 150,
		ColdPool: 8, SidePool: 32, HotDistinct: 64, SealThreshold: 60,
		Verify: 16, VerifyRefine: 4, RecallQueries: 8, SetupReps: 1, LongReps: 1, Strict: false, FixedOps: 200,
		LadderQueries: 48, LadderRefine: 12, LadderWrites: 100,
	},
}

// traffic is one read workload's request counts at refSeconds and its
// fixed open-loop rate, set at roughly a third of the seed's closed-loop
// capacity and never tuned at run time.
type traffic struct {
	Warm     int
	Closed   int
	Open     int
	OpenRate float64
}

var readTraffic = map[string]traffic{
	"serve-hot":  {Warm: 0, Closed: 30000, Open: 3750, OpenRate: 1500},
	"serve-cold": {Warm: 2000, Closed: 20000, Open: 2500, OpenRate: 1000},
	"refine":     {Warm: 48, Closed: 1000, Open: 100, OpenRate: 25}, // the fewest a p99 may be read from; about 19 s
	"cluster":    {Warm: 400, Closed: 3750, Open: 625, OpenRate: 250},
}

// ingestTraffic is the write workloads' phases at refSeconds: A open (one
// writer and one reader, each at OpenRate), B closed (one writer with a
// tenth deletes beside one reader, until ClosedWrites), C saturation (conns
// writers, inserts only; ingest-write only).
var ingestTraffic = struct {
	Warm         int
	OpenOps      int
	OpenRate     float64
	ClosedWrites int
	SatWrites    int
}{Warm: 300, OpenOps: 1250, OpenRate: 500, ClosedWrites: 5000, SatWrites: 6500}
