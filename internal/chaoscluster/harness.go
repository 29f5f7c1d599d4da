package chaoscluster

import (
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"blobindex"
	"blobindex/internal/apiclient"
	"blobindex/internal/cluster"
	"blobindex/internal/wire"
)

// dataset mirrors cmd/datagen's gob format; gob matches struct fields by
// name, so the local declaration decodes datagen's output directly.
type dataset struct {
	Dim     int
	Keys    [][]float64
	RIDs    []int64
	Images  []int32
	NumImgs int
}

// memberSpec is one shard daemon under chaos control.
type memberSpec struct {
	name   string
	shard  int
	online bool
	addr   string // the daemon's real address; the router sees only the proxy
	prox   *proxy
	proc   *proc
	cli    *apiclient.Client // direct, bypassing the proxy
}

// bins holds the compiled binaries under test.
type bins struct {
	blobserved, blobrouted, datagen string
}

// repoRoot locates the module root from this source file's path.
func repoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("chaoscluster: runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file))), nil
}

// buildBinaries compiles the real daemons and datagen into dir — the
// harness is black-box: everything under test runs as a separate process.
func buildBinaries(dir string) (*bins, error) {
	if _, err := exec.LookPath("go"); err != nil {
		return nil, fmt.Errorf("chaoscluster: go toolchain not in PATH: %w", err)
	}
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	b := &bins{
		blobserved: filepath.Join(dir, "blobserved"),
		blobrouted: filepath.Join(dir, "blobrouted"),
		datagen:    filepath.Join(dir, "datagen"),
	}
	for bin, pkg := range map[string]string{
		b.blobserved: "./cmd/blobserved",
		b.blobrouted: "./cmd/blobrouted",
		b.datagen:    "./cmd/datagen",
	} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go build %s: %w\n%s", pkg, err, out)
		}
	}
	return b, nil
}

// freeAddrs reserves n distinct loopback ports and releases them for the
// daemons to bind. The tiny reuse race is acceptable in a harness.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// Run executes the full harness: build, then one seeded run per seed.
func Run(cfg Config) (*Report, error) {
	cfg.fill()
	if cfg.Dir == "" {
		d, err := os.MkdirTemp("", "chaoscluster-")
		if err != nil {
			return nil, err
		}
		cfg.Dir = d
		if !cfg.KeepDirs {
			defer os.RemoveAll(d)
		}
	}
	if cfg.BinDir == "" {
		cfg.BinDir = filepath.Join(cfg.Dir, "bin")
	}
	if err := os.MkdirAll(cfg.BinDir, 0o755); err != nil {
		return nil, err
	}
	cfg.Log("building blobserved, blobrouted, datagen")
	b, err := buildBinaries(cfg.BinDir)
	if err != nil {
		return nil, err
	}
	report := &Report{Images: cfg.Images, Shards: cfg.Shards, K: cfg.K, Pass: true}
	for _, seed := range cfg.Seeds {
		cfg.Log("seed %d: starting run (%d actions minimum)", seed, cfg.Actions)
		rr, dim, fullDim, err := runSeed(cfg, b, seed)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		report.Dim, report.FullDim = dim, fullDim
		report.Runs = append(report.Runs, *rr)
		if !rr.Pass {
			report.Pass = false
		}
		cfg.Log("seed %d: %d actions, %d faults, %d queries verified, %d divergences",
			seed, rr.Actions, len(rr.Faults), rr.QueriesVerified, len(rr.Divergences))
	}
	return report, nil
}

// runState is the per-seed execution state.
type runState struct {
	cfg     Config
	seed    int64
	rr      *RunReport
	oracle  *oracle
	members []*memberSpec
	router  *proc
	qcli    *apiclient.Client // router, retries transient failures
	wcli    *apiclient.Client // router, no retries: a timed-out write must stay ambiguous, not double-apply

	// ambiguous maps rid -> key for writes whose ack was lost; reconciled
	// against the daemon's observable state at the next checkpoint.
	ambiguous map[int64][]float64
	// ackedInserts / ackedDeletes are the settled acknowledged writes: the
	// presence (resp. absence) every checkpoint re-asserts.
	ackedInserts map[int64][]float64
	ackedDeletes map[int64][]float64
	// oracleLive tracks exactly what the executor has applied to the oracle.
	oracleLive map[int64][]float64

	sigTh   []float64
	keys    [][]float64
	scale   float64
	fullDim int

	liveDigest uint64
	openFault  int // index into rr.Faults, -1 when no window is open
}

func runSeed(cfg Config, b *bins, seed int64) (*RunReport, int, int, error) {
	runDir := filepath.Join(cfg.Dir, fmt.Sprintf("run-%d", seed))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, 0, 0, err
	}

	// 1. Generate the corpus and the sharded cluster directory with the real
	// datagen binary: shard 0 a saved pagefile (replicable), shards 1..N-1
	// online WAL-backed directories, per-shard refine sidecars.
	clusterDir := filepath.Join(runDir, "cluster")
	gobPath := filepath.Join(runDir, "dataset.gob")
	dg := exec.Command(b.datagen,
		"-images", fmt.Sprint(cfg.Images),
		"-seed", fmt.Sprint(cfg.CorpusSeed),
		"-o", gobPath,
		"-cluster", clusterDir,
		"-shards", fmt.Sprint(cfg.Shards),
		"-partition", cluster.PartitionHash,
		"-cluster-online", "-cluster-side")
	if out, err := dg.CombinedOutput(); err != nil {
		return nil, 0, 0, fmt.Errorf("datagen: %w\n%s", err, out)
	}
	ds, err := loadDataset(gobPath)
	if err != nil {
		return nil, 0, 0, err
	}
	man, err := cluster.ReadManifest(clusterDir)
	if err != nil {
		return nil, 0, 0, err
	}
	points := make([]blobindex.Point, len(ds.Keys))
	for i, k := range ds.Keys {
		points[i] = blobindex.Point{Key: k, RID: ds.RIDs[i]}
	}

	// 2. The fault-free oracle: per-shard in-process indexes with the same
	// build options and the same sidecars the daemons serve.
	sidecars := make([]string, len(man.Shards))
	for i, s := range man.Shards {
		if s.Sidecar != "" {
			sidecars[i] = filepath.Join(clusterDir, s.Sidecar)
		}
	}
	orc, err := newOracle(man, points, cfg.CorpusSeed, sidecars)
	if err != nil {
		return nil, 0, 0, err
	}
	part, err := cluster.PartitionerFor(man)
	if err != nil {
		return nil, 0, 0, err
	}

	st := &runState{
		cfg:          cfg,
		seed:         seed,
		rr:           &RunReport{Seed: seed, ActionCounts: map[string]int{}, Pass: true},
		oracle:       orc,
		ambiguous:    map[int64][]float64{},
		ackedInserts: map[int64][]float64{},
		ackedDeletes: map[int64][]float64{},
		oracleLive:   map[int64][]float64{},
		keys:         ds.Keys,
		fullDim:      orc.refineDim(),
		openFault:    -1,
	}
	for i, rid := range ds.RIDs {
		st.oracleLive[rid] = ds.Keys[i]
	}
	st.sigTh = sigThresholds(points, man.Dim)

	// 3. Boot the cluster: every member behind its own partition proxy, the
	// router over the proxy addresses.
	if err := st.boot(b, man, clusterDir, runDir); err != nil {
		st.teardown()
		return nil, 0, 0, err
	}
	defer st.teardown()

	// 4. Generate the seeded action sequence.
	rng := rand.New(rand.NewSource(seed))
	st.scale = corpusScale(rng, ds.Keys)
	faultables, faultableOn := []int{0}, []bool{false} // s0-primary; the replica is never faulted
	for i, m := range st.members {
		if m.online {
			faultables = append(faultables, i)
			faultableOn = append(faultableOn, true)
		}
	}
	onlineShard := make([]bool, len(man.Shards))
	for i, s := range man.Shards {
		onlineShard[i] = s.Online
	}
	actions := genActions(rng, &genEnv{
		dim:     man.Dim,
		fullDim: st.fullDim,
		keys:    ds.Keys,
		rids:    ds.RIDs,
		scale:   st.scale,
		// Hash partitioning owns by RID alone, which is what lets the
		// generator draw write targets before the keys exist.
		owner:          func(rid int64) int { return part.Owner(nil, rid) },
		onlineShard:    onlineShard,
		faultables:     faultables,
		faultableIsOn:  faultableOn,
		k:              cfg.K,
		actions:        cfg.Actions,
		firstInsertRID: int64(len(points)),
	})
	st.rr.Actions = len(actions)

	// 5. Drive it.
	for _, a := range actions {
		st.rr.ActionCounts[a.Kind.String()]++
		if err := st.step(a); err != nil {
			return nil, 0, 0, fmt.Errorf("action %d (%s): %w", a.Index, a.Kind, err)
		}
	}
	// Final checkpoint: everything healed, everything converged.
	if err := st.checkpoint(len(actions) - 1); err != nil {
		return nil, 0, 0, err
	}

	st.rr.LiveDigest = fmt.Sprintf("%016x", st.liveDigest)
	st.rr.Pass = len(st.rr.Divergences) == 0 && len(st.rr.AckedLost) == 0
	return st.rr, man.Dim, st.fullDim, nil
}

func loadDataset(path string) (*dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ds dataset
	if err := gob.NewDecoder(f).Decode(&ds); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &ds, nil
}

// boot starts one blobserved per member (shard 0 primary + replica on the
// same pagefile, one online daemon per remaining shard), a partition proxy
// in front of each, and the router over the proxy addresses.
func (st *runState) boot(b *bins, man *cluster.Manifest, clusterDir, runDir string) error {
	nMembers := len(man.Shards) + 1
	addrs, err := freeAddrs(nMembers + 1)
	if err != nil {
		return err
	}
	routerAddr := addrs[nMembers]

	spec := func(name string, shard int, addr string) (*memberSpec, error) {
		s := man.Shards[shard]
		args := []string{"-addr", addr, "-pid-file", filepath.Join(runDir, name+".pid")}
		if s.Online {
			args = append(args, "-online", filepath.Join(clusterDir, s.Pagefile), "-seal-threshold", "64")
		} else {
			args = append(args, "-index", filepath.Join(clusterDir, s.Pagefile))
		}
		if s.Sidecar != "" {
			args = append(args, "-side", filepath.Join(clusterDir, s.Sidecar))
		}
		p, err := startProc(name, b.blobserved, args, filepath.Join(runDir, name+".log"))
		if err != nil {
			return nil, err
		}
		prox, err := newProxy(addr)
		if err != nil {
			p.destroy()
			return nil, err
		}
		return &memberSpec{
			name: name, shard: shard, online: s.Online, addr: addr,
			prox: prox, proc: p,
			cli: apiclient.New(addr, apiclient.Options{RequestTimeout: 2 * time.Second}),
		}, nil
	}

	// Member table order: s0-primary, s0-replica, then one per online shard.
	m0, err := spec("s0-primary", 0, addrs[0])
	if err != nil {
		return err
	}
	st.members = append(st.members, m0)
	m0r, err := spec("s0-replica", 0, addrs[1])
	if err != nil {
		return err
	}
	st.members = append(st.members, m0r)
	for shard := 1; shard < len(man.Shards); shard++ {
		m, err := spec(fmt.Sprintf("s%d", shard), shard, addrs[shard+1])
		if err != nil {
			return err
		}
		st.members = append(st.members, m)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, m := range st.members {
		if err := m.cli.WaitHealthy(ctx); err != nil {
			return fmt.Errorf("%s never became healthy: %w", m.name, err)
		}
	}

	// The router's member map points at the proxies, so a proxy mode flip is
	// a real router↔shard partition.
	groups := make([]string, len(man.Shards))
	groups[0] = st.members[0].prox.addr() + "," + st.members[1].prox.addr()
	for _, m := range st.members[2:] {
		groups[m.shard] = m.prox.addr()
	}
	st.router, err = startProc("router", b.blobrouted, []string{
		"-manifest", clusterDir,
		"-members", strings.Join(groups, ";"),
		"-addr", routerAddr,
		"-shard-timeout", "250ms",
		"-health-interval", "200ms",
		"-retries", "1",
		"-pid-file", filepath.Join(runDir, "router.pid"),
	}, filepath.Join(runDir, "router.log"))
	if err != nil {
		return err
	}
	st.qcli = apiclient.New(routerAddr, apiclient.Options{
		RequestTimeout: 2 * time.Second, MaxRetries: 2, RetryWait: 50 * time.Millisecond,
	})
	st.wcli = apiclient.New(routerAddr, apiclient.Options{RequestTimeout: 2 * time.Second})
	if err := st.qcli.WaitReady(ctx); err != nil {
		return fmt.Errorf("router never became ready: %w", err)
	}
	return nil
}

func (st *runState) teardown() {
	if st.router != nil {
		st.router.destroy()
	}
	for _, m := range st.members {
		if m.proc != nil {
			m.proc.destroy()
		}
		if m.prox != nil {
			m.prox.close()
		}
	}
}

// divergef records an oracle disagreement addressed by (seed, action index).
func (st *runState) divergef(actionIdx int, kind, format string, args ...any) {
	st.rr.Divergences = append(st.rr.Divergences, Divergence{
		Seed: st.seed, ActionIndex: actionIdx, Kind: kind,
		Detail: fmt.Sprintf(format, args...),
	})
	st.cfg.Log("seed %d action %d: DIVERGENCE (%s): %s", st.seed, actionIdx, kind,
		fmt.Sprintf(format, args...))
}

func (st *runState) ctx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 15*time.Second)
}

// step executes one action against the live cluster (and the oracle).
func (st *runState) step(a action) error {
	ctx, cancel := st.ctx()
	defer cancel()
	switch a.Kind {
	case actKNN:
		got, gerr := st.qcli.KNN(ctx, wire.KNNRequest{Query: a.Query, K: a.K})
		st.verifyQuery(a, respNeighbors(got), gerr, func() ([]wire.Neighbor, error) {
			return st.oracle.knn(ctx, a.Query, a.K)
		})
	case actRange:
		got, gerr := st.qcli.Range(ctx, wire.RangeRequest{Query: a.Query, Radius: a.Radius})
		st.verifyQuery(a, respNeighbors(got), gerr, func() ([]wire.Neighbor, error) {
			return st.oracle.rangeQuery(ctx, a.Query, a.Radius)
		})
	case actRefine:
		got, gerr := st.qcli.KNN(ctx, wire.KNNRequest{
			Query: a.Query, K: a.K, Refine: true, Multiplier: a.Multiplier,
		})
		st.verifyQuery(a, respNeighbors(got), gerr, func() ([]wire.Neighbor, error) {
			return st.oracle.refine(ctx, a.Query, a.K, a.Multiplier)
		})
	case actSig:
		// Signature-filtered k-NN: oversample through the router with keys,
		// then both sides run the identical Hamming post-filter.
		over := 4 * a.K
		qsig := signature(a.Query, st.sigTh)
		got, gerr := st.qcli.KNN(ctx, wire.KNNRequest{Query: a.Query, K: over, IncludeKeys: true})
		var filtered []wire.Neighbor
		if gerr == nil {
			filtered = sigFilter(got.Neighbors, qsig, st.sigTh, a.HammingT, a.K)
		}
		st.verifyQuery(a, filtered, gerr, func() ([]wire.Neighbor, error) {
			res, err := st.oracle.knn(ctx, a.Query, over)
			if err != nil {
				return nil, err
			}
			return sigFilter(res, qsig, st.sigTh, a.HammingT, a.K), nil
		})
	case actInsert:
		st.stepInsert(ctx, a)
	case actDelete:
		st.stepDelete(ctx, a)
	case actCompact:
		// On-demand seal+compact on one online daemon, directly (the router
		// has no maintenance plane). Failure is fine mid-window.
		st.members[a.Target].cli.Compact(ctx)
	case actRestart:
		return st.stepRestart(a)
	case actKill9, actStall, actPartition:
		return st.openFaultWindow(a)
	case actHeal:
		return st.heal(a)
	}
	return nil
}

func respNeighbors(resp *wire.SearchResponse) []wire.Neighbor {
	if resp == nil {
		return nil
	}
	return resp.Neighbors
}

// verifyQuery applies the oracle discipline to one served query: transient
// daemon failures are inconclusive (that is what fault windows do);
// definitive failures must be failures on the oracle too; successes must be
// byte-identical — unless an ambiguous write is pending, in which case the
// comparison waits for the next checkpoint.
func (st *runState) verifyQuery(a action, got []wire.Neighbor, gerr error, want func() ([]wire.Neighbor, error)) {
	if gerr != nil {
		if transientErr(gerr) {
			st.rr.QueriesInconclusive++
			return
		}
		if _, werr := want(); werr != nil {
			st.rr.ErrorsConsistent++
			return
		}
		st.divergef(a.Index, "error-mismatch", "%s failed definitively (%v) but the oracle succeeds", a.Kind, gerr)
		return
	}
	w, werr := want()
	if werr != nil {
		st.divergef(a.Index, "error-mismatch", "%s succeeded but the oracle fails: %v", a.Kind, werr)
		return
	}
	if len(st.ambiguous) > 0 {
		st.rr.QueriesUnverified++
		return
	}
	if ok, detail := sameBits(got, w); !ok {
		st.divergef(a.Index, "result-divergence", "%s: %s", a.Kind, detail)
		return
	}
	st.rr.QueriesVerified++
	h := fnv.New64a()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], st.liveDigest)
	binary.LittleEndian.PutUint64(buf[8:], resultDigest(got))
	h.Write(buf[:])
	st.liveDigest = h.Sum64()
}

func (st *runState) stepInsert(ctx context.Context, a action) {
	resp, err := st.wcli.Insert(ctx, wire.WriteRequest{Key: a.Key, RID: a.RID})
	if err != nil {
		if transientErr(err) {
			st.ambiguous[a.RID] = a.Key
			st.rr.WritesUnsettled++
			return
		}
		st.divergef(a.Index, "write-rejected", "insert rid %d rejected definitively: %v", a.RID, err)
		return
	}
	if !resp.OK {
		st.divergef(a.Index, "write-rejected", "insert rid %d: ok=false", a.RID)
		return
	}
	st.rr.WritesAcked++
	delete(st.ambiguous, a.RID)
	st.ackedInserts[a.RID] = a.Key
	delete(st.ackedDeletes, a.RID)
	if err := st.oracle.insert(a.RID, a.Key); err != nil {
		st.divergef(a.Index, "oracle-write", "oracle insert rid %d: %v", a.RID, err)
		return
	}
	st.oracleLive[a.RID] = a.Key
}

func (st *runState) stepDelete(ctx context.Context, a action) {
	resp, err := st.wcli.Delete(ctx, wire.WriteRequest{Key: a.Key, RID: a.RID})
	if err != nil {
		if transientErr(err) {
			st.ambiguous[a.RID] = a.Key
			st.rr.WritesUnsettled++
			return
		}
		st.divergef(a.Index, "write-rejected", "delete rid %d rejected definitively: %v", a.RID, err)
		return
	}
	st.rr.WritesAcked++
	_, wasLive := st.oracleLive[a.RID]
	_, amb := st.ambiguous[a.RID]
	if !amb && wasLive != resp.Existed {
		st.divergef(a.Index, "delete-existed-mismatch",
			"delete rid %d: daemon existed=%v, oracle live=%v", a.RID, resp.Existed, wasLive)
	}
	delete(st.ambiguous, a.RID)
	if wasLive {
		if err := st.oracle.delete(a.RID, st.oracleLive[a.RID]); err != nil {
			st.divergef(a.Index, "oracle-write", "oracle delete rid %d: %v", a.RID, err)
			return
		}
		delete(st.oracleLive, a.RID)
	}
	if resp.Existed {
		st.ackedDeletes[a.RID] = a.Key
	}
	delete(st.ackedInserts, a.RID)
}

// stepRestart is the graceful restart-rejoin: SIGTERM, relaunch, wait for
// the member and then the router to settle, then a checkpoint proves the
// rejoined cluster still converges.
func (st *runState) stepRestart(a action) error {
	m := st.members[a.Target]
	st.cfg.Log("seed %d action %d: graceful restart of %s", st.seed, a.Index, m.name)
	if err := m.proc.stop(10 * time.Second); err != nil {
		return fmt.Errorf("restart %s: %w", m.name, err)
	}
	if err := m.proc.restart(); err != nil {
		return fmt.Errorf("restart %s: %w", m.name, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.cli.WaitHealthy(ctx); err != nil {
		return fmt.Errorf("restart %s: never rejoined: %w", m.name, err)
	}
	st.rr.Restarts++
	return st.checkpoint(a.Index)
}

// openFaultWindow injects one real fault. kill -9 on an online member is
// lined up mid-save: an async compact gets the daemon into its save path,
// then a seeded few milliseconds later SIGKILL lands.
func (st *runState) openFaultWindow(a action) error {
	m := st.members[a.Target]
	st.rr.Faults = append(st.rr.Faults, FaultRecord{
		Kind: a.Kind.String(), Target: m.name, OpenAction: a.Index, SaveDelayMs: a.SaveDelayMs,
	})
	st.openFault = len(st.rr.Faults) - 1
	st.cfg.Log("seed %d action %d: fault %s on %s", st.seed, a.Index, a.Kind, m.name)
	switch a.Kind {
	case actKill9:
		if m.online {
			go func() {
				cctx, ccancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer ccancel()
				m.cli.Compact(cctx)
			}()
			time.Sleep(time.Duration(a.SaveDelayMs) * time.Millisecond)
		}
		return m.proc.kill9()
	case actStall:
		// Freeze the process AND drop its traffic at the proxy. SIGSTOP alone
		// is not enough for a sound oracle: the frozen daemon's kernel keeps
		// ACKing request bytes into the socket buffer, and on SIGCONT the
		// daemon reads and applies them — a write the checkpoint already
		// resolved as "never landed" (the probe ran first) materialises
		// afterwards, a zombie the oracle cannot predict without idempotent
		// writes in the API. Blackholing the proxy bounds delivery: nothing
		// sent during the window ever reaches the daemon's socket, so the
		// post-heal probe's verdict is final. (No harness write is ever
		// mid-handler at open time — the action loop is sequential.)
		m.prox.setMode(modeBlackhole)
		return m.proc.signal(syscall.SIGSTOP)
	case actPartition:
		m.prox.setMode(modeBlackhole)
		return nil
	}
	return nil
}

// heal closes the open fault window and runs the convergence checkpoint.
func (st *runState) heal(a action) error {
	if st.openFault < 0 {
		return st.checkpoint(a.Index)
	}
	rec := &st.rr.Faults[st.openFault]
	rec.HealAction = a.Index
	var m *memberSpec
	for _, cand := range st.members {
		if cand.name == rec.Target {
			m = cand
		}
	}
	st.cfg.Log("seed %d action %d: heal %s on %s", st.seed, a.Index, rec.Kind, m.name)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	switch rec.Kind {
	case actKill9.String():
		if err := m.proc.restart(); err != nil {
			return fmt.Errorf("heal %s: %w", m.name, err)
		}
		if err := m.cli.WaitHealthy(ctx); err != nil {
			return fmt.Errorf("heal %s: %w", m.name, err)
		}
	case actStall.String():
		m.prox.setMode(modeForward)
		if err := m.proc.signal(syscall.SIGCONT); err != nil {
			return fmt.Errorf("heal %s: %w", m.name, err)
		}
	case actPartition.String():
		m.prox.setMode(modeForward)
	}
	st.openFault = -1
	return st.checkpoint(a.Index)
}

// probePresent asks the cluster whether rid is present, by a tiny-radius
// range query at its exact coordinates — dist 0 always qualifies.
func (st *runState) probePresent(ctx context.Context, rid int64, key []float64) (bool, error) {
	resp, err := st.qcli.Range(ctx, wire.RangeRequest{Query: key, Radius: 1e-9})
	if err != nil {
		return false, err
	}
	for _, n := range resp.Neighbors {
		if n.RID == rid {
			return true, nil
		}
	}
	return false, nil
}

// checkpoint is the convergence oracle: once the cluster is whole again it
// (1) reconciles every ambiguous write against the daemon's observable
// state, (2) re-asserts every acknowledged insert present and every
// acknowledged delete absent, and (3) replays a deterministic query battery
// that must be byte-identical to the fault-free oracle.
func (st *runState) checkpoint(afterAction int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := st.qcli.WaitReady(ctx); err != nil {
		return fmt.Errorf("checkpoint after action %d: router never became ready: %w", afterAction, err)
	}
	ck := CheckpointReport{AfterAction: afterAction}

	// (1) Ambiguous writes: the ack was lost, so either outcome is legal —
	// but the oracle must match what the daemons actually did.
	for rid, key := range st.ambiguous {
		present, err := st.probePresent(ctx, rid, key)
		if err != nil {
			return fmt.Errorf("checkpoint after action %d: probe rid %d: %w", afterAction, rid, err)
		}
		ck.Resolved++
		_, live := st.oracleLive[rid]
		if present {
			ck.AppliedOnDaemon++
			if !live {
				if err := st.oracle.insert(rid, key); err != nil {
					return fmt.Errorf("checkpoint: oracle insert rid %d: %w", rid, err)
				}
				st.oracleLive[rid] = key
			}
			st.ackedInserts[rid] = key
			delete(st.ackedDeletes, rid)
		} else {
			if live {
				if _, err := st.probeDelete(rid); err != nil {
					return err
				}
			}
			delete(st.ackedInserts, rid)
		}
		delete(st.ambiguous, rid)
	}

	// (2) Every settled acknowledged write, re-probed.
	for rid, key := range st.ackedInserts {
		present, err := st.probePresent(ctx, rid, key)
		if err != nil {
			return fmt.Errorf("checkpoint after action %d: probe rid %d: %w", afterAction, rid, err)
		}
		ck.AckedProbed++
		if !present {
			st.rr.AckedLost = append(st.rr.AckedLost,
				fmt.Sprintf("insert rid %d acknowledged but missing at checkpoint after action %d", rid, afterAction))
		}
	}
	for rid, key := range st.ackedDeletes {
		present, err := st.probePresent(ctx, rid, key)
		if err != nil {
			return fmt.Errorf("checkpoint after action %d: probe rid %d: %w", afterAction, rid, err)
		}
		ck.AckedProbed++
		if present {
			st.rr.AckedLost = append(st.rr.AckedLost,
				fmt.Sprintf("delete rid %d acknowledged but the point resurfaced at checkpoint after action %d", rid, afterAction))
		}
	}

	// (3) The battery: deterministic from (seed, checkpoint ordinal), strict
	// byte-identity — no ambiguity is left to hide behind.
	ordinal := len(st.rr.Checkpoints)
	brng := rand.New(rand.NewSource(st.seed*1_000_003 + int64(ordinal)))
	digest := fnv.New64a()
	for i := 0; i < 12; i++ {
		base := st.keys[brng.Intn(len(st.keys))]
		q := make([]float64, len(base))
		for d := range q {
			q[d] = base[d] + (brng.Float64()-0.5)*0.2*st.scale
		}
		var (
			got  []wire.Neighbor
			gerr error
			want []wire.Neighbor
			werr error
			kind string
		)
		switch i % 4 {
		case 0:
			k := 1 + brng.Intn(3*st.cfg.K)
			kind = "knn"
			resp, err := st.qcli.KNN(ctx, wire.KNNRequest{Query: q, K: k})
			got, gerr = respNeighbors(resp), err
			want, werr = st.oracle.knn(ctx, q, k)
		case 1:
			r := st.scale * (0.1 + 0.3*brng.Float64())
			kind = "range"
			resp, err := st.qcli.Range(ctx, wire.RangeRequest{Query: q, Radius: r})
			got, gerr = respNeighbors(resp), err
			want, werr = st.oracle.rangeQuery(ctx, q, r)
		case 2:
			fq := make([]float64, st.fullDim)
			for d := range fq {
				fq[d] = brng.NormFloat64()
			}
			mult := 2 + brng.Intn(4)
			kind = "refine"
			resp, err := st.qcli.KNN(ctx, wire.KNNRequest{Query: fq, K: st.cfg.K, Refine: true, Multiplier: mult})
			got, gerr = respNeighbors(resp), err
			want, werr = st.oracle.refine(ctx, fq, st.cfg.K, mult)
		default:
			over, t := 4*st.cfg.K, 1+brng.Intn(len(st.sigTh))
			qsig := signature(q, st.sigTh)
			kind = "sig"
			resp, err := st.qcli.KNN(ctx, wire.KNNRequest{Query: q, K: over, IncludeKeys: true})
			gerr = err
			if err == nil {
				got = sigFilter(resp.Neighbors, qsig, st.sigTh, t, st.cfg.K)
			}
			want, werr = st.oracle.knn(ctx, q, over)
			if werr == nil {
				want = sigFilter(want, qsig, st.sigTh, t, st.cfg.K)
			}
		}
		switch {
		case gerr != nil && werr != nil:
			// Consistent definitive failure (a refined query over a freshly
			// inserted, sidecar-less candidate fails identically on both sides).
			st.rr.ErrorsConsistent++
		case gerr != nil:
			st.divergef(afterAction, "checkpoint-query-failed",
				"battery %s query %d failed on a healed cluster: %v", kind, i, gerr)
		case werr != nil:
			st.divergef(afterAction, "error-mismatch",
				"battery %s query %d succeeded but the oracle fails: %v", kind, i, werr)
		default:
			if ok, detail := sameBits(got, want); !ok {
				st.divergef(afterAction, "result-divergence", "battery %s query %d: %s", kind, i, detail)
				continue
			}
			ck.BatteryVerified++
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], resultDigest(got))
			digest.Write(buf[:])
		}
	}
	ck.Digest = fmt.Sprintf("%016x", digest.Sum64())
	st.rr.Checkpoints = append(st.rr.Checkpoints, ck)
	st.cfg.Log("seed %d: checkpoint after action %d: %d resolved, %d acked probed, %d battery verified, digest %s",
		st.seed, afterAction, ck.Resolved, ck.AckedProbed, ck.BatteryVerified, ck.Digest)
	return nil
}

// probeDelete reconciles the oracle when an ambiguous write's rid turned
// out absent on the daemons but live on the oracle.
func (st *runState) probeDelete(rid int64) (bool, error) {
	key := st.oracleLive[rid]
	if err := st.oracle.delete(rid, key); err != nil {
		return false, fmt.Errorf("oracle reconcile delete rid %d: %w", rid, err)
	}
	delete(st.oracleLive, rid)
	return true, nil
}
