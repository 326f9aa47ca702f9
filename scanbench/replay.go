package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"knighter/internal/api"
	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/engine"
	"knighter/internal/minic"
	"knighter/internal/obs"
	"knighter/internal/scan"
	"knighter/internal/store"
)

// The traced run replays a workload's op sequence in this process,
// through the same public functions kserve's handlers call, with the
// same store stack kserve builds for that workload. Every timer lives in
// this file: spans around each layer call, and decorators around each
// store tier. A first pass runs with the timers off (it also reads the
// allocation counters between ops); a second pass replays exactly the
// same ops with the timers on. Their wall-time ratio is the tracing
// overhead.

// keepLeafOps is how many ops keep their per-call store and engine
// spans in the span dump; every op keeps its top-level layer spans.
const keepLeafOps = 4

type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tierStat counts one store tier's calls; times are busy time summed
// over the scan's workers.
type tierStat struct {
	gets, hits, getNS, puts, putNS atomic.Int64
}

// tracer holds the timers of one replay pass.
type tracer struct {
	on   bool
	base time.Time

	op atomic.Int64 // id of the op being replayed
	// outer holds the current op's outermost store-call intervals. The
	// scan's workers claim slots through nOuter, so they record without
	// taking a lock; beginOp sizes it for every call the op can make.
	outer  [][2]int64
	nOuter atomic.Int64
	mu     sync.Mutex
	spans  []span

	tiers                       map[string]*tierStat
	computes, computeNS, shared atomic.Int64
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, base: time.Now(), tiers: map[string]*tierStat{}}
	for _, n := range []string{"memory", "hedged", "disk", "remote", "kcached"} {
		t.tiers[n] = &tierStat{}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// leaf records one store or engine call of the current op.
func (t *tracer) leaf(name, parent string, start, end int64, outer bool) {
	if outer {
		if i := t.nOuter.Add(1) - 1; i < int64(len(t.outer)) {
			t.outer[i] = [2]int64{start, end}
		}
	}
	if op := t.op.Load(); op < keepLeafOps {
		t.mu.Lock()
		t.spans = append(t.spans, span{Op: int(op), Name: name, Parent: parent, Start: start, End: end})
		t.mu.Unlock()
	}
}

// beginOp starts op n, which makes at most calls outermost store calls.
func (t *tracer) beginOp(n, calls int) {
	t.op.Store(int64(n))
	if calls > len(t.outer) {
		t.outer = make([][2]int64, calls)
	}
	t.nOuter.Store(0)
}

// outerIntervals returns the op's recorded intervals, or an error if
// the op made more calls than beginOp allowed for.
func (t *tracer) outerIntervals() ([][2]int64, error) {
	n := t.nOuter.Load()
	if n > int64(len(t.outer)) {
		return nil, fmt.Errorf("op made %d outermost store calls, more than the %d allowed for", n, len(t.outer))
	}
	return t.outer[:n], nil
}

// timedTier decorates one store tier with call timers.
type timedTier struct {
	st     store.Store
	tr     *tracer
	s      *tierStat
	name   string
	parent string
}

func (d *timedTier) Get(ctx context.Context, k store.Key) (*engine.Result, bool) {
	if !d.tr.on {
		return d.st.Get(ctx, k)
	}
	t0 := d.tr.now()
	r, ok := d.st.Get(ctx, k)
	t1 := d.tr.now()
	d.s.gets.Add(1)
	if ok {
		d.s.hits.Add(1)
	}
	d.s.getNS.Add(t1 - t0)
	d.tr.leaf(d.name+".get", d.parent, t0, t1, false)
	return r, ok
}

func (d *timedTier) Put(ctx context.Context, k store.Key, r *engine.Result) {
	if !d.tr.on {
		d.st.Put(ctx, k, r)
		return
	}
	t0 := d.tr.now()
	d.st.Put(ctx, k, r)
	t1 := d.tr.now()
	d.s.puts.Add(1)
	d.s.putNS.Add(t1 - t0)
	d.tr.leaf(d.name+".put", d.parent, t0, t1, false)
}

func (d *timedTier) Stats() store.Stats { return d.st.Stats() }

func (d *timedTier) InvalidateFuncs(hashes []string) int {
	switch inv := d.st.(type) {
	case store.BulkInvalidator:
		return inv.InvalidateFuncs(hashes)
	case store.Invalidator:
		n := 0
		for _, h := range hashes {
			n += inv.InvalidateFunc(h)
		}
		return n
	}
	return 0
}

func (d *timedTier) InvalidateFunc(hash string) int { return d.InvalidateFuncs([]string{hash}) }

// timedTop decorates the top of the stack (the coalesced tier): its
// calls are the scan's store intervals, and the compute closure it is
// handed is the engine.
type timedTop struct {
	timedTier
	co store.ComputeCoalescer
}

func (d *timedTop) Get(ctx context.Context, k store.Key) (*engine.Result, bool) {
	if !d.tr.on {
		return d.st.Get(ctx, k)
	}
	t0 := d.tr.now()
	r, ok := d.st.Get(ctx, k)
	d.tr.leaf("store.coalesced.get", "scan.run", t0, d.tr.now(), true)
	return r, ok
}

func (d *timedTop) Put(ctx context.Context, k store.Key, r *engine.Result) {
	if !d.tr.on {
		d.st.Put(ctx, k, r)
		return
	}
	t0 := d.tr.now()
	d.st.Put(ctx, k, r)
	d.tr.leaf("store.coalesced.put", "scan.run", t0, d.tr.now(), true)
}

func (d *timedTop) GetOrCompute(ctx context.Context, k store.Key, compute func() (*engine.Result, bool)) (*engine.Result, bool) {
	if !d.tr.on {
		return d.co.GetOrCompute(ctx, k, compute)
	}
	timed := func() (*engine.Result, bool) {
		e0 := d.tr.now()
		r, ok := compute()
		e1 := d.tr.now()
		d.tr.computes.Add(1)
		d.tr.computeNS.Add(e1 - e0)
		d.tr.leaf("engine.analyze", "store.coalesced.get_or_compute", e0, e1, false)
		return r, ok
	}
	t0 := d.tr.now()
	r, shared := d.co.GetOrCompute(ctx, k, timed)
	if shared {
		d.tr.shared.Add(1)
	}
	d.tr.leaf("store.coalesced.get_or_compute", "scan.run", t0, d.tr.now(), true)
	return r, shared
}

func (t *tracer) tier(name, parent string, st store.Store) *timedTier {
	return &timedTier{st: st, tr: t, s: t.tiers[name], name: "store." + name, parent: parent}
}

// stageHist mirrors kserve's stage observer, so the replayed scheduler
// takes the same timed path it takes in the daemon.
type stageHist struct{ h *obs.HistogramVec }

func (s stageHist) ObserveStage(stage string, d time.Duration) { s.h.With(stage).Observe(d.Seconds()) }

// fleet is the fleet-warm replay's shared side: an in-process kcached
// (store.CacheServer over memory and a segment disk) that replica A
// filled in setup.
type fleet struct {
	url  string
	srv  *http.Server
	disk *store.SegmentDisk
	dir  string
}

// replayer runs the traced passes of one workload.
type replayer struct {
	ctx      context.Context
	p        *procs
	workload string
	seed     int64
	pool     []poolChecker
	refs     map[int]string
	cb       *scan.Codebase // shared read-only corpus (all but commit-rescan)
	fleet    *fleet
	kcTracer atomic.Pointer[tracer]
}

// stack builds kserve's default store composition for the workload:
// memory [→ hedged(remote, segment disk)] → coalesced, each tier under
// a benchmark decorator. It returns the store and a cleanup.
func (r *replayer) stack(t *tracer) (store.Store, func() error, error) {
	reg := obs.NewRegistry("kserve")
	var st store.Store = t.tier("memory", "store.coalesced", store.Instrument(reg, "memory", store.NewMemory(0)).SampleLatency(4))
	cleanup := func() error { return nil }
	if r.fleet != nil {
		remote, err := store.NewRemote(r.fleet.url, store.RemoteConfig{Timeout: 2 * time.Second})
		if err != nil {
			return nil, nil, err
		}
		dir, err := r.p.tempDir("replay-B")
		if err != nil {
			return nil, nil, err
		}
		disk, err := store.NewSegmentDisk(dir)
		if err != nil {
			return nil, nil, err
		}
		hedged := store.NewHedged(
			t.tier("remote", "store.hedged", store.Instrument(reg, "remote", remote)),
			t.tier("disk", "store.hedged", store.Instrument(reg, "disk", disk)))
		st = store.NewTiered(st, t.tier("hedged", "store.coalesced", store.Instrument(reg, "hedged", hedged)))
		cleanup = func() error {
			return errors.Join(disk.Close(), r.p.removeDir(dir))
		}
	}
	co := store.Instrument(reg, "coalesced", store.NewCoalesced(st)).SampleLatency(4)
	return &timedTop{timedTier: timedTier{st: co, tr: t}, co: co}, cleanup, nil
}

func (r *replayer) newIncremental(cb *scan.Codebase, st store.Store) *scan.Incremental {
	inc := scan.NewIncremental(cb, st)
	reg := obs.NewRegistry("kserve")
	inc.SetStageObserver(stageHist{reg.HistogramVec("scan_stage_duration_seconds", "", nil, "stage")})
	return inc
}

// startFleet boots the in-process kcached and has replica A publish the
// fleet set through a memory → remote stack, like kserve -cache-remote.
func (r *replayer) startFleet() error {
	dir, err := r.p.tempDir("replay-kcached")
	if err != nil {
		return err
	}
	disk, err := store.NewSegmentDisk(dir)
	if err != nil {
		return err
	}
	f := &fleet{disk: disk, dir: dir}
	r.fleet = f
	kreg := obs.NewRegistry("kcached")
	backing := store.NewTiered(
		store.Instrument(kreg, "memory", store.NewMemory(store.DefaultMemoryBytes)).SampleLatency(4),
		store.Instrument(kreg, "disk", disk))
	// kcached.get_us times the backing-store Get inside the server; the
	// server outlives a pass, so the decorator follows the current one.
	// Unlike the daemon, the in-process server keeps no access log or
	// trace store.
	cs := store.NewCacheServer(kcachedTier{st: backing, tr: &r.kcTracer})
	cs.Register(kreg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.url = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: cs.Handler()}
	go func() { _ = f.srv.Serve(ln) }() // returns ErrServerClosed at stopFleet

	remote, err := store.NewRemote(f.url, store.RemoteConfig{Timeout: 2 * time.Second})
	if err != nil {
		return err
	}
	a := r.newIncremental(r.cb, store.NewCoalesced(store.NewTiered(store.NewMemory(0), remote)))
	for _, pi := range choices("fleet-warm", len(r.pool)) {
		ck, err := ckdsl.CompileSource(r.pool[pi].src)
		if err != nil {
			return err
		}
		a.RunOne(ck, scan.Options{})
	}
	return nil
}

func (r *replayer) stopFleet() error {
	f := r.fleet
	if f == nil {
		return nil
	}
	var err error
	if f.srv != nil {
		err = f.srv.Close()
	}
	return errors.Join(err, f.disk.Close(), r.p.removeDir(f.dir))
}

// kcachedTier times kcached's backing-store calls for whichever pass is
// running. The cache server is built once and shared by both passes.
type kcachedTier struct {
	st store.Store
	tr *atomic.Pointer[tracer]
}

func (k kcachedTier) Get(ctx context.Context, key store.Key) (*engine.Result, bool) {
	t := k.tr.Load()
	if t == nil || !t.on {
		return k.st.Get(ctx, key)
	}
	t0 := t.now()
	r, ok := k.st.Get(ctx, key)
	t1 := t.now()
	s := t.tiers["kcached"]
	s.gets.Add(1)
	if ok {
		s.hits.Add(1)
	}
	s.getNS.Add(t1 - t0)
	t.leaf("kcached.get", "store.remote", t0, t1, false)
	return r, ok
}

func (k kcachedTier) Put(ctx context.Context, key store.Key, r *engine.Result) {
	k.st.Put(ctx, key, r)
}

func (k kcachedTier) Stats() store.Stats { return k.st.Stats() }

// opStats is what one replayed op yields.
type opStats struct {
	wall, covered int64
	layers        map[string]int64 // top-level span name -> summed ns
	selfNS        int64            // scan.run minus its store/engine intervals
	respBytes     int
	staleHashes   int
	parseNS       []int64 // minic.ParseFile per change source
	allocs, bytes uint64  // untraced pass only
	// verify checks the op's reply against the oracle, after the op's
	// window closed.
	verify func() bool
}

// passResult aggregates one pass.
type passResult struct {
	ops   []opStats
	gcNS  float64
	tr    *tracer
	wrong int
}

// run times fn as a top-level span of the current op.
func (t *tracer) run(st *opStats, name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	t0 := t.now()
	fn()
	t1 := t.now()
	st.covered += t1 - t0
	st.layers[name] += t1 - t0
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: int(t.op.Load()), Name: name, Parent: "op", Start: t0, End: t1})
	t.mu.Unlock()
}

// scanOp replays one /scan: decode, compile, pin, run, convert+encode.
func (r *replayer) scanOp(t *tracer, inc *scan.Incremental, body []byte, o op, st *opStats) error {
	var req api.ScanRequest
	var ck *ckdsl.Compiled
	var err error
	t.run(st, "api.decode", func() { err = json.NewDecoder(bytes.NewReader(body)).Decode(&req) })
	if err != nil {
		return err
	}
	t.run(st, "ckdsl.compile", func() { ck, err = ckdsl.CompileSource(req.Checker) })
	if err != nil {
		return err
	}
	cb := inc.Codebase()
	var pin *scan.PinnedSnapshot
	t.run(st, "scan.pin", func() { pin = cb.Pin() })
	var res *scan.Result
	t.run(st, "scan.run", func() {
		files := make([]int, cb.NumFiles())
		for i := range files {
			files[i] = i
		}
		res = inc.RunFilesAt(pin.Snapshot, files, []checker.Checker{ck}, scan.Options{Context: r.ctx})
		pin.Release()
	})
	var resp *api.ScanResponse
	var buf bytes.Buffer
	t.run(st, "api.encode", func() {
		resp = api.ScanResult(ck.Name(), res, false, false)
		err = encodeIndented(&buf, resp)
	})
	if err != nil {
		return err
	}
	st.respBytes = buf.Len()
	st.verify = func() bool {
		dg, err := responseDigest(resp, o.name)
		return err == nil && dg == r.refs[o.pool]
	}
	return nil
}

// encodeIndented is kserve's response encoding.
func encodeIndented(buf *bytes.Buffer, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// commitOp replays one changeset plus the /batch that reads it.
func (r *replayer) commitOp(t *tracer, inc *scan.Incremental, csBody, bBody []byte, o op, table *fileTable, st *opStats) error {
	var creq api.ChangesetRequest
	var err error
	t.run(st, "api.decode", func() { err = json.NewDecoder(bytes.NewReader(csBody)).Decode(&creq) })
	if err != nil {
		return err
	}
	var cs *scan.Changeset
	t.run(st, "scan.commit", func() { cs, err = inc.ApplyChangeset(scanChanges(creq.Changes)) })
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	t.run(st, "api.encode", func() {
		err = encodeIndented(&buf, &api.ChangesetResponse{Status: api.StatusCommitted, Generation: cs.Generation,
			Ops: cs.Ops, ChangedFuncs: cs.Changed, StaleHashes: len(cs.StaleHashes), StoreInvalidated: cs.StoreInvalidated})
	})
	if err != nil {
		return err
	}
	st.staleHashes = len(cs.StaleHashes)
	var breq api.BatchRequest
	t.run(st, "api.decode", func() { err = json.NewDecoder(bytes.NewReader(bBody)).Decode(&breq) })
	if err != nil {
		return err
	}
	var cks []checker.Checker
	t.run(st, "ckdsl.compile", func() {
		for _, src := range breq.Checkers {
			var ck *ckdsl.Compiled
			if ck, err = ckdsl.CompileSource(src); err != nil {
				return
			}
			cks = append(cks, ck)
		}
	})
	if err != nil {
		return err
	}
	cb := inc.Codebase()
	var pin *scan.PinnedSnapshot
	t.run(st, "scan.pin", func() { pin = cb.Pin() })
	var results []*scan.Result
	t.run(st, "scan.run", func() {
		results = inc.RunBatch(cks, nil, scan.Options{Context: r.ctx}, 0)
		pin.Release()
	})
	br := &api.BatchResponse{Results: make([]*api.ScanResponse, len(results))}
	buf.Reset()
	t.run(st, "api.encode", func() {
		for i, res := range results {
			br.Results[i] = api.ScanResult(cks[i].Name(), res, false, false)
			br.Generation = res.Generation
		}
		br.CheckersRun = len(cks)
		err = encodeIndented(&buf, br)
	})
	if err != nil {
		return err
	}
	st.respBytes = buf.Len()
	st.verify = func() bool {
		var touched []int
		for _, fc := range cs.Files {
			touched = append(touched, fc.File)
		}
		table.update(cb, touched)
		return checkBatch(br, o, r.pool, table, cs.Generation) == nil
	}
	return nil
}

var gcMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func gcSeconds() float64 {
	metrics.Read(gcMetric)
	if gcMetric[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return gcMetric[0].Value.Float64()
}

// pass replays the op sequence from a fresh state: ops until the budget
// of op wall time is spent (limit 0), or exactly limit ops.
func (r *replayer) pass(on bool, budget time.Duration, limit int) (pr *passResult, err error) {
	t := newTracer(on)
	r.kcTracer.Store(t)
	pr = &passResult{tr: t}
	st, cleanup, err := r.stack(t)
	if err != nil {
		return nil, err
	}
	defer func() {
		// cleanup is reassigned at every fleet-warm B restart.
		if cerr := cleanup(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	cb := r.cb
	var table *fileTable
	var src *opSource
	if r.workload == "commit-rescan" {
		if cb, err = newCodebase(); err != nil {
			return nil, err
		}
		src = newOpSource(r.workload, segSeed(r.seed, 0), r.pool, cb)
		if table, err = newFileTable(cb, r.pool, src.deployed); err != nil {
			return nil, err
		}
	} else {
		src = newOpSource(r.workload, segSeed(r.seed, 0), r.pool, nil)
	}
	inc := r.newIncremental(cb, st)
	// Setup, untimed: warm what the workload's setup warms.
	warm := func(idx []int) error {
		saved := t.on
		t.on = false
		defer func() { t.on = saved }()
		for _, pi := range idx {
			ck, err := ckdsl.CompileSource(r.pool[pi].src)
			if err != nil {
				return err
			}
			inc.RunOne(ck, scan.Options{})
		}
		return nil
	}
	switch r.workload {
	case "warm-rescan":
		err = warm(src.choices)
	case "commit-rescan":
		err = warm(src.deployed)
	}
	if err != nil {
		return nil, err
	}

	gc0 := gcSeconds()
	var ms0, ms1 runtime.MemStats
	var spent time.Duration
	for n := 0; ; n++ {
		if r.ctx.Err() != nil {
			return nil, r.ctx.Err()
		}
		if (limit > 0 && n >= limit) || (limit == 0 && spent >= budget) {
			break
		}
		if r.workload == "fleet-warm" && n > 0 && n%len(src.choices) == 0 {
			// A pass over the published set is done: B restarts empty.
			if err := cleanup(); err != nil {
				return nil, err
			}
			if st, cleanup, err = r.stack(t); err != nil {
				return nil, err
			}
			inc = r.newIncremental(cb, st)
		}
		o := src.next()
		ost := opStats{layers: map[string]int64{}}
		var body, bBody []byte
		if r.workload == "commit-rescan" {
			body, err = json.Marshal(api.ChangesetRequest{Changes: o.changes})
			if err == nil {
				req := api.BatchRequest{MinGeneration: cb.Generation() + 1}
				for _, pi := range o.batch {
					req.Checkers = append(req.Checkers, r.pool[pi].src)
				}
				bBody, err = json.Marshal(req)
			}
			if on {
				for _, c := range o.changes {
					p0 := time.Now()
					if _, perr := minic.ParseFile(c.Path, c.Source); perr != nil {
						return nil, perr
					}
					ost.parseNS = append(ost.parseNS, int64(time.Since(p0)))
				}
			}
		} else {
			body, err = json.Marshal(api.ScanRequest{Checker: o.checker})
		}
		if err != nil {
			return nil, err
		}
		if !on {
			runtime.ReadMemStats(&ms0)
		}
		// Each function of each checker probes once and, on a miss,
		// computes once: two outermost store calls.
		t.beginOp(n, 2*cb.NumFuncs()*max(1, len(o.batch)))
		t0 := time.Now()
		if r.workload == "commit-rescan" {
			err = r.commitOp(t, inc, body, bBody, o, table, &ost)
		} else {
			err = r.scanOp(t, inc, body, o, &ost)
		}
		ost.wall = int64(time.Since(t0))
		if !on {
			runtime.ReadMemStats(&ms1)
			ost.allocs = ms1.Mallocs - ms0.Mallocs
			ost.bytes = ms1.TotalAlloc - ms0.TotalAlloc
		}
		if err != nil {
			return nil, err
		}
		if !ost.verify() {
			pr.wrong++
		}
		ost.verify = nil
		if on {
			iv, err := t.outerIntervals()
			if err != nil {
				return nil, err
			}
			ost.selfNS = ost.layers["scan.run"] - unionNS(iv)
			t.mu.Lock()
			t.spans = append(t.spans, span{Op: n, Name: "op", Start: int64(t0.Sub(t.base)), End: int64(t0.Sub(t.base)) + ost.wall})
			t.mu.Unlock()
		}
		spent += time.Duration(ost.wall)
		pr.ops = append(pr.ops, ost)
	}
	pr.gcNS = (gcSeconds() - gc0) * 1e9
	return pr, nil
}

// unionNS is the total length of the union of intervals.
func unionNS(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var total int64
	cur := s[0]
	for _, x := range s[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// layerResult is the traced run's output.
type layerResult struct {
	correct bool
	metrics map[string]metric
}

// replay runs the untimed and timed passes and derives the per-layer
// metrics. refs are the oracle digests of the scan workloads.
func replay(ctx context.Context, p *procs, workload string, seed int64, seconds time.Duration, pool []poolChecker, refs map[int]string, work string) (*layerResult, error) {
	r := &replayer{ctx: ctx, p: p, workload: workload, seed: seed, pool: pool, refs: refs}
	var err error
	if r.cb, err = newCodebase(); err != nil {
		return nil, err
	}
	if workload == "fleet-warm" {
		if err := r.startFleet(); err != nil {
			return nil, errors.Join(err, r.stopFleet())
		}
	}
	// A few discarded ops first, so neither measured pass pays the
	// process's own warm-up (heap growth, first-use paths).
	_, err = r.pass(false, 0, 4)
	var off, on *passResult
	if err == nil {
		off, err = r.pass(false, seconds/2, 0)
	}
	if err == nil {
		on, err = r.pass(true, 0, len(off.ops))
	}
	if ferr := r.stopFleet(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(work, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed)), on.tr.spans); err != nil {
		return nil, err
	}
	res := &layerResult{correct: off.wrong == 0 && on.wrong == 0, metrics: layerMetrics(off, on)}
	logf("%s replay: %d ops per pass; %d wrong", workload, len(on.ops), off.wrong+on.wrong)
	return res, nil
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}

// layerMetrics turns the two passes into the per-layer metrics. Times
// from the timed pass; allocation and GC from the untimed one.
func layerMetrics(off, on *passResult) map[string]metric {
	n := float64(len(on.ops))
	per := func(f func(o opStats) float64, ops []opStats) float64 {
		v := make([]float64, len(ops))
		for i, o := range ops {
			v[i] = f(o)
		}
		return percentile(v, 0.5)
	}
	layer := func(name string, scale float64) float64 {
		return per(func(o opStats) float64 { return float64(o.layers[name]) / scale }, on.ops)
	}
	var wallOn, covered float64
	var parses, overhead []float64
	var stale float64
	for i := range on.ops {
		wallOn += float64(on.ops[i].wall)
		overhead = append(overhead, (float64(on.ops[i].wall)/float64(off.ops[i].wall)-1)*100)
		covered += float64(on.ops[i].covered)
		stale += float64(on.ops[i].staleHashes)
		for _, p := range on.ops[i].parseNS {
			parses = append(parses, float64(p)/1e3)
		}
	}
	tier := func(name string) *tierStat { return on.tr.tiers[name] }
	mean := func(ns, count int64, scale float64) float64 {
		if count == 0 {
			return 0
		}
		return float64(ns) / float64(count) / scale
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	t := on.tr
	remoteGet := mean(tier("remote").getNS.Load(), tier("remote").gets.Load(), 1e3)
	kcachedGet := mean(tier("kcached").getNS.Load(), tier("kcached").gets.Load(), 1e3)
	wire := 0.0
	if tier("remote").gets.Load() > 0 {
		wire = remoteGet - kcachedGet
	}
	return map[string]metric{
		"api.decode_us":                 {layer("api.decode", 1e3), "us-wall"},
		"api.encode_us":                 {layer("api.encode", 1e3), "us-wall"},
		"api.response_kb":               {per(func(o opStats) float64 { return float64(o.respBytes) / 1024 }, on.ops), "KB"},
		"ckdsl.compile_us":              {layer("ckdsl.compile", 1e3), "us-wall"},
		"scan.pin_us":                   {layer("scan.pin", 1e3), "us-wall"},
		"scan.run_ms":                   {layer("scan.run", 1e6), "ms-wall"},
		"scan.self_ms":                  {per(func(o opStats) float64 { return float64(o.selfNS) / 1e6 }, on.ops), "ms-wall"},
		"scan.commit_ms":                {layer("scan.commit", 1e6), "ms-wall"},
		"scan.stale_hashes":             {stale / n, "count"},
		"scan.allocs_per_op":            {per(func(o opStats) float64 { return float64(o.allocs) }, off.ops), "count"},
		"scan.alloc_mb_per_op":          {per(func(o opStats) float64 { return float64(o.bytes) / (1 << 20) }, off.ops), "MB"},
		"scan.gc_ms_per_op":             {off.gcNS / float64(len(off.ops)) / 1e6, "ms-busy"},
		"minic.parse_us":                {percentile(parses, 0.5), "us-wall"},
		"engine.funcs_per_op":           {float64(t.computes.Load()) / n, "count"},
		"engine.analyze_us":             {mean(t.computeNS.Load(), t.computes.Load(), 1e3), "us-busy"},
		"engine.busy_ms_per_op":         {float64(t.computeNS.Load()) / n / 1e6, "ms-busy"},
		"store.memory.get_us":           {mean(tier("memory").getNS.Load(), tier("memory").gets.Load(), 1e3), "us-busy"},
		"store.memory.put_us":           {mean(tier("memory").putNS.Load(), tier("memory").puts.Load(), 1e3), "us-busy"},
		"store.memory.hit_ratio":        {ratio(tier("memory").hits.Load(), tier("memory").gets.Load()), "ratio"},
		"store.coalesced.shared_per_op": {float64(t.shared.Load()) / n, "count"},
		"store.hedged.get_us":           {mean(tier("hedged").getNS.Load(), tier("hedged").gets.Load(), 1e3), "us-busy"},
		"store.disk.get_us":             {mean(tier("disk").getNS.Load(), tier("disk").gets.Load(), 1e3), "us-busy"},
		"store.remote.get_us":           {remoteGet, "us-busy"},
		"store.remote.put_us":           {mean(tier("remote").putNS.Load(), tier("remote").puts.Load(), 1e3), "us-busy"},
		"store.remote.gets_per_op":      {float64(tier("remote").gets.Load()) / n, "count"},
		"store.remote.hit_ratio":        {ratio(tier("remote").hits.Load(), tier("remote").gets.Load()), "ratio"},
		"kcached.get_us":                {kcachedGet, "us-busy"},
		"store.remote.wire_us":          {wire, "us-busy"},
		"bench.cover_ratio":             {covered / wallOn, "ratio"},
		"bench.trace_overhead_pct":      {percentile(overhead, 0.5), "%"},
	}
}
