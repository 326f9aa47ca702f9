package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"knighter/internal/api"
)

// setupRounds is how many times one run sets the workload up from
// nothing (fresh daemons, empty caches); the run's measuring time is
// split evenly across the rounds and setup_s is their median.
const setupRounds = 3

// measure collects one run's end-to-end samples.
type measure struct {
	mu        sync.Mutex
	lat       []float64 // op latency, ms
	outside   []float64 // op latency minus the replies' elapsed_ms, ms
	attempted int
	failed    int
	errs      []string
	window    time.Duration // measured time the ops ran in
	setups    []float64     // s
	rss       []float64     // MB
}

func (m *measure) fail(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failed++
	if len(m.errs) < 8 {
		m.errs = append(m.errs, fmt.Sprintf(format, args...))
	}
}

func (m *measure) ok(lat time.Duration, elapsedMS float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms := float64(lat.Nanoseconds()) / 1e6
	m.lat = append(m.lat, ms)
	m.outside = append(m.outside, ms-elapsedMS)
}

// runner holds what every workload's HTTP run shares.
type runner struct {
	p      *procs
	m      *measure
	pool   []poolChecker
	seed   int64
	budget time.Duration // measuring time per setup round
	hc     *http.Client
	refs   map[int]string // pool index -> reference digest

	// The serving daemon of the current round, and its peak RSS read
	// once the round has completed rssAfter ops, so the figure reflects
	// a fixed amount of work, not how many ops a faster or slower build
	// fits into the round.
	srv      *daemon
	rssAfter int64
	roundOps atomic.Int64
	roundRSS atomic.Pointer[float64]
}

// rssAfterOps is the op count at which a round reads the serving
// daemon's VmHWM: about a fifth of a round at the parent commit's
// speed, and a whole pass of B in fleet-warm.
var rssAfterOps = map[string]int64{"warm-rescan": 300, "cold-synth": 12, "commit-rescan": 30, "fleet-warm": fleetPublished}

// beginRound makes srv the daemon whose RSS the round reports.
func (d *runner) beginRound(srv *daemon) {
	d.srv = srv
	d.roundOps.Store(0)
	d.roundRSS.Store(nil)
}

// countOp notes one completed op of the round.
func (d *runner) countOp() {
	if d.roundOps.Add(1) != d.rssAfter {
		return
	}
	if rss, err := d.srv.vmHWM(); err == nil {
		d.roundRSS.Store(&rss)
	} else {
		logf("%v", err)
	}
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// post sends one JSON body and reads the whole reply.
func post(ctx context.Context, hc *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func get(ctx context.Context, hc *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, err
}

// segSeed derives the op-sequence seed of one setup round.
func segSeed(seed int64, round int) int64 { return seed*1000003 + int64(round) }

// scanOp sends one /scan and checks the reply against the oracle. It
// returns the decoded reply, or nil after recording a failure.
func (d *runner) scanOp(ctx context.Context, url string, o op, record bool) *api.ScanResponse {
	body, err := json.Marshal(api.ScanRequest{Checker: o.checker})
	if err != nil {
		d.m.fail("encode request: %v", err)
		return nil
	}
	t0 := time.Now()
	code, b, err := post(ctx, d.hc, url+"/scan", body)
	lat := time.Since(t0)
	if ctx.Err() != nil {
		return nil
	}
	d.m.mu.Lock()
	if record {
		d.m.attempted++
	}
	d.m.mu.Unlock()
	fail := func(format string, args ...any) {
		if !record {
			// Setup scans are checked too; one that fails counts as an
			// attempted, failed op.
			d.m.mu.Lock()
			d.m.attempted++
			d.m.mu.Unlock()
		}
		d.m.fail(format, args...)
	}
	if err != nil || code != http.StatusOK {
		fail("POST /scan %s: status %d err %v: %.200s", o.name, code, err, b)
		return nil
	}
	var resp api.ScanResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		fail("decode /scan reply: %v", err)
		return nil
	}
	dg, err := responseDigest(&resp, o.name)
	if err != nil {
		fail("%v", err)
		return nil
	}
	if want := d.refs[o.pool]; dg != want {
		fail("oracle mismatch for %s: digest %s, reference %s", o.name, dg, want)
		return nil
	}
	if record {
		d.m.ok(lat, resp.ElapsedMS)
		d.countOp()
	}
	return &resp
}

// closedLoop runs clients closed-loop clients, each sending its next op
// only after its previous reply, until the budget is spent. Ops come
// from one shared sequence.
func (d *runner) closedLoop(ctx context.Context, clients int, src *opSource, do func(op)) {
	var mu sync.Mutex
	deadline := time.Now().Add(d.budget)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				mu.Lock()
				o := src.next()
				mu.Unlock()
				do(o)
			}
		}()
	}
	wg.Wait()
	d.m.mu.Lock()
	d.m.window += time.Since(start)
	d.m.mu.Unlock()
}

// startKserve boots one canonical-corpus kserve.
func (d *runner) startKserve(ctx context.Context, label string, extra ...string) (*daemon, error) {
	args := append([]string{"-seed", strconv.Itoa(corpusSeed), "-scale", strconv.FormatFloat(corpusScale, 'f', -1, 64)}, extra...)
	return d.p.start(ctx, label, "kserve", args...)
}

// finishRound records the round's peak RSS and stops srv and the
// others. A round that ended before its RSS op count reads the RSS now
// if fallback is set, and reports none otherwise.
func (d *runner) finishRound(srv *daemon, fallback bool, others ...*daemon) error {
	if rss := d.roundRSS.Load(); rss != nil {
		d.m.rss = append(d.m.rss, *rss)
	} else if fallback {
		rss, err := srv.vmHWM()
		if err != nil {
			return err
		}
		d.m.rss = append(d.m.rss, rss)
	}
	d.p.stop(srv)
	for _, o := range others {
		d.p.stop(o)
	}
	return nil
}

// runScanRounds runs warm-rescan or cold-synth: each round boots a
// kserve, warms it with the warm checkers (warm-rescan only), and runs
// clients closed-loop scan clients whose replies must satisfy profile.
func (d *runner) runScanRounds(ctx context.Context, workload string, clients int, warm []int, profile func(*api.ScanResponse) error) error {
	for round := 0; round < setupRounds && ctx.Err() == nil; round++ {
		t0 := time.Now()
		srv, err := d.startKserve(ctx, "kserve")
		if err != nil {
			return err
		}
		for _, pi := range warm {
			d.scanOp(ctx, srv.url, op{pool: pi, checker: d.pool[pi].src, name: d.pool[pi].spec.Name}, false)
		}
		d.setupDone(t0)
		d.beginRound(srv)
		d.closedLoop(ctx, clients, newOpSource(workload, segSeed(d.seed, round), d.pool, nil), func(o op) {
			if r := d.scanOp(ctx, srv.url, o, true); r != nil {
				if err := profile(r); err != nil {
					d.m.fail("%s profile: %s: %v", workload, o.name, err)
				}
			}
		})
		if err := d.finishRound(srv, true); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// runWarmRescan: two clients re-scan pool checkers the daemon has
// already scanned; every function must be a cache hit.
func (d *runner) runWarmRescan(ctx context.Context) error {
	return d.runScanRounds(ctx, "warm-rescan", 2, choices("warm-rescan", len(d.pool)), func(r *api.ScanResponse) error {
		if r.Cache.Misses != 0 || r.Cache.Hits != r.FuncsScanned {
			return fmt.Errorf("%d hits / %d misses over %d funcs, want all hits", r.Cache.Hits, r.Cache.Misses, r.FuncsScanned)
		}
		return nil
	})
}

// runColdSynth: one client scans checkers the daemon has never seen;
// no function may be a cache hit.
func (d *runner) runColdSynth(ctx context.Context) error {
	return d.runScanRounds(ctx, "cold-synth", 1, nil, func(r *api.ScanResponse) error {
		if r.Cache.Hits != 0 || r.Cache.Misses != r.FuncsScanned {
			return fmt.Errorf("%d hits / %d misses over %d funcs, want all misses", r.Cache.Hits, r.Cache.Misses, r.FuncsScanned)
		}
		return nil
	})
}

// runCommitRescan: one client commits a seeded 4-function changeset and
// then re-scans with the deployed checkers at that generation. The
// oracle (a corpus mirror and its per-file uncached reports) advances
// between ops, outside the timed window.
func (d *runner) runCommitRescan(ctx context.Context) error {
	for round := 0; round < setupRounds && ctx.Err() == nil; round++ {
		mirror, err := newCodebase()
		if err != nil {
			return err
		}
		src := newOpSource("commit-rescan", segSeed(d.seed, round), d.pool, mirror)
		table, err := newFileTable(mirror, d.pool, src.deployed)
		if err != nil {
			return err
		}
		for _, pi := range src.deployed {
			d.refs[pi] = table.digest(pi)
		}
		t0 := time.Now()
		srv, err := d.startKserve(ctx, "kserve")
		if err != nil {
			return err
		}
		for _, pi := range src.deployed {
			d.scanOp(ctx, srv.url, op{pool: pi, checker: d.pool[pi].src, name: d.pool[pi].spec.Name}, false)
		}
		d.setupDone(t0)
		d.beginRound(srv)

		var timed time.Duration
		for ctx.Err() == nil && timed < d.budget {
			o := src.next()
			if err := table.applyToMirror(mirror, o.changes); err != nil {
				return err
			}
			timed += d.commitOp(ctx, srv.url, o, table, mirror.Generation())
		}
		d.m.mu.Lock()
		d.m.window += timed
		d.m.mu.Unlock()
		if err := d.finishRound(srv, true); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// commitOp sends one changeset plus the batch that reads it, and checks
// both replies. It returns the op's latency.
func (d *runner) commitOp(ctx context.Context, url string, o op, table *fileTable, wantGen int64) time.Duration {
	csBody, err := json.Marshal(api.ChangesetRequest{Changes: o.changes})
	if err != nil {
		d.m.fail("encode changeset: %v", err)
		return 0
	}
	t0 := time.Now()
	code, b, err := post(ctx, d.hc, url+"/changeset", csBody)
	if ctx.Err() != nil {
		return 0
	}
	d.m.mu.Lock()
	d.m.attempted++
	d.m.mu.Unlock()
	if err != nil || code != http.StatusOK {
		d.m.fail("POST /changeset: status %d err %v: %.200s", code, err, b)
		return time.Since(t0)
	}
	var cs api.ChangesetResponse
	if err := json.Unmarshal(b, &cs); err != nil {
		d.m.fail("decode /changeset reply: %v", err)
		return time.Since(t0)
	}
	req := api.BatchRequest{MinGeneration: cs.Generation}
	for _, pi := range o.batch {
		req.Checkers = append(req.Checkers, d.pool[pi].src)
	}
	bBody, err := json.Marshal(req)
	if err != nil {
		d.m.fail("encode batch: %v", err)
		return time.Since(t0)
	}
	code, b, err = post(ctx, d.hc, url+"/batch", bBody)
	lat := time.Since(t0)
	if ctx.Err() != nil {
		return lat
	}
	if err != nil || code != http.StatusOK {
		d.m.fail("POST /batch: status %d err %v: %.200s", code, err, b)
		return lat
	}
	var br api.BatchResponse
	if err := json.Unmarshal(b, &br); err != nil {
		d.m.fail("decode /batch reply: %v", err)
		return lat
	}
	if cs.Status != api.StatusCommitted || cs.Generation != wantGen {
		d.m.fail("changeset %s at generation %d, mirror is at %d", cs.Status, cs.Generation, wantGen)
		return lat
	}
	if err := checkBatch(&br, o, d.pool, table, cs.Generation); err != nil {
		d.m.fail("%v", err)
		return lat
	}
	d.m.ok(lat, cs.ElapsedMS+br.ElapsedMS)
	d.countOp()
	return lat
}

// checkBatch applies the oracle and the commit-rescan cache profile to
// one /batch reply.
func checkBatch(br *api.BatchResponse, o op, pool []poolChecker, table *fileTable, minGen int64) error {
	if len(br.Results) != len(o.batch) {
		return fmt.Errorf("batch returned %d results for %d checkers", len(br.Results), len(o.batch))
	}
	if br.Generation < minGen {
		return fmt.Errorf("batch served generation %d below min_generation %d", br.Generation, minGen)
	}
	misses := 0
	for i, pi := range o.batch {
		r := br.Results[i]
		if r == nil || r.Error != "" {
			return fmt.Errorf("batch entry %d failed: %+v", i, r)
		}
		if r.Generation != minGen {
			return fmt.Errorf("batch entry %d at generation %d, oracle at %d", i, r.Generation, minGen)
		}
		dg, err := responseDigest(r, pool[pi].spec.Name)
		if err != nil {
			return err
		}
		if want := table.digest(pi); dg != want {
			return fmt.Errorf("oracle mismatch for %s at generation %d: digest %s, reference %s", pool[pi].spec.Name, minGen, dg, want)
		}
		misses += r.Cache.Misses
	}
	if misses == 0 {
		return fmt.Errorf("commit-rescan profile: batch after a changeset had no cache misses")
	}
	return nil
}

// tierCounters reads the fleet-warm profile counters from a replica's
// /metrics: hits answered by the remote tier, and misses of the whole
// stack (each one an engine run).
func tierCounters(ctx context.Context, hc *http.Client, url string) (remoteHits, engineRuns float64, err error) {
	b, err := get(ctx, hc, url+"/metrics")
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(string(b), "\n") {
		var dst *float64
		switch {
		case strings.HasPrefix(line, `kserve_store_hits_total{tier="remote"} `):
			dst = &remoteHits
		case strings.HasPrefix(line, `kserve_store_misses_total{tier="coalesced"} `):
			dst = &engineRuns
		default:
			continue
		}
		v, perr := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("parse %q: %w", line, perr)
		}
		*dst = v
		found++
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("%s/metrics lacks the remote-hit or coalesced-miss series", url)
	}
	return remoteHits, engineRuns, nil
}

// runFleetWarm: kcached plus replicas A and B (B fully tiered: memory,
// then kcached hedged against its own segment disk). A publishes the
// set in setup; each op is a full scan on B whose keys are in kcached
// but in neither of B's own tiers. B restarts on a fresh empty
// directory after every pass over the set; its boot is not timed.
func (d *runner) runFleetWarm(ctx context.Context) error {
	published := choices("fleet-warm", len(d.pool))
	for round := 0; round < setupRounds && ctx.Err() == nil; round++ {
		rssBefore := len(d.m.rss)
		t0 := time.Now()
		kdir, err := d.p.tempDir("kcached")
		if err != nil {
			return err
		}
		kc, err := d.p.start(ctx, "kcached", "kcached", "-cache-dir", kdir)
		if err != nil {
			return err
		}
		a, err := d.startKserve(ctx, "kserve-A", "-cache-remote", kc.url)
		if err != nil {
			return err
		}
		for _, pi := range published {
			d.scanOp(ctx, a.url, op{pool: pi, checker: d.pool[pi].src, name: d.pool[pi].spec.Name}, false)
		}
		startB := func() (*daemon, string, error) {
			bdir, err := d.p.tempDir("kserve-B")
			if err != nil {
				return nil, "", err
			}
			b, err := d.startKserve(ctx, "kserve-B", "-cache-remote", kc.url, "-cache-dir", bdir)
			return b, bdir, err
		}
		b, bdir, err := startB()
		if err != nil {
			return err
		}
		d.setupDone(t0)
		d.beginRound(b)

		src := newOpSource("fleet-warm", segSeed(d.seed, round), d.pool, nil)
		var timed time.Duration
		n := 0
		for ; ctx.Err() == nil && timed < d.budget; n++ {
			if n > 0 && n%len(published) == 0 {
				// A pass is done: every published key is now in B's own
				// tiers. Restart B on a fresh empty directory. A B
				// instance reports peak RSS only after a whole pass.
				if err := d.finishRound(b, false); err != nil {
					return err
				}
				if err := d.p.removeDir(bdir); err != nil {
					return err
				}
				if b, bdir, err = startB(); err != nil {
					return err
				}
				d.beginRound(b)
			}
			o := src.next()
			hits0, runs0, err := tierCounters(ctx, d.hc, b.url)
			if err != nil {
				return err
			}
			t1 := time.Now()
			r := d.scanOp(ctx, b.url, o, true)
			timed += time.Since(t1)
			if r == nil {
				continue
			}
			hits1, runs1, err := tierCounters(ctx, d.hc, b.url)
			if err != nil {
				return err
			}
			if runs1 != runs0 || int(hits1-hits0) != r.FuncsScanned || r.Cache.Misses != 0 {
				d.m.fail("fleet-warm profile: %s ran the engine %v times and hit the remote tier %v times over %d funcs, want 0 and all",
					o.name, runs1-runs0, hits1-hits0, r.FuncsScanned)
			}
		}
		d.m.mu.Lock()
		d.m.window += timed
		d.m.mu.Unlock()
		// The round's last B reports RSS only if no earlier B of the
		// round could (a round shorter than one pass).
		if err := d.finishRound(b, len(d.m.rss) == rssBefore, a, kc); err != nil {
			return err
		}
		for _, dir := range []string{bdir, kdir} {
			if err := d.p.removeDir(dir); err != nil {
				return err
			}
		}
	}
	return ctx.Err()
}

// setupDone records one setup round's duration; the log line marks the
// start of the round's timed ops.
func (d *runner) setupDone(t0 time.Time) {
	s := time.Since(t0).Seconds()
	d.m.setups = append(d.m.setups, s)
	logf("setup round %d done in %.3fs; timing ops", len(d.m.setups), s)
}
