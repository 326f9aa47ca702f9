// Command scanbench is the scan-service benchmark. It starts the real
// kserve (and, for fleet-warm, kcached and a second kserve) as child
// processes, drives them closed-loop over HTTP, checks every reply
// against an uncached in-process oracle, and prints one JSON result
// line. With -trace 1 it also replays the same op sequence in-process
// through the layers' public functions, timed from this package only,
// and prints the per-layer split instead of the end-to-end metrics.
//
// Run it through run.sh, which builds the binaries from the checkout:
//
//	bash scanbench/run.sh --workload warm-rescan --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

var workloads = []string{"warm-rescan", "cold-synth", "commit-rescan", "fleet-warm"}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "scanbench: "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "one of warm-rescan, cold-synth, commit-rescan, fleet-warm")
	seed := flag.Int64("seed", 1, "workload seed: draws checker order, changeset contents and fresh checker names")
	seconds := flag.Int("seconds", 18, "measuring time of one run")
	trace := flag.Int("trace", 0, "1 = also replay in-process with layer timers and print the per-layer metrics")
	bin := flag.String("bin", "", "directory holding the built kserve and kcached binaries")
	work := flag.String("work", ".bench_build", "scratch directory for temp dirs and the span dump")
	reap := flag.Bool("reap", false, "internal: run as the cleanup reaper of a benchmark process")
	flag.Parse()
	if *reap {
		runReaper()
		return
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || *bin == "" || (*trace != 0 && *trace != 1) {
		logf("usage: -workload %v -seed N -seconds N -trace 0|1 -bin DIR", workloads)
		os.Exit(2)
	}
	os.Exit(run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *bin, *work))
}

// metric is one named result value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run and returns the exit code. Every exit
// path — success, error, panic, SIGINT/SIGTERM — tears the daemons down
// and removes the temp directories before returning.
func run(workload string, seed int64, seconds time.Duration, traced bool, bin, work string) (code int) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	p, err := newProcs(bin, filepath.Join(work, "tmp"))
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer func() {
		if r := recover(); r != nil {
			logf("panic: %v\n%s", r, debug.Stack())
			code = 2
		}
		if err := p.shutdown(); err != nil {
			logf("teardown: %v", err)
			if code == 0 {
				code = 1
			}
		}
		if ctx.Err() != nil && code == 0 {
			code = 1
		}
	}()

	res, err := measureRun(ctx, p, workload, seed, seconds, traced, work)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			logf("interrupted; tore down")
		} else {
			logf("%s: %v", workload, err)
		}
		return 1
	}
	// Tear down before printing, so a result line is never followed by
	// a failed cleanup.
	if err := p.shutdown(); err != nil {
		logf("teardown: %v", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("encode result: %v", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func measureRun(ctx context.Context, p *procs, workload string, seed int64, seconds time.Duration, traced bool, work string) (*result, error) {
	t0 := time.Now()
	pool := buildPool()
	if len(pool) < deployedCheckers || len(pool) < warmCheckers {
		return nil, fmt.Errorf("synthesis produced only %d checkers", len(pool))
	}
	d := &runner{p: p, m: &measure{}, pool: pool, seed: seed,
		budget: seconds / setupRounds, hc: newHTTPClient(2), refs: map[int]string{},
		rssAfter: rssAfterOps[workload]}
	switch workload {
	case "warm-rescan", "cold-synth", "fleet-warm":
		cb, err := newCodebase()
		if err != nil {
			return nil, err
		}
		if d.refs, err = reference(cb, pool, choices(workload, len(pool))); err != nil {
			return nil, err
		}
	}
	digest, err := selfCheck(workload, seed, pool)
	if err != nil {
		return nil, fmt.Errorf("determinism self-check: %w", err)
	}
	logf("%s seed=%d: op sequence %s; pool of %d checkers and oracle ready in %.2fs",
		workload, seed, digest, len(pool), time.Since(t0).Seconds())

	switch workload {
	case "warm-rescan":
		err = d.runWarmRescan(ctx)
	case "cold-synth":
		err = d.runColdSynth(ctx)
	case "commit-rescan":
		err = d.runCommitRescan(ctx)
	case "fleet-warm":
		err = d.runFleetWarm(ctx)
	}
	if err != nil {
		return nil, err
	}
	m := d.m
	for _, e := range m.errs {
		logf("failure: %s", e)
	}
	if len(m.lat) == 0 {
		return nil, fmt.Errorf("no op completed (%d attempted, %d failed)", m.attempted, m.failed)
	}
	logf("%s seed=%d: %d ops in %.2fs, %d failed; p50 %.3fms p90 %.3fms outside %.3fms setup %v s rss %v MB",
		workload, seed, len(m.lat), m.window.Seconds(), m.failed,
		percentile(m.lat, 0.5), percentile(m.lat, 0.9), percentile(m.outside, 0.5), m.setups, m.rss)

	res := &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	if !traced {
		res.Metrics = map[string]metric{
			"p50_ms":    {percentile(m.lat, 0.5), "ms"},
			"p90_ms":    {percentile(m.lat, 0.9), "ms"},
			"ops_per_s": {float64(len(m.lat)) / m.window.Seconds(), "1/s"},
			// Add-one estimate of the failure probability: never 0, and
			// a single failure at least doubles it.
			"error_rate":  {float64(m.failed+1) / float64(m.attempted+1), "ratio"},
			"setup_s":     {percentile(m.setups, 0.5), "s"},
			"peak_rss_mb": {percentile(m.rss, 0.5), "MB"},
		}
		return res, nil
	}
	layers, err := replay(ctx, p, workload, seed, seconds, pool, d.refs, work)
	if err != nil {
		return nil, err
	}
	if !layers.correct {
		res.Correct = false
	}
	layers.metrics["kserve.outside_ms"] = metric{percentile(m.outside, 0.5), "ms-wall"}
	res.Metrics = layers.metrics
	return res, nil
}

// percentile is the nearest-rank q-quantile of v.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
