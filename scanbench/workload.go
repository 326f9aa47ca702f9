package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"knighter/internal/api"
	"knighter/internal/checker"
	"knighter/internal/ckdsl"
	"knighter/internal/engine"
	"knighter/internal/kernel"
	"knighter/internal/llm"
	"knighter/internal/minic"
	"knighter/internal/scan"
	"knighter/internal/synth"
)

// The daemons always serve the canonical corpus; the workload seed only
// draws the traffic (checker order, changeset contents, fresh names).
const (
	corpusSeed  = 1
	corpusScale = 1.0
	// poolSeed fixes the synthesized checker pool, so every workload
	// seed scans the same checkers and only their order varies.
	poolSeed = 1
	// commitFiles is how many files (one function each) a commit-rescan
	// changeset edits; deployedCheckers is the /batch width after it.
	commitFiles      = 4
	deployedCheckers = 4
	// warmCheckers is how many pool checkers warm-rescan's setup warms
	// and its ops re-scan; coldCheckers is how many cold-synth renames;
	// fleetPublished is how many replica A publishes in fleet-warm (one
	// pass of B scans each once). Small fixed sets keep every run's mix
	// of checkers the same whatever the seed and run length.
	warmCheckers   = 16
	coldCheckers   = 13
	fleetPublished = 8
)

// spread picks n of size pool indices, evenly spaced, so a subset spans
// the bug classes and is the same for every seed.
func spread(size, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i * size / n
	}
	return out
}

// choices lists the pool indices a workload's scan ops draw from.
func choices(workload string, size int) []int {
	switch workload {
	case "warm-rescan":
		return spread(size, warmCheckers)
	case "cold-synth":
		return spread(size, coldCheckers)
	case "fleet-warm":
		return spread(size, fleetPublished)
	}
	return nil
}

// poolChecker is one synthesized checker: its DSL text and bug class.
type poolChecker struct {
	spec  *ckdsl.Spec
	src   string
	class string
}

// buildPool runs the repo's own synthesis pipeline over the hand-written
// commit set and keeps every valid checker, in commit order.
func buildPool() []poolChecker {
	pipe := synth.NewPipeline(llm.NewOracle(llm.O3Mini), synth.Options{})
	var pool []poolChecker
	for _, c := range kernel.BuildHandCommits(poolSeed).All() {
		out := pipe.GenChecker(c)
		if !out.Valid || out.Spec == nil {
			continue
		}
		pool = append(pool, poolChecker{spec: out.Spec, src: out.Spec.String(), class: c.Class})
	}
	return pool
}

// renamed returns the DSL of p under a new checker name. The name is the
// only thing that changes, so the analysis work is identical but the
// checker fingerprint (and every cache key) is new.
func (p poolChecker) renamed(name string) string {
	sp := *p.spec
	sp.Name = name
	return sp.String()
}

// deployedSet picks the commit-rescan /batch checkers: the first pool
// checker of each of the first deployedCheckers bug classes.
func deployedSet(pool []poolChecker) []int {
	seen := map[string]bool{}
	var out []int
	for i, p := range pool {
		if !seen[p.class] && len(out) < deployedCheckers {
			seen[p.class] = true
			out = append(out, i)
		}
	}
	return out
}

// op is one closed-loop operation of a workload. Scan-shaped ops carry
// the checker DSL and the pool index of the checker whose reference
// reports they must reproduce; commit ops carry a changeset and the
// batch that follows it.
type op struct {
	pool    int    // pool index (scan ops)
	checker string // DSL text sent (scan ops)
	name    string // expected checker name in the reply

	changes []api.Change // commit-rescan: the changeset
	batch   []int        // commit-rescan: pool indices, in request order
}

// opSource deterministically generates a workload's op sequence from the
// seed. Ops are drawn lazily, because a closed loop's op count depends
// on how fast the system answers; the sequence itself never does.
type opSource struct {
	workload string
	pool     []poolChecker
	// choices are the pool indices scan ops draw from.
	choices []int
	rng     *rand.Rand
	perm    []int
	n       int
	// commit-rescan state: the corpus mirror the changesets are drawn
	// from and edited in (kept in step with the daemon's corpus).
	mirror   *scan.Codebase
	deployed []int
	digest   hash.Hash // running digest of every op drawn
}

func newOpSource(workload string, seed int64, pool []poolChecker, mirror *scan.Codebase) *opSource {
	return &opSource{
		workload: workload, pool: pool, mirror: mirror,
		choices:  choices(workload, len(pool)),
		rng:      rand.New(rand.NewSource(seed)),
		deployed: deployedSet(pool),
		digest:   sha256.New(),
	}
}

// nextPool returns pool indices as a stream of seeded permutations, so
// every run scans the whole pool in near-equal measure whatever the
// seed.
func (s *opSource) nextPool() int {
	if len(s.perm) == 0 {
		s.perm = s.rng.Perm(len(s.choices))
	}
	i := s.choices[s.perm[0]]
	s.perm = s.perm[1:]
	return i
}

// next draws op number s.n. commit-rescan ops need the mirror to be at
// the state the previous op left, which the caller guarantees by
// applying each op's changeset to the mirror before drawing the next.
func (s *opSource) next() op {
	defer func() { s.n++ }()
	var o op
	switch s.workload {
	case "commit-rescan":
		o = s.nextCommit()
	case "cold-synth":
		o.pool = s.nextPool()
		// A fresh name per op: a checker the daemon has never seen.
		o.name = fmt.Sprintf("%s_%08x_%d", s.pool[o.pool].spec.Name, s.rng.Uint32(), s.n)
		o.checker = s.pool[o.pool].renamed(o.name)
	default: // warm-rescan, fleet-warm: pool checkers as synthesized
		o.pool = s.nextPool()
		o.name = s.pool[o.pool].spec.Name
		o.checker = s.pool[o.pool].src
	}
	fmt.Fprintf(s.digest, "%d|%d|%s|%v|", s.n, o.pool, o.name, o.batch)
	for _, c := range o.changes {
		fmt.Fprintf(s.digest, "%s|%s|%s|", c.Path, c.Func, c.Source)
	}
	return o
}

// nextCommit draws commitFiles distinct files and one function in each,
// and inserts one fresh declaration at the top of that function's body.
// The inserted line shifts every later function of the file, so those
// re-key too: a realistic commit's partial misses.
func (s *opSource) nextCommit() op {
	files := s.mirror.Files()
	var o op
	for _, fi := range s.rng.Perm(len(files))[:commitFiles] {
		f := files[fi]
		fn := f.Funcs[s.rng.Intn(len(f.Funcs))]
		src := minic.FormatFunc(fn)
		brace := strings.Index(src, "{")
		decl := fmt.Sprintf("\n\tint kb_%d_%x;", s.n, s.rng.Uint32())
		o.changes = append(o.changes, api.Change{Path: f.Name, Func: fn.Name, Source: src[:brace+1] + decl + src[brace+1:]})
	}
	o.batch = append([]int(nil), s.deployed...)
	s.rng.Shuffle(len(o.batch), func(i, j int) { o.batch[i], o.batch[j] = o.batch[j], o.batch[i] })
	return o
}

// sequenceDigest fingerprints every op drawn so far.
func (s *opSource) sequenceDigest() string {
	return hex.EncodeToString(s.digest.Sum(nil)[:8])
}

// scanChanges converts wire changes to the scan package's form.
func scanChanges(cs []api.Change) []scan.Change {
	out := make([]scan.Change, len(cs))
	for i, c := range cs {
		out[i] = scan.Change{Path: c.Path, Func: c.Func, Source: c.Source}
	}
	return out
}

// reportLine is the checker-independent identity of one report: the
// reference is computed once per pool checker and must match the
// checker under any name.
func reportLine(bugType, msg, file, fn string, line, col int, region string) string {
	return fmt.Sprintf("%s|%s|%s|%s|%d:%d|%s\n", file, fn, bugType, msg, line, col, region)
}

// digestLines hashes an ordered list of report lines and runtime errors.
func digestLines(lines []string, runtimeErrs []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	h.Write([]byte("--errs--\n"))
	for _, e := range runtimeErrs {
		h.Write([]byte(e + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// responseDigest digests a reply and checks that every report is
// attributed to the checker the request named.
func responseDigest(r *api.ScanResponse, name string) (string, error) {
	want := "knighter." + name
	if r.Checker != want {
		return "", fmt.Errorf("reply names checker %q, want %q", r.Checker, want)
	}
	lines := make([]string, len(r.Reports))
	for i, rep := range r.Reports {
		if rep.Checker != want {
			return "", fmt.Errorf("report %d attributed to %q, want %q", i, rep.Checker, want)
		}
		lines[i] = reportLine(rep.BugType, rep.Message, rep.File, rep.Func, rep.Line, rep.Col, rep.Region)
	}
	return digestLines(lines, r.RuntimeErrs), nil
}

// resultLines renders engine reports as reference lines.
func resultLines(reps []*checker.Report) []string {
	lines := make([]string, len(reps))
	for i, rep := range reps {
		lines[i] = reportLine(rep.BugType, rep.Message, rep.File, rep.Func, rep.Pos.Line, rep.Pos.Col, rep.RegionAt)
	}
	return lines
}

func errStrings(errs []engine.RuntimeErr) []string {
	var out []string
	for _, e := range errs {
		out = append(out, e.Error())
	}
	return out
}

// reference computes the uncached Codebase.Run digest for each pool
// checker in want.
func reference(cb *scan.Codebase, pool []poolChecker, want []int) (map[int]string, error) {
	out := map[int]string{}
	for _, i := range want {
		ck, err := ckdsl.CompileSource(pool[i].src)
		if err != nil {
			return nil, fmt.Errorf("pool checker %d: %w", i, err)
		}
		res := cb.Run([]checker.Checker{ck}, scan.Options{})
		out[i] = digestLines(resultLines(res.Reports), errStrings(res.RuntimeErrs))
	}
	return out, nil
}

// fileTable is the commit-rescan oracle: per deployed checker, each
// file's uncached reports (engine.AnalyzeFile, the body of
// Codebase.Run). The analysis is per function, so a changeset only
// re-analyzes the files it touched; the whole-corpus digest is the
// file-order concatenation, exactly Codebase.Run's merge.
type fileTable struct {
	cks   map[int]checker.Checker
	lines map[int][][]string // pool index -> file index -> lines
	errs  map[int][][]string
}

func newFileTable(cb *scan.Codebase, pool []poolChecker, deployed []int) (*fileTable, error) {
	t := &fileTable{cks: map[int]checker.Checker{}, lines: map[int][][]string{}, errs: map[int][][]string{}}
	n := cb.NumFiles()
	for _, i := range deployed {
		ck, err := ckdsl.CompileSource(pool[i].src)
		if err != nil {
			return nil, fmt.Errorf("pool checker %d: %w", i, err)
		}
		t.cks[i] = ck
		t.lines[i] = make([][]string, n)
		t.errs[i] = make([][]string, n)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	t.update(cb, all)
	return t, nil
}

// update re-analyzes the given files of cb's live snapshot, one
// goroutine per checker (each writes only its own rows).
func (t *fileTable) update(cb *scan.Codebase, files []int) {
	snap := cb.Pin()
	defer snap.Release()
	fs := snap.Files()
	var wg sync.WaitGroup
	for pi, ck := range t.cks {
		lines, errs := t.lines[pi], t.errs[pi]
		wg.Add(1)
		go func(ck checker.Checker) {
			defer wg.Done()
			for _, f := range files {
				r := engine.AnalyzeFile(fs[f], engine.Options{Checkers: []checker.Checker{ck}})
				lines[f] = resultLines(r.Reports)
				errs[f] = errStrings(r.RuntimeErrs)
			}
		}(ck)
	}
	wg.Wait()
}

// digest is the whole-corpus reference for pool checker pi.
func (t *fileTable) digest(pi int) string {
	var lines, errs []string
	for f := range t.lines[pi] {
		lines = append(lines, t.lines[pi][f]...)
		errs = append(errs, t.errs[pi][f]...)
	}
	return digestLines(lines, errs)
}

// applyToMirror commits a changeset to the mirror and refreshes the
// oracle for the touched files.
func (t *fileTable) applyToMirror(cb *scan.Codebase, cs []api.Change) error {
	res, err := cb.ApplyChangeset(scanChanges(cs))
	if err != nil {
		return fmt.Errorf("mirror changeset: %w", err)
	}
	var touched []int
	for _, fc := range res.Files {
		touched = append(touched, fc.File)
	}
	sort.Ints(touched)
	t.update(cb, touched)
	return nil
}

// newCodebase builds the canonical corpus in-process.
func newCodebase() (*scan.Codebase, error) {
	return scan.NewCodebase(kernel.Generate(kernel.Config{Seed: corpusSeed, Scale: corpusScale}))
}

// drawSequence draws the first n ops of a run's first round and returns
// their digest. commit-rescan ops are applied to a fresh corpus mirror
// in turn, as a run applies them.
func drawSequence(workload string, seed int64, pool []poolChecker, n int) (string, error) {
	var mirror *scan.Codebase
	if workload == "commit-rescan" {
		var err error
		if mirror, err = newCodebase(); err != nil {
			return "", err
		}
	}
	src := newOpSource(workload, segSeed(seed, 0), pool, mirror)
	for i := 0; i < n; i++ {
		o := src.next()
		if mirror != nil {
			if _, err := mirror.ApplyChangeset(scanChanges(o.changes)); err != nil {
				return "", fmt.Errorf("mirror changeset: %w", err)
			}
		}
	}
	return src.sequenceDigest(), nil
}

// selfCheck confirms the op sequence is a function of the seed: the
// same seed draws the same sequence twice and the next seed draws a
// different one. It returns the seed's sequence digest.
func selfCheck(workload string, seed int64, pool []poolChecker) (string, error) {
	const n = 24
	a, err := drawSequence(workload, seed, pool, n)
	if err != nil {
		return "", err
	}
	b, err := drawSequence(workload, seed, pool, n)
	if err != nil {
		return "", err
	}
	c, err := drawSequence(workload, seed+1, pool, n)
	if err != nil {
		return "", err
	}
	switch {
	case a != b:
		return "", fmt.Errorf("seed %d drew sequence %s, then %s", seed, a, b)
	case a == c:
		return "", fmt.Errorf("seeds %d and %d drew the same sequence %s", seed, seed+1, a)
	}
	return a, nil
}
