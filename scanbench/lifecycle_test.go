package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildBench builds kserve, kcached and the benchmark into a temp dir.
func buildBench(t *testing.T) (bin, work string) {
	t.Helper()
	dir := t.TempDir()
	bin = filepath.Join(dir, "bin")
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "knighter/cmd/kserve", "knighter/cmd/kcached", ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin, filepath.Join(dir, "work")
}

var pidLine = regexp.MustCompile(`(?:spawned \S+|reaper) pid=(\d+)`)

// alive reports whether pid names a process that has not exited. A
// zombie has exited; only its parent's reaping is outstanding.
func alive(pid int) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	return i < 0 || i+2 >= len(s) || s[i+2] != 'Z'
}

// interruptMidOp starts a fleet-warm run, waits until its first round
// is timing ops, lets a few ops go by, sends sig, and returns the pids
// the benchmark reported (daemons and reaper), its exit error and its
// stdout.
func interruptMidOp(t *testing.T, sig syscall.Signal) (pids []int, work string, waitErr error, stdout string) {
	t.Helper()
	bin, work := buildBench(t)
	cmd := exec.Command(filepath.Join(bin, "scanbench"), "-workload", "fleet-warm", "-seed", "3",
		"-seconds", "60", "-trace", "0", "-bin", bin, "-work", work)
	var out bytes.Buffer
	cmd.Stdout = &out
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	timing := make(chan struct{})
	lines := make(chan []int)
	go func() {
		var seen []int
		sc := bufio.NewScanner(stderr)
		once := false
		for sc.Scan() {
			if m := pidLine.FindStringSubmatch(sc.Text()); m != nil {
				n, _ := strconv.Atoi(m[1])
				seen = append(seen, n)
			}
			if !once && strings.Contains(sc.Text(), "timing ops") {
				once = true
				close(timing)
			}
		}
		lines <- seen
	}()
	select {
	case <-timing:
	case <-time.After(120 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("benchmark never reached its timed ops")
	}
	time.Sleep(700 * time.Millisecond) // a few 200 ms fleet-warm ops in
	if err := cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case waitErr = <-done:
	case <-time.After(60 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatal("benchmark did not exit within 60s of the signal")
	}
	return <-lines, work, waitErr, out.String()
}

// assertNothingLeft polls briefly: after a SIGKILL the children die by
// Pdeathsig and the reaper cleans up asynchronously.
func assertNothingLeft(t *testing.T, pids []int, work string, within time.Duration) {
	t.Helper()
	if len(pids) < 4 {
		t.Fatalf("benchmark reported only %d pids (want reaper, kcached, A, B): %v", len(pids), pids)
	}
	deadline := time.Now().Add(within)
	for {
		var live []int
		for _, p := range pids {
			if alive(p) {
				live = append(live, p)
			}
		}
		left, err := os.ReadDir(filepath.Join(work, "tmp"))
		if err != nil {
			t.Fatal(err)
		}
		if len(live) == 0 && len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the benchmark exited: live pids %v, temp dirs left %d", live, len(left))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestSIGTERMMidOpLeavesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet")
	}
	pids, work, err, stdout := interruptMidOp(t, syscall.SIGTERM)
	if err == nil {
		t.Fatal("interrupted benchmark exited 0")
	}
	if strings.TrimSpace(stdout) != "" {
		t.Fatalf("interrupted benchmark printed a result: %q", stdout)
	}
	// A clean shutdown has already waited for every child and removed
	// every directory by the time the process exits.
	assertNothingLeft(t, pids, work, 0)
}

func TestSIGKILLLeavesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet")
	}
	pids, work, err, _ := interruptMidOp(t, syscall.SIGKILL)
	if err == nil {
		t.Fatal("killed benchmark exited 0")
	}
	assertNothingLeft(t, pids, work, 10*time.Second)
}

// TestSeedDeterminism: one seed gives one op sequence and one set of
// expected report digests; another seed gives another sequence.
func TestSeedDeterminism(t *testing.T) {
	pool := buildPool()
	for _, w := range workloads {
		if _, err := selfCheck(w, 5, pool); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
	// The commit-rescan oracle advances with the changesets, so its
	// expected digests must repeat too.
	expected := func() string {
		mirror, err := newCodebase()
		if err != nil {
			t.Fatal(err)
		}
		src := newOpSource("commit-rescan", 5, pool, mirror)
		table, err := newFileTable(mirror, pool, src.deployed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := 0; i < 8; i++ {
			o := src.next()
			if err := table.applyToMirror(mirror, o.changes); err != nil {
				t.Fatal(err)
			}
			for _, pi := range o.batch {
				out = append(out, table.digest(pi))
			}
		}
		return strings.Join(out, ",")
	}
	if a, b := expected(), expected(); a != b {
		t.Errorf("commit-rescan expected digests differ between two draws of one seed")
	}
}
