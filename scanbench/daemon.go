package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Process lifecycle. Every daemon is the built binary itself (never a
// `go run` wrapper, whose child would survive a kill of the wrapper),
// started in its own process group with Pdeathsig=SIGKILL. Linux fires
// Pdeathsig when the spawning OS *thread* exits, so every spawn goes
// through one goroutine locked to a thread that lives as long as the
// benchmark. A reaper process (this binary in -reap mode) outlives a
// SIGKILLed benchmark just long enough to kill any registered process
// group and remove the registered temp directories.

const (
	healthTimeout = 30 * time.Second
	drainTimeout  = 5 * time.Second
	reapWait      = 3 * time.Second
)

type spawnReq struct {
	cmd   *exec.Cmd
	reply chan error
}

// procs owns every child process and temp directory of one benchmark run.
type procs struct {
	bin  string // directory holding the kserve and kcached binaries
	tmp  string // parent of every temp directory
	logs string // the daemons' log files

	spawnCh chan spawnReq

	mu     sync.Mutex
	live   map[*daemon]bool
	dirs   map[string]bool
	reaper *exec.Cmd
	reapIn io.WriteCloser
	closed bool
}

func newProcs(bin, tmp string) (*procs, error) {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("temp root: %w", err)
	}
	p := &procs{bin: bin, tmp: tmp, spawnCh: make(chan spawnReq),
		live: map[*daemon]bool{}, dirs: map[string]bool{}}
	go p.spawnLoop()
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate self for the reaper: %w", err)
	}
	r := exec.Command(self, "-reap")
	// Its own group, and no Pdeathsig: the reaper must survive us. It
	// ignores SIGINT/SIGTERM and exits when its stdin (our pipe) closes.
	r.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	r.Stderr = os.Stderr
	in, err := r.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("reaper pipe: %w", err)
	}
	if err := r.Start(); err != nil {
		return nil, fmt.Errorf("start reaper: %w", err)
	}
	p.reaper, p.reapIn = r, in
	logf("reaper pid=%d", r.Process.Pid)
	if p.logs, err = p.tempDir("logs"); err != nil {
		return nil, errors.Join(err, p.shutdown())
	}
	return p, nil
}

// spawnLoop runs every cmd.Start on one locked OS thread. The goroutine
// never returns, so the thread (and with it the children's Pdeathsig
// trigger) lives exactly as long as the benchmark process.
func (p *procs) spawnLoop() {
	runtime.LockOSThread()
	for req := range p.spawnCh {
		req.reply <- req.cmd.Start()
	}
}

// tell sends one registration line to the reaper.
func (p *procs) tell(format string, args ...any) {
	if p.reapIn != nil {
		fmt.Fprintf(p.reapIn, format+"\n", args...)
	}
}

// tempDir makes a registered temp directory under the run's temp root.
func (p *procs) tempDir(prefix string) (string, error) {
	d, err := os.MkdirTemp(p.tmp, prefix+"-*")
	if err != nil {
		return "", fmt.Errorf("temp dir: %w", err)
	}
	p.mu.Lock()
	p.dirs[d] = true
	p.tell("dir %s", d)
	p.mu.Unlock()
	return d, nil
}

// removeDir deletes a registered temp directory.
func (p *procs) removeDir(d string) error {
	err := os.RemoveAll(d)
	p.mu.Lock()
	delete(p.dirs, d)
	p.tell("undir %s", d)
	p.mu.Unlock()
	if err != nil {
		return fmt.Errorf("remove temp dir: %w", err)
	}
	return nil
}

// daemon is one running kserve or kcached.
type daemon struct {
	name   string
	url    string
	cmd    *exec.Cmd
	log    string // stdout and stderr, a file so no pipe copy runs in this process
	exited chan struct{}
}

// freeAddr picks a loopback port for a daemon to listen on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// start spawns binary name (kserve or kcached) with args plus -addr, and
// waits a bounded time for /healthz. A child that exits early fails the
// start at once, with its stderr.
func (p *procs) start(ctx context.Context, label, binary string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("%s: pick port: %w", label, err)
	}
	cmd := exec.Command(filepath.Join(p.bin, binary), append([]string{"-addr", addr}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	logFile, err := os.CreateTemp(p.logs, label+"-*.log")
	if err != nil {
		return nil, fmt.Errorf("%s: log file: %w", label, err)
	}
	defer logFile.Close() // the child holds its own descriptor
	d := &daemon{name: label, url: "http://" + addr, cmd: cmd, log: logFile.Name(), exited: make(chan struct{})}
	cmd.Stdout = logFile
	cmd.Stderr = logFile

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("benchmark is shutting down")
	}
	req := spawnReq{cmd: cmd, reply: make(chan error)}
	p.spawnCh <- req
	if err := <-req.reply; err != nil {
		p.mu.Unlock()
		return nil, fmt.Errorf("%s: start: %w", label, err)
	}
	p.live[d] = true
	p.tell("pgid %d", cmd.Process.Pid)
	p.mu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status is reported with the log on early exit
		close(d.exited)
	}()
	logf("spawned %s pid=%d %s %s", label, cmd.Process.Pid, binary, strings.Join(cmd.Args[1:], " "))

	if err := d.waitHealthy(ctx); err != nil {
		p.stop(d)
		return nil, err
	}
	return d, nil
}

func (d *daemon) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(healthTimeout)
	hc := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before it was healthy (%v); log:\n%s", d.name, d.cmd.ProcessState, d.logTail())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %s; log:\n%s", d.name, healthTimeout, d.logTail())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// vmHWM reads the daemon's peak resident set size in MB from /proc.
func (d *daemon) vmHWM() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("%s: read status: %w", d.name, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: parse VmHWM %q: %w", d.name, line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", d.name)
}

// stop tears one daemon down: SIGTERM, a bounded drain, SIGKILL to the
// whole group, then Wait (through the exited channel).
func (p *procs) stop(d *daemon) {
	pid := d.cmd.Process.Pid
	_ = syscall.Kill(pid, syscall.SIGTERM) // ESRCH just means it already exited
	select {
	case <-d.exited:
	case <-time.After(drainTimeout):
		logf("%s pid=%d did not drain in %s; killing its group", d.name, pid, drainTimeout)
	}
	_ = syscall.Kill(-pid, syscall.SIGKILL)
	<-d.exited
	p.mu.Lock()
	delete(p.live, d)
	p.tell("unpgid %d", pid)
	p.mu.Unlock()
	_ = os.Remove(d.log) // the logs directory goes at shutdown anyway
}

// shutdown stops every live daemon, removes every temp directory, and
// lets the reaper exit. Safe to call more than once.
func (p *procs) shutdown() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	var ds []*daemon
	for d := range p.live {
		ds = append(ds, d)
	}
	p.mu.Unlock()
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func(d *daemon) {
			defer wg.Done()
			p.stop(d)
		}(d)
	}
	wg.Wait()
	var errs []error
	p.mu.Lock()
	var dirs []string
	for d := range p.dirs {
		dirs = append(dirs, d)
	}
	p.mu.Unlock()
	for _, d := range dirs {
		if err := p.removeDir(d); err != nil {
			errs = append(errs, err)
		}
	}
	if p.reaper != nil {
		p.reapIn.Close()
		if err := p.reaper.Wait(); err != nil {
			errs = append(errs, fmt.Errorf("reaper: %w", err))
		}
	}
	return errors.Join(errs...)
}

// runReaper is the -reap mode: record the process groups and temp
// directories the benchmark registers on stdin, and when stdin closes —
// a clean shutdown, or the benchmark dying by any signal — kill the
// groups still registered and remove the directories.
func runReaper() {
	signal.Ignore(syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	groups := map[int]bool{}
	dirs := map[string]bool{}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		kind, arg, _ := strings.Cut(sc.Text(), " ")
		switch kind {
		case "pgid", "unpgid":
			if n, err := strconv.Atoi(arg); err == nil {
				groups[n] = kind == "pgid"
			}
		case "dir", "undir":
			dirs[arg] = kind == "dir"
		}
	}
	for g, live := range groups {
		if !live {
			continue
		}
		_ = syscall.Kill(-g, syscall.SIGKILL)
		for deadline := time.Now().Add(reapWait); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			if syscall.Kill(-g, 0) != nil {
				break
			}
		}
	}
	for d, live := range dirs {
		if live {
			if err := os.RemoveAll(d); err != nil {
				fmt.Fprintln(os.Stderr, "scanbench reaper:", err)
			}
		}
	}
}

// logTail returns the end of the daemon's log.
func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.log)
	if err != nil {
		return err.Error()
	}
	if len(b) > 8<<10 {
		b = b[len(b)-8<<10:]
	}
	return string(b)
}
