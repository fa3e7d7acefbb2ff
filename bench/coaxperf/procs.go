package main

// Process hygiene: every coaxserve the harness starts lives in its own
// process group, logs to bench/out/*.log, and is killed (and waited for) on
// every exit path — normal return, fatal error, SIGINT/SIGTERM, and, through
// Pdeathsig, a crash of the harness itself.

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returned
}

// procSet tracks the live children so any exit path can reap them.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

var children procSet

// start launches bin with args in its own process group, stdout and stderr
// captured to logPath.
func (ps *procSet) start(name, bin, logPath string, args ...string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: lf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop terminates the process group — SIGTERM first so the server drains,
// SIGKILL if it lingers — and returns once the process has been reaped.
func (p *proc) stop() {
	if !p.exited() {
		syscall.Kill(-p.pid(), syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(2 * time.Second):
			syscall.Kill(-p.pid(), syscall.SIGKILL)
			<-p.done
		}
	}
	p.log.Close()
}

// stopAll reaps every child started so far; safe to call more than once.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
}

// stopProcs reaps exactly the given children and forgets them.
func (ps *procSet) stopProcs(procs []*proc) {
	for _, p := range procs {
		p.stop()
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	kept := ps.procs[:0]
	for _, q := range ps.procs {
		gone := false
		for _, p := range procs {
			gone = gone || p == q
		}
		if !gone {
			kept = append(kept, q)
		}
	}
	ps.procs = kept
}

// reapOnSignal kills the children when the harness is interrupted.
func reapOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		children.stopAll()
		os.Exit(130)
	}()
}

// staleServers lists running processes whose executable is bin — servers an
// earlier run left behind would share the CPUs and spoil every number.
func staleServers(bin string) []int {
	var pids []int
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err == nil && strings.TrimSuffix(exe, " (deleted)") == bin {
			pids = append(pids, pid)
		}
	}
	return pids
}

// freeAddr reserves an ephemeral loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitHealthy polls GET /healthz until it answers 200, the process exits,
// or the deadline passes.
func waitHealthy(p *proc, addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up (see %s)", p.name, p.log.Name())
		}
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %v (see %s)", p.name, timeout, p.log.Name())
}

// waitListening polls until addr accepts TCP connections: a cluster node
// has no HTTP surface and binds its wire port only after its shards are
// built, so an accepted connection is its readiness signal.
func waitListening(p *proc, addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up (see %s)", p.name, p.log.Name())
		}
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not listening after %v (see %s)", p.name, timeout, p.log.Name())
}

// procUsage reads one process's cumulative CPU time (user + system) and its
// resident set size from /proc.
func procUsage(pid int) (cpu time.Duration, rssBytes int64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 22 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	rssPages, _ := strconv.ParseInt(f[21], 10, 64)
	const clkTck = 100 // USER_HZ is fixed at 100 on Linux
	cpu = time.Duration(utime+stime) * time.Second / clkTck
	return cpu, rssPages * int64(os.Getpagesize()), nil
}

// usage sums procUsage over a deployment's server processes.
func usage(procs []*proc) (cpu time.Duration, rssBytes int64, err error) {
	for _, p := range procs {
		c, r, e := procUsage(p.pid())
		if e != nil {
			return 0, 0, fmt.Errorf("%s: %w", p.name, e)
		}
		cpu += c
		rssBytes += r
	}
	return cpu, rssBytes, nil
}
