package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks the processes this run started, so that a run which
// overruns its deadline can stop them before it exits.
var children struct {
	sync.Mutex
	live map[*exec.Cmd]bool
}

// startChild starts cmd, killed with SIGKILL should this process die
// first, and tracks it until reapChild.
func startChild(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	children.Lock()
	defer children.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	if children.live == nil {
		children.live = map[*exec.Cmd]bool{}
	}
	children.live[cmd] = true
	return nil
}

// waitChild waits for a child started by startChild and stops tracking it.
func waitChild(cmd *exec.Cmd) error {
	err := cmd.Wait()
	children.Lock()
	delete(children.live, cmd)
	children.Unlock()
	return err
}

// killChildren kills every tracked child; the run is giving up.
func killChildren() {
	children.Lock()
	defer children.Unlock()
	for cmd := range children.live {
		_ = cmd.Process.Kill()
	}
}

// serverProc is one dqm-serve process under test.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	// exited is closed once the process has exited and been reaped; state
	// is valid after that.
	exited chan struct{}
	state  *os.ProcessState
	// listening is closed when the server logs that it is listening.
	listening chan struct{}
	logMu     sync.Mutex
	log       bytes.Buffer
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches dqm-serve on addr with the given flags and returns
// once /healthz answers 200, with the time that took from just before the
// process started. Recovery of a durable data dir finishes before the server
// listens, so the time covers it.
func startServer(bin, addr string, gomaxprocs int, flags ...string) (*serverProc, time.Duration, error) {
	args := append([]string{"-addr", addr}, flags...)
	cmd := exec.Command(filepath.Join(bin, "dqm-serve"), args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, 0, err
	}
	cmd.Stderr = pw
	p := &serverProc{cmd: cmd, addr: addr, exited: make(chan struct{}), listening: make(chan struct{})}
	start := time.Now()
	if err := startChild(cmd); err != nil {
		pr.Close()
		pw.Close()
		return nil, 0, err
	}
	pw.Close()
	go p.readLog(pr)
	go func() {
		_ = waitChild(cmd)
		p.state = cmd.ProcessState
		close(p.exited)
	}()
	if err := p.waitHealthy(30 * time.Second); err != nil {
		p.kill()
		return nil, 0, err
	}
	return p, time.Since(start), nil
}

// readLog drains the server's stderr, keeping it for error reports, and
// signals the "listening" line.
func (p *serverProc) readLog(r io.ReadCloser) {
	defer r.Close()
	sc := bufio.NewScanner(r)
	signaled := false
	for sc.Scan() {
		line := sc.Text()
		p.logMu.Lock()
		if p.log.Len() < 64<<10 {
			p.log.WriteString(line)
			p.log.WriteByte('\n')
		}
		p.logMu.Unlock()
		if !signaled && strings.Contains(line, "listening on") {
			signaled = true
			close(p.listening)
		}
	}
}

func (p *serverProc) logText() string {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	return p.log.String()
}

// waitHealthy blocks until the listening line, then polls /healthz on a
// fresh connection per attempt, backing off 100µs, until it answers 200.
func (p *serverProc) waitHealthy(timeout time.Duration) error {
	deadline := time.After(timeout)
	select {
	case <-p.listening:
	case <-p.exited:
		return fmt.Errorf("dqm-serve exited before listening: %s\n%s", p.state, p.logText())
	case <-deadline:
		return fmt.Errorf("dqm-serve did not log listening within %s\n%s", timeout, p.logText())
	}
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 2 * time.Second}
	for {
		resp, err := hc.Get("http://" + p.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.exited:
			return fmt.Errorf("dqm-serve exited during start-up: %s\n%s", p.state, p.logText())
		case <-deadline:
			return fmt.Errorf("dqm-serve not healthy within %s (last error %v)", timeout, err)
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// alive reports whether the process is still running.
func (p *serverProc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// kill sends SIGKILL and waits until the process is reaped.
func (p *serverProc) kill() {
	if p.alive() {
		_ = p.cmd.Process.Kill()
	}
	<-p.exited
}

// procCPU returns the CPU time the process's threads have used: the sum of
// each thread's run time in /proc/<pid>/task/*/schedstat, which counts in
// nanoseconds where /proc/<pid>/stat counts 10 ms ticks.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		return 0, fmt.Errorf("process %d has no schedstat", pid)
	}
	var total time.Duration
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			// The thread exited between the listing and the read.
			continue
		}
		f := strings.Fields(string(b))
		if len(f) < 1 {
			return 0, fmt.Errorf("malformed %s", path)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s: %v", path, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// procHWM returns the process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files of src into dst, keeping the layout.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// calibrate times a fixed CPU kernel, SHA-256 over 128 MiB, in
// milliseconds. It records ambient machine speed beside each run's figures
// and is never used to normalise them.
func calibrate() float64 {
	buf := make([]byte, 4<<20)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	start := time.Now()
	h := sha256.New()
	for i := 0; i < 32; i++ {
		h.Write(buf)
	}
	h.Sum(nil)
	return float64(time.Since(start)) / 1e6
}

// fsType names the filesystem holding path, from /proc/mounts (longest
// matching mount point).
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// rusageMaxRSS is the peak resident set of an exited child in MiB.
func rusageMaxRSS(st *os.ProcessState) float64 {
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}
