package main

import (
	"errors"
	"fmt"
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

// harness owns everything a run leaves outside its own memory: the built
// binaries, the work directory and the daemon processes. cleanup undoes all
// of it and is safe to call from a deferred call, a panic and a signal
// handler at once.
type harness struct {
	root    string // repository root (the directory of the blobindex go.mod)
	binDir  string
	workDir string
	buildS  float64

	mu      sync.Mutex
	daemons []*daemon
}

// daemon is one running blobserved or blobrouted.
type daemon struct {
	role string // "server", "router" or "shards": the proc.<role>.* metric it feeds
	addr string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed when Wait has returned
}

// build compiles the two daemons from the checkout's own source. The go
// command's cache makes every run after the first a no-op of a few hundred
// milliseconds, which is why the build is timed apart from set-up.
func (h *harness) build() error {
	start := time.Now()
	if err := os.MkdirAll(h.binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", h.binDir+string(filepath.Separator), "./cmd/blobserved", "./cmd/blobrouted")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build daemons: %v\n%s", err, out)
	}
	h.buildS = time.Since(start).Seconds()
	return nil
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the daemon binds it; nothing else on a benchmark box
// races for it in the microseconds between.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// start boots bin on a fresh port and waits until it answers /readyz.
func (h *harness) start(role, bin string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(h.workDir, fmt.Sprintf("%s-%s.log", bin, strings.ReplaceAll(addr, ":", "_")))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(h.binDir, bin), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Own process group, so one kill reaches anything the daemon might
	// spawn; Pdeathsig, so a kill -9 of the benchmark cannot strand it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{role: role, addr: addr, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a daemon we signal ourselves carries nothing
		close(d.done)
	}()
	h.mu.Lock()
	h.daemons = append(h.daemons, d)
	h.mu.Unlock()
	if err := d.waitReady(10 * time.Second); err != nil {
		tail, _ := os.ReadFile(logPath)
		d.stop()
		return nil, fmt.Errorf("%s on %s: %w\n%s", bin, addr, err, tail)
	}
	return d, nil
}

func (d *daemon) waitReady(timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.done:
			return errors.New("exited before becoming ready")
		default:
		}
		resp, err := hc.Get("http://" + d.addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %s (last error: %v)", timeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the daemon to drain, then kills its process group, and returns
// only once the process has been reaped.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return
	case <-time.After(3 * time.Second):
	}
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	<-d.done
}

// stopAll stops every daemon started so far, in parallel.
func (h *harness) stopAll() {
	h.mu.Lock()
	ds := h.daemons
	h.daemons = nil
	h.mu.Unlock()
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.stop()
		}()
	}
	wg.Wait()
}

// cleanup stops the daemons and removes the work directory.
func (h *harness) cleanup() {
	h.stopAll()
	if h.workDir != "" {
		_ = os.RemoveAll(h.workDir)
	}
}

// procSample is one reading of /proc/<pid> for a set of daemons.
type procSample struct {
	cpuTicks  int64 // utime+stime, summed
	peakRSSKB int64 // VmHWM, summed
}

// sampleProcs reads CPU time and peak resident memory of the daemons with
// the given role. A daemon that has gone away contributes nothing; the
// error_rate catches that, not this.
func sampleProcs(ds []*daemon, role string) procSample {
	var s procSample
	for _, d := range ds {
		if d.role != role {
			continue
		}
		pid := d.cmd.Process.Pid
		if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
			// Fields after the parenthesised command name: state is field 3,
			// utime and stime fields 14 and 15.
			if i := strings.LastIndexByte(string(b), ')'); i >= 0 {
				f := strings.Fields(string(b[i+1:]))
				if len(f) > 12 {
					ut, _ := strconv.ParseInt(f[11], 10, 64)
					st, _ := strconv.ParseInt(f[12], 10, 64)
					s.cpuTicks += ut + st
				}
			}
		}
		if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
					kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
					s.peakRSSKB += kb
				}
			}
		}
	}
	return s
}

// clockTickMS is the length of one /proc CPU tick. Linux reports USER_HZ =
// 100 on every architecture Go supports.
const clockTickMS = 10.0

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
