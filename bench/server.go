package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles ./cmd/ersolve of the surrounding repository (the
// parent of bench/) into dir and returns the binary's path and how long
// the build took. Build time is reported on its own, never inside setup_s.
func buildServer(ctx context.Context, dir string) (string, time.Duration, error) {
	bin := filepath.Join(dir, "ersolve")
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/ersolve")
	cmd.Dir = repoRoot
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("building cmd/ersolve: %w\n%s", err, out.String())
	}
	return bin, time.Since(start), nil
}

// live tracks every server subprocess so any exit path — error return,
// panic, signal, watchdog — can kill what is still running.
var live struct {
	sync.Mutex
	procs map[*server]struct{}
}

func killAllServers() {
	live.Lock()
	procs := make([]*server, 0, len(live.procs))
	for s := range live.procs {
		procs = append(procs, s)
	}
	live.Unlock()
	for _, s := range procs {
		s.kill()
	}
}

// server is one `ersolve serve` subprocess.
type server struct {
	base   string // http://127.0.0.1:port
	pid    int
	cmd    *exec.Cmd
	exited chan struct{}
	log    *os.File
	// peakRSSMB is VmHWM read just before the process was killed.
	peakRSSMB float64
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer execs the binary. The child is started from a goroutine
// pinned to its OS thread for the child's whole life, because Pdeathsig
// fires when the forking *thread* dies: with it, even a SIGKILLed bench
// takes its server down.
func startServer(ctx context.Context, bin, dataDir, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	args := []string{"serve", "-addr", fmt.Sprintf("127.0.0.1:%d", port)}
	if dataDir != "" {
		args = append(args, "-data", dataDir)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{base: fmt.Sprintf("http://127.0.0.1:%d", port), cmd: cmd, exited: make(chan struct{}), log: logf}
	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		err := cmd.Start()
		started <- err
		if err == nil {
			_ = cmd.Wait() // a killed server's exit status is expected
		}
		close(s.exited)
	}()
	select {
	case err := <-started:
		if err != nil {
			logf.Close()
			return nil, fmt.Errorf("starting %s: %w", bin, err)
		}
	case <-ctx.Done():
		// Start is quick and not cancelable; pick up its result, then undo.
		if err := <-started; err == nil {
			_ = cmd.Process.Kill()
			<-s.exited
		}
		logf.Close()
		return nil, ctx.Err()
	}
	s.pid = cmd.Process.Pid
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*server]struct{})
	}
	live.procs[s] = struct{}{}
	live.Unlock()
	return s, nil
}

// kill SIGKILLs the server (no drain, no flush — the crash the restart
// phase recovers from), waits until it is gone, and records its peak RSS.
func (s *server) kill() {
	live.Lock()
	_, running := live.procs[s]
	delete(live.procs, s)
	live.Unlock()
	if !running {
		return
	}
	if rss, err := procStatusMB(s.pid, "VmHWM"); err == nil {
		s.peakRSSMB = rss
	}
	_ = s.cmd.Process.Kill()
	<-s.exited
	s.log.Close()
}

// procStatusMB reads one kB-valued field of /proc/pid/status as MB.
func procStatusMB(pid int, field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}

// procCPUSeconds reads the process's user+system CPU time.
func procCPUSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat is malformed", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat has non-numeric cpu times", pid)
	}
	const clockTicks = 100 // USER_HZ on every Linux this runs on
	return (ut + st) / clockTicks, nil
}

// procWriteBytes reads the process's wchar: bytes it has passed to
// write(2) and its kin — files and sockets alike — since it started.
func procWriteBytes(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar:"); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/io has no wchar", pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// waitReady polls /readyz until it answers 200. A refused connection (the
// listener is not up yet) and the bootstrap handler's 503 both mean "not
// yet"; the server exiting means it never will.
func (s *server) waitReady(ctx context.Context, c *client) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if status, _, err := c.do(ctx, "GET", s.base+"/readyz", nil); err == nil && status == 200 {
			return nil
		}
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before it was ready")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return fmt.Errorf("server not ready after 60s")
}
