package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one promipsd child serving an index directory on loopback.
type server struct {
	pid     int
	base    string // http://127.0.0.1:port
	pidFile string
	logPath string
	exited  chan struct{} // closed once the child has been waited for
	waitErr error         // valid after exited is closed
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux platform Go supports.
const clockTick = 100

// pidFileName holds "<pid> <port>" of the live child, so that a later run
// can tell whether an earlier child is still listening.
const pidFileName = "promipsd.pid"

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// checkNoStaleChild refuses to run beside a promipsd an earlier harness
// left behind: two servers on two cores would measure each other.
func checkNoStaleChild(workDir string) error {
	path := filepath.Join(workDir, pidFileName)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var pid, port int
	if _, err := fmt.Sscanf(string(b), "%d %d", &pid, &port); err != nil {
		return os.Remove(path)
	}
	cmdline, _ := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
	if !bytes.Contains(cmdline, []byte("promipsd")) {
		return os.Remove(path)
	}
	if c, err := net.DialTimeout("tcp", fmt.Sprintf("127.0.0.1:%d", port), time.Second); err == nil {
		c.Close()
		return fmt.Errorf("a previous promipsd child (pid %d) is still listening on port %d; kill it and remove %s", pid, port, path)
	}
	return os.Remove(path)
}

// startServer launches promipsd over dir with its default flags and waits
// until /v1/readyz answers 200. The child gets its own process group, and
// the kernel kills it if this process dies first.
func startServer(ctx context.Context, bin, dir, workDir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	s := &server{
		base:    fmt.Sprintf("http://127.0.0.1:%d", port),
		pidFile: filepath.Join(workDir, pidFileName),
		logPath: dir + ".log",
		exited:  make(chan struct{}),
	}
	logFile, err := os.Create(s.logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-dir", dir, "-addr", fmt.Sprintf("127.0.0.1:%d", port))
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	started := make(chan error, 1)
	// Pdeathsig fires when the THREAD that forked exits, so the child is
	// started from, and waited for on, one goroutine locked to its thread.
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		err := cmd.Start()
		logFile.Close()
		started <- err
		if err != nil {
			return
		}
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s.pid = cmd.Process.Pid
	if err := os.WriteFile(s.pidFile, []byte(fmt.Sprintf("%d %d\n", s.pid, port)), 0o644); err != nil {
		s.kill()
		return nil, err
	}
	if err := s.waitReady(ctx); err != nil {
		s.kill()
		return nil, fmt.Errorf("%w\n%s", err, s.logTail())
	}
	return s, nil
}

func (s *server) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("promipsd exited before it was ready: %v", s.waitErr)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := http.Get(s.base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("promipsd not ready after 60s")
}

// stop ends the child with SIGTERM (it drains, Saves and exits 0), falling
// back to SIGKILL, and returns once it has been waited for.
func (s *server) stop() error {
	syscall.Kill(-s.pid, syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.kill()
		return errors.New("promipsd did not exit within 30s of SIGTERM; killed")
	}
	os.Remove(s.pidFile)
	if s.waitErr != nil {
		return fmt.Errorf("promipsd: %w\n%s", s.waitErr, s.logTail())
	}
	return nil
}

// kill ends the child's whole process group at once and waits for it. It
// is safe to call after stop.
func (s *server) kill() {
	select {
	case <-s.exited:
	default:
		syscall.Kill(-s.pid, syscall.SIGKILL)
		<-s.exited
	}
	os.Remove(s.pidFile)
}

func (s *server) logTail() string {
	b, _ := os.ReadFile(s.logPath)
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return string(b)
}

// cpuSeconds returns the child's user+system CPU time so far.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTick, nil
}

// rssMB returns a line of the child's /proc status in MB: VmRSS, the
// resident set now, or VmHWM, its high-water mark.
func (s *server) rssMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, s.pid)
}

// selfCPUSeconds returns this process's user+system CPU time so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
