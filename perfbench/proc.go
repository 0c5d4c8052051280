package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The server runs as a child process in its own process group, so a
// single signal reaches it and anything it might start. stop is the
// only way a server ends: SIGTERM, a bounded wait for the graceful
// drain, then SIGKILL to the group and a reap. Every exit path of the
// benchmark (success, failed check, run timeout, SIGINT/SIGTERM) runs
// it through a deferred call; Pdeathsig covers the benchmark itself
// being killed outright.

const (
	readyTimeout = 15 * time.Second // boot to a healthy /healthz
	termGrace    = 5 * time.Second  // SIGTERM to exit, before SIGKILL
	killGrace    = 5 * time.Second  // SIGKILL to reaped
)

// serverCores is the GOMAXPROCS the server runs with: all cores up to 4.
func serverCores() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	log    *os.File
}

// freePort binds 127.0.0.1:0 and returns the port the kernel chose.
// htdserve logs its -addr flag rather than the bound address, so the
// port is chosen here and passed in.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer boots bin with the per-request timeout the workload uses
// (bounding the drain on SIGTERM) and waits for /healthz.
func startServer(ctx context.Context, bin string, timeout time.Duration, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-timeout", timeout.String())
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverCores()))
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitReady(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) waitReady(ctx context.Context) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before ready: %v", s.cmd.ProcessState)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("server not ready within " + readyTimeout.String())
}

// stop ends the server and its process group and reaps it; it is
// idempotent and safe on every path.
func (s *server) stop() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	pgid := s.cmd.Process.Pid
	select {
	case <-s.exited:
	default:
		syscall.Kill(-pgid, syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(termGrace):
		}
	}
	// Kill whatever is left of the group (the server if it ignored
	// SIGTERM, any process it started), then wait for the reap.
	syscall.Kill(-pgid, syscall.SIGKILL)
	select {
	case <-s.exited:
	case <-time.After(killGrace):
		fmt.Fprintf(os.Stderr, "perfbench: server pid %d not reaped after SIGKILL\n", pgid)
	}
	s.log.Close()
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM in /proc status")
}
