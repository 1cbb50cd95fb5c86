package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// serverProc is one exec'd selfheal-serve.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// live holds the running servers, for killAll.
var live sync.Map

// killAll SIGKILLs every running server and waits for each; the
// benchmark calls it when interrupted.
func killAll() {
	live.Range(func(k, _ any) bool {
		k.(*serverProc).kill()
		return true
	})
}

// serverArgs is the configuration every workload runs: a fresh
// journal directory (fsync per group commit, the shipped policy), the
// engine with the guard on a manual clock the generator ticks, and
// defaults for everything else.
func serverArgs(addr, dataDir string) []string {
	return []string{"-addr", addr, "-data", dataDir, "-engine", "-guard", "-epoch", "-1s"}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer execs the server on dataDir, appending its log to
// logPath. The caller must kill it.
func startServer(bin, dataDir, logPath string) (*serverProc, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, serverArgs(addr, dataDir)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If perfbench dies, the kernel kills the server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	live.Store(s, true)
	go func() {
		defer live.Delete(s)
		s.err = cmd.Wait()
		logf.Close()
		close(s.done)
	}()
	return s, nil
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// waitReady polls /readyz until it answers 200.
func (s *serverProc) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.done:
			return fmt.Errorf("server exited before ready: %v", s.err)
		default:
		}
		resp, err := c.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill SIGKILLs the server (a crash, not a shutdown) and waits until
// it is gone. Safe to call twice.
func (s *serverProc) kill() {
	select {
	case <-s.done:
		return
	default:
	}
	s.cmd.Process.Kill()
	<-s.done
}
