// Package harness holds what the smoke tests under scripts/ share:
// failing with the smoke's name, reserving loopback ports, building
// selfheal-serve, running server processes, and HTTP calls against
// them. Each smoke keeps its own assertions, constants and wire views.
package harness

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Client carries every Get and Post. It has no timeout unless a smoke
// sets one.
var Client = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}

var (
	mu      sync.Mutex
	started []*Server // killed by Fatalf, so a failed smoke leaves no server behind
)

// Fatalf prints a failure prefixed with the smoke's name (its command
// name, as go run builds it), kills every server Start launched, and
// exits 1.
func Fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, filepath.Base(os.Args[0])+": FAIL: "+format+"\n", args...)
	mu.Lock()
	for _, s := range started {
		s.cmd.Process.Kill()
	}
	os.Exit(1)
}

// FreePort reserves an ephemeral loopback address. Closing the
// listener before the server binds it is a small race, acceptable on
// an otherwise idle CI box.
func FreePort() string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		Fatalf("reserve port: %v", err)
	}
	defer l.Close()
	return l.Addr().String()
}

// Build compiles ./cmd/selfheal-serve into dir, with the race detector
// when race is set, and returns the binary's path.
func Build(dir string, race bool) string {
	bin := filepath.Join(dir, "selfheal-serve")
	args := []string{"build"}
	if race {
		args = append(args, "-race")
	}
	build := exec.Command("go", append(args, "-o", bin, "./cmd/selfheal-serve")...)
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		Fatalf("build selfheal-serve (race=%v): %v", race, err)
	}
	return bin
}

// Server is one selfheal-serve process.
type Server struct {
	Name string // names the process in failure messages
	Base string // http://addr
	cmd  *exec.Cmd
	done bool
}

// Start runs bin -addr addr with the caller's flags, its output going
// to stdout and stderr.
func Start(name, bin, addr string, stdout, stderr io.Writer, args ...string) *Server {
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Start(); err != nil {
		Fatalf("start %s: %v", name, err)
	}
	s := &Server{Name: name, Base: "http://" + addr, cmd: cmd}
	mu.Lock()
	started = append(started, s)
	mu.Unlock()
	return s
}

// WaitHealthy polls /healthz until it answers 200, failing the smoke
// after timeout.
func (s *Server) WaitHealthy(timeout time.Duration) {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); {
		if st, _ := Get(s.Base + "/healthz"); st == http.StatusOK {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	Fatalf("%s never became healthy at %s", s.Name, s.Base)
}

// Stop shuts the server down gracefully: SIGTERM, then wait for it to
// exit. Idle keep-alive connections are closed first — a connection
// the transport dialled but never used looks new to the server, and
// http.Server.Shutdown waits up to 5 s for such a connection's first
// request, past a short -grace.
func (s *Server) Stop() {
	if s.done {
		return
	}
	s.done = true
	Client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	s.cmd.Wait()
}

// Kill stops the server with SIGKILL and waits for it to exit. The
// error is the signal's: the process had already exited.
func (s *Server) Kill() error {
	if s.done {
		return nil
	}
	s.done = true
	err := s.cmd.Process.Kill()
	s.cmd.Wait()
	return err
}

// Get returns the status and body; a transport error reads as status 0
// with the error as the body, so callers can poll dead servers.
func Get(url string) (int, []byte) {
	resp, err := Client.Get(url)
	return read(resp, err)
}

// Post sends a JSON body; its result reads like Get's.
func Post(url, body string) (int, []byte) {
	resp, err := Client.Post(url, "application/json", strings.NewReader(body))
	return read(resp, err)
}

func read(resp *http.Response, err error) (int, []byte) {
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, []byte("read body: " + err.Error())
	}
	return resp.StatusCode, raw
}

// MustGet fetches url and fails the smoke unless it answers want.
func MustGet(url string, want int) []byte {
	st, body := Get(url)
	if st != want {
		Fatalf("GET %s: status %d, want %d; body: %s", url, st, want, body)
	}
	return body
}

// MustPost posts a JSON body and fails the smoke unless it answers
// want.
func MustPost(url, body string, want int) []byte {
	st, raw := Post(url, body)
	if st != want {
		Fatalf("POST %s: status %d, want %d; body: %s", url, st, want, raw)
	}
	return raw
}
