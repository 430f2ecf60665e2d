package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// requestTimeout bounds every request the bench sends; a request that
// exceeds it is a failed op.
const requestTimeout = 10 * time.Second

// server is one rspqd child process.
type server struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	bootDur time.Duration // spawn → first /healthz 200
	exited  chan struct{} // closed once the child has been reaped
}

// startServer spawns rspqd on a free loopback port with the given
// arguments and waits until /healthz answers. The child runs with
// GOMAXPROCS pinned to the bench's own, so the machine record can state
// it.
func startServer(bin, logPath string, args ...string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	// Should the bench be killed, the child must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rspqd: %w", err)
	}
	s := &server{cmd: cmd, addr: addr, logPath: logPath, exited: make(chan struct{})}
	go func() { cmd.Wait(); close(s.exited) }()
	for {
		select {
		case <-s.exited:
			tail, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("rspqd exited during boot: %s", bytes.TrimSpace(tail))
		default:
		}
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.bootDur = time.Since(t0)
				return s, nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			s.kill()
			return nil, errors.New("rspqd did not answer /healthz within 60s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop asks for a graceful shutdown (final checkpoint included) and
// waits for the process to end.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	s.wait(15 * time.Second)
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	s.wait(5 * time.Second)
}

// wait blocks until the child has been reaped (by startServer's
// goroutine), killing it when the grace period runs out.
func (s *server) wait(grace time.Duration) {
	select {
	case <-s.exited:
	case <-time.After(grace):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// getJSON fetches a GET endpoint into v (untimed bookkeeping only).
func (s *server) getJSON(path string, v any) error {
	resp, err := http.Get("http://" + s.addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// client is one keep-alive connection driven closed-loop: requests are
// complete pre-encoded HTTP/1.1 messages, response bodies are appended
// raw to an arena and parsed after the timed segment.
type client struct {
	c     net.Conn
	br    *bufio.Reader
	arena []byte
}

func dial(addr string) (*client, error) {
	c, err := net.DialTimeout("tcp", addr, requestTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &client{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *client) close() { c.c.Close() }

// encodeRequest builds the full HTTP/1.1 message for a JSON POST.
func encodeRequest(path string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: rspqd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, len(body))
	b.Write(body)
	return b.Bytes()
}

// do sends one pre-encoded request and reads the response. The body is
// appended to the arena; its extent is returned. status is 0 on a
// transport error or timeout.
func (c *client) do(req []byte) (status int, off, n int) {
	if !c.send(req) {
		return 0, 0, 0
	}
	return c.recv()
}

// send writes one pre-encoded request; recv reads its response.
func (c *client) send(req []byte) bool {
	c.c.SetDeadline(time.Now().Add(requestTimeout))
	_, err := c.c.Write(req)
	return err == nil
}

func (c *client) recv() (status int, off, n int) {
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, 0, 0
	}
	off = len(c.arena)
	buf := bytes.NewBuffer(c.arena)
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	c.arena = buf.Bytes()
	if err != nil {
		return 0, off, len(c.arena) - off
	}
	return resp.StatusCode, off, len(c.arena) - off
}

func (c *client) body(off, n int) []byte { return c.arena[off : off+n] }

// reset drops the arena's contents, keeping its capacity.
func (c *client) reset() { c.arena = c.arena[:0] }
