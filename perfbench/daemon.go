package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one tbsd child process listening on loopback.
type daemon struct {
	cmd   *exec.Cmd
	pid   string
	base  string // http://127.0.0.1:port of the API listener
	debug string // http://127.0.0.1:port of the debug listener
	done  chan struct{}

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

var (
	listenRe = regexp.MustCompile(`listening on (127\.0\.0\.1:\d+)`)
	debugRe  = regexp.MustCompile(`debug listener on (127\.0\.0\.1:\d+)`)
)

// launch starts tbsd on ephemeral loopback ports (API and debug
// listener) and returns once /readyz answers 200, i.e. once boot restore
// has finished. The child is killed if this process dies first.
func launch(bin string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// The daemon runs with the runtime's defaults: no inherited GC or
	// scheduler overrides.
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOGC=") && !strings.HasPrefix(kv, "GOMAXPROCS=") &&
			!strings.HasPrefix(kv, "GOMEMLIMIT=") && !strings.HasPrefix(kv, "GODEBUG=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tbsd: %w", err)
	}
	d := &daemon{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), done: make(chan struct{})}
	addrs := make(chan [2]string, 1)
	go func() {
		var api, dbg string
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
			if m := listenRe.FindStringSubmatch(line); m != nil && api == "" {
				api = m[1]
			}
			if m := debugRe.FindStringSubmatch(line); m != nil && dbg == "" {
				dbg = m[1]
				addrs <- [2]string{api, dbg}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait() // only after the pipe is drained
		close(d.done)
	}()
	select {
	case a := <-addrs:
		d.base, d.debug = "http://"+a[0], "http://"+a[1]
	case <-d.done:
		return nil, fmt.Errorf("tbsd exited during start: %s", d.stderrTail())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("tbsd printed no listen addresses within 60s")
	}
	deadline := time.Now().Add(150 * time.Second)
	probe := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("tbsd exited before ready: %s", d.stderrTail())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("tbsd not ready within 150s")
		}
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// stop asks for a graceful shutdown (final checkpoint) and waits, killing
// the process if it takes longer than timeout.
func (d *daemon) stop(timeout time.Duration) error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		if !d.cmd.ProcessState.Success() {
			return fmt.Errorf("tbsd exited with %v: %s", d.cmd.ProcessState, d.stderrTail())
		}
		return nil
	case <-time.After(timeout):
		d.kill()
		return fmt.Errorf("tbsd did not stop within %v", timeout)
	}
}

func (d *daemon) cpu() (float64, error)     { return procCPU(d.pid) }
func (d *daemon) peakRSS() (float64, error) { return procPeakRSS(d.pid) }

// scrape reads the API /metrics and the debug /debug/runtime gauges into
// one snapshot (their series names do not overlap).
func (d *daemon) scrape(c *conn) (promSnapshot, error) {
	out := promSnapshot{}
	for _, u := range []string{d.base + "/metrics", d.debug + "/debug/runtime"} {
		var body bytes.Buffer
		status, err := c.doURL("GET", u, "", nil, &body)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("scrape %s: status %d: %v", u, status, err)
		}
		snap, err := parseProm(body.Bytes())
		if err != nil {
			return nil, err
		}
		for k, v := range snap {
			out[k] = v
		}
	}
	return out, nil
}

// conn is one keep-alive HTTP/1.1 connection to the daemon; the load
// generator owns at most two.
type conn struct {
	c    *http.Client
	base string
}

func newConn(base string) *conn {
	return &conn{base: base, c: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// do sends one request to the daemon and reads the whole response into
// out (reset first) so the connection can be reused.
func (c *conn) do(method, path, ctype string, body []byte, out *bytes.Buffer) (int, error) {
	return c.doURL(method, c.base+path, ctype, body, out)
}

func (c *conn) doURL(method, url, ctype string, body []byte, out *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	out.Reset()
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}
