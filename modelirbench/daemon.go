package main

// Starting, probing and stopping modelird processes, and the HTTP
// client the generator sends through.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running modelird process.
type daemon struct {
	name string
	addr string
	cmd  *exec.Cmd
	log  *tailBuffer
	done chan struct{} // closed once the process has been waited for
	err  error         // exit status, valid after done
}

// running tracks every daemon started, so an aborted run can stop them.
var running = struct {
	sync.Mutex
	set map[*daemon]bool
}{set: map[*daemon]bool{}}

// startDaemon runs modelird listening on addr.
func startDaemon(bin, name, addr string, args ...string) (*daemon, error) {
	d := &daemon{name: name, addr: addr, log: &tailBuffer{max: 4096}, done: make(chan struct{})}
	args = append([]string{"-addr", addr}, args...)
	d.cmd = exec.Command(bin, args...)
	// The daemon dies with the benchmark, however the benchmark ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stdout = d.log
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	running.Lock()
	running.set[d] = true
	running.Unlock()
	go func() { d.err = d.cmd.Wait(); close(d.done) }()
	return d, nil
}

// stop kills the process and waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // fails only if it already exited
	<-d.done
	running.Lock()
	delete(running.set, d)
	running.Unlock()
}

func stopAll() {
	running.Lock()
	ds := make([]*daemon, 0, len(running.set))
	for d := range running.set {
		ds = append(ds, d)
	}
	running.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// exited reports an error if the process has died.
func (d *daemon) exited() error {
	select {
	case <-d.done:
		return fmt.Errorf("%s exited (%v): %s", d.name, d.err, d.log.String())
	default:
		return nil
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kib / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// freeAddr reserves a loopback port and releases it for the daemon.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitTCP polls until addr accepts connections (a node listens only
// once its partitions are built).
func waitTCP(ctx context.Context, d *daemon) error {
	for {
		c, err := net.DialTimeout("tcp", d.addr, time.Second)
		if err == nil {
			c.Close()
			return nil
		}
		if err := d.exited(); err != nil {
			return err
		}
		if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
			return fmt.Errorf("%s never listened: %w", d.name, err)
		}
	}
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(ctx context.Context, c *client, d *daemon) error {
	for {
		if st, _, err := c.get(ctx, d.addr, "/healthz"); err == nil && st == http.StatusOK {
			return nil
		}
		if err := d.exited(); err != nil {
			return err
		}
		if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
			return fmt.Errorf("%s never became healthy: %w", d.name, err)
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// client sends HTTP requests over at most conns keep-alive connections.
type client struct{ hc *http.Client }

func newClient(conns int) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) get(ctx context.Context, addr, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

func (c *client) post(ctx context.Context, addr, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// wireResult is the part of modelird's /run response the benchmark reads.
type wireResult struct {
	Items []answer `json:"items"`
	Stats struct {
		Examined int   `json:"examined"`
		Pruned   int   `json:"pruned"`
		WallNS   int64 `json:"wall_ns"`
		Cache    struct {
			Hit bool `json:"hit"`
		} `json:"cache"`
	} `json:"stats"`
	Error string `json:"error"`
}

// wireStats is the part of modelird's /stats response the benchmark reads.
type wireStats struct {
	Datasets []struct {
		Name   string `json:"name"`
		Rows   int    `json:"rows"`
		Gen    uint64 `json:"gen"`
		Deltas int    `json:"deltas"`
	} `json:"datasets"`
	Cache struct {
		Hits          uint64 `json:"hits"`
		Misses        uint64 `json:"misses"`
		Invalidations uint64 `json:"invalidations"`
	} `json:"cache"`
}

func (c *client) stats(ctx context.Context, addr string) (wireStats, error) {
	var s wireStats
	st, b, err := c.get(ctx, addr, "/stats")
	if err != nil {
		return s, err
	}
	if st != http.StatusOK {
		return s, fmt.Errorf("/stats: HTTP %d: %s", st, b)
	}
	return s, json.Unmarshal(b, &s)
}
