package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vbr/internal/cli"
)

// proc is one spawned server process.
type proc struct {
	cmd    *exec.Cmd
	addr   string // from the "<name> listening on ADDR" banner
	done   chan struct{}
	stderr *tailBuffer
	err    error // Wait's result, valid after done closes
}

// bannerWriter scans stdout for the listen banner and discards the rest.
type bannerWriter struct {
	mu   sync.Mutex
	line []byte
	ch   chan string
}

func (b *bannerWriter) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range p {
		if c != '\n' {
			b.line = append(b.line, c)
			continue
		}
		if addr, ok := cli.ParseListenBanner(string(b.line)); ok {
			select {
			case b.ch <- addr:
			default:
			}
		}
		b.line = b.line[:0]
	}
	return len(p), nil
}

// tailBuffer keeps the last 8 KiB written to it, for error messages.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 8<<10 {
		t.buf = t.buf[len(t.buf)-8<<10:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// spawn starts bin in its own process group and waits for its listen
// banner.
func spawn(ctx context.Context, bin string, args ...string) (*proc, error) {
	p := &proc{done: make(chan struct{}), stderr: &tailBuffer{}}
	banner := make(chan string, 1)
	p.cmd = exec.Command(bin, args...)
	p.cmd.Stdout = &bannerWriter{ch: banner}
	p.cmd.Stderr = p.stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGTERM}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	timer := time.NewTimer(30 * time.Second)
	defer timer.Stop()
	select {
	case p.addr = <-banner:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening: %v: %s", filepath.Base(bin), p.err, p.stderr)
	case <-timer.C:
	case <-ctx.Done():
	}
	p.stop()
	return nil, fmt.Errorf("%s did not announce a listen address: %s", filepath.Base(bin), p.stderr)
}

// stop sends SIGTERM, waits for a drained exit, and kills the process
// group (the fleet's workers included) if anything is left after 15 s.
// It returns once every process of the group has ended.
func (p *proc) stop() error {
	pid := p.cmd.Process.Pid
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		_ = syscall.Kill(-pid, syscall.SIGKILL)
		<-p.done
	}
	// Workers of a fleet share its process group; none should outlive it.
	_ = syscall.Kill(-pid, syscall.SIGKILL)
	deadline := time.Now().Add(10 * time.Second)
	for syscall.Kill(-pid, 0) == nil {
		if time.Now().After(deadline) {
			return fmt.Errorf("process group %d still running", pid)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// system is the spawned server side of a workload: one vbrd, or a
// vbrfleet front door with its workers.
type system struct {
	front   *proc
	base    string            // http://host:port of the front process
	workers map[string]string // fleet worker id → http://host:port
	pids    []int
	metrics string // vbrfleet -metrics-json path, "" when not requested
}

// fleetWorkers is the fleet size of the ndjson-fleet workload.
const fleetWorkers = 2

// startSystem spawns the workload's target and waits until every
// process answers /healthz with status ok.
func startSystem(ctx context.Context, binDir string, w workload, metricsPath string) (*system, error) {
	var args []string
	bin := filepath.Join(binDir, "vbrd")
	if w.target == targetFleet {
		bin = filepath.Join(binDir, "vbrfleet")
		args = []string{"-workers", strconv.Itoa(fleetWorkers), "-vbrd", filepath.Join(binDir, "vbrd")}
		if metricsPath != "" {
			args = append(args, "-metrics-json", metricsPath)
		}
	}
	p, err := spawn(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	if err != nil {
		return nil, err
	}
	s := &system{front: p, base: "http://" + p.addr, pids: []int{p.cmd.Process.Pid}, metrics: metricsPath}
	if err := s.waitHealthy(ctx); err != nil {
		_ = s.stop()
		return nil, err
	}
	return s, nil
}

// health is the part of a vbrd or vbrfleet /healthz body the benchmark
// reads.
type health struct {
	Status  string `json:"status"`
	Workers []struct {
		ID   int    `json:"id"`
		Addr string `json:"addr"`
		PID  int    `json:"pid"`
	} `json:"workers"`
}

func (s *system) waitHealthy(ctx context.Context) error {
	hc := &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := getHealth(ctx, hc, s.base)
		if err == nil && h.Status == "ok" {
			if len(h.Workers) > 0 {
				s.workers = map[string]string{}
				s.pids = s.pids[:1]
				for _, w := range h.Workers {
					addr := w.Addr
					if !strings.Contains(addr, "://") {
						addr = "http://" + addr
					}
					s.workers[strconv.Itoa(w.ID)] = addr
					s.pids = append(s.pids, w.PID)
				}
			}
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("%s never became healthy: %v: %s", s.base, err, s.front.stderr)
		}
		select {
		case <-s.front.done:
			return fmt.Errorf("server exited during start-up: %v: %s", s.front.err, s.front.stderr)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func getHealth(ctx context.Context, hc *http.Client, base string) (health, error) {
	var h health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return h, err
	}
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	return h, json.Unmarshal(body, &h)
}

// rssPeakMB sums VmHWM over every server process, in MiB.
func (s *system) rssPeakMB() (float64, error) {
	var kb int64
	for _, pid := range s.pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		found := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				v, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				if err != nil {
					return 0, fmt.Errorf("pid %d VmHWM: %w", pid, err)
				}
				kb += v
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("pid %d reports no VmHWM", pid)
		}
	}
	return float64(kb) / 1024, nil
}

// resetPeakRSS sets every server process's VmHWM back to its current
// RSS.
func (s *system) resetPeakRSS() error {
	for _, pid := range s.pids {
		if err := os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0); err != nil {
			return err
		}
	}
	return nil
}

// rssWindow is the length of one peak-RSS window.
const rssWindow = time.Second

// windowPeaksMB reads the summed VmHWM once per rssWindow, resetting it
// after each read, until stop is closed; it returns one peak per full
// window (the partial last one only when no window completed). A single
// whole-run VmHWM is one maximum that swings with where a GC cycle
// falls; the peaks of many short windows give a steady median.
func (s *system) windowPeaksMB(stop <-chan struct{}) ([]float64, error) {
	if err := s.resetPeakRSS(); err != nil {
		return nil, err
	}
	tick := time.NewTicker(rssWindow)
	defer tick.Stop()
	var peaks []float64
	for {
		select {
		case <-tick.C:
		case <-stop:
			if len(peaks) > 0 {
				return peaks, nil
			}
			v, err := s.rssPeakMB()
			return append(peaks, v), err
		}
		v, err := s.rssPeakMB()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, v)
		if err := s.resetPeakRSS(); err != nil {
			return nil, err
		}
	}
}

func (s *system) stop() error { return s.front.stop() }

// failovers reads the proxy's failover counter from the metrics file
// vbrfleet writes when it exits.
func (s *system) failovers() (int64, error) {
	b, err := os.ReadFile(s.metrics)
	if err != nil {
		return 0, err
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		return 0, fmt.Errorf("reading %s: %w", s.metrics, err)
	}
	return snap.Counters["fleet.proxy.trace.failovers"], nil
}
