// Command servebench is the repository's serving benchmark. It spawns
// vbrd (or a vbrfleet front door with two vbrd workers), drives one
// workload from a closed loop of two clients for a fixed time, checks
// every response against an in-process recomputation, and prints the
// end-to-end metrics. With -trace 1 it instead replays the same request
// sequence one request at a time with a span around every call into a
// layer, and prints per-layer self times.
//
// Build and run it through run.sh from the repository root:
//
//	bash _servebench/run.sh --workload paxson-bin --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"
)

// clients is the closed loop's client count: the two CPUs of the
// machine the benchmark was defined on.
const clients = 2

// setupRounds is how many times a measured run sets the system up; it
// reports the median set-up time and keeps the last system.
const setupRounds = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name: "+workloadNames())
		seed    = fs.Uint64("seed", 1, "workload seed; derives every request")
		seconds = fs.Int("seconds", 10, "length of the measured (or traced) phase in seconds")
		trace   = fs.Int("trace", 0, "1 replays the sequence with per-layer spans instead of measuring end to end")
		binDir  = fs.String("bin", ".bench_build/bin", "directory holding the vbrd and vbrfleet binaries")
		outDir  = fs.String("out", "_servebench/out", "directory the traced run writes spans and the breakdown table to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "servebench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	p := newPlan(w, *seed)
	dur := time.Duration(*seconds) * time.Second
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(ctx, *binDir, *outDir, p, dur)
	} else {
		rep, err = runMeasured(ctx, *binDir, p, dur)
	}
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "servebench %s seed=%d seconds=%d trace=%d clients=%d\n", w.name, *seed, *seconds, *trace, clients)
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runMeasured sets the system up setupRounds times, then drives the
// closed loop for dur against the last set-up, and verifies every
// response once the clock has stopped.
func runMeasured(ctx context.Context, binDir string, p *plan, dur time.Duration) (*report, error) {
	seed := maphash.MakeSeed()
	var (
		sys    *system
		setups []float64
	)
	for round := 0; round < setupRounds; round++ {
		start := time.Now()
		s, err := startSystem(ctx, binDir, p.w, "")
		if err != nil {
			return nil, err
		}
		c := newClient(s.base, clients, seed)
		for _, r := range p.warmups() {
			if smp := c.do(ctx, r); smp.failed() {
				c.close()
				_ = s.stop()
				return nil, fmt.Errorf("warm-up request %s: %s %s", r.path, smp.status, smp.err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		c.close()
		if round == setupRounds-1 {
			sys = s
		} else if err := s.stop(); err != nil {
			return nil, err
		}
	}

	c := newClient(sys.base, clients, seed)
	stopRSS, rssDone := make(chan struct{}), make(chan struct{})
	var (
		peaks  []float64
		rssErr error
	)
	go func() {
		defer close(rssDone)
		peaks, rssErr = sys.windowPeaksMB(stopRSS)
	}()
	samples, elapsed := runLoad(ctx, c, p, clients, dur)
	close(stopRSS)
	<-rssDone
	c.close()
	if err := sys.stop(); err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err := verifyAll(ctx, samples, seed, clients); err != nil {
		return nil, err
	}
	return summarize(samples, elapsed, setups, peaks), nil
}

// summarize turns the verified samples into the end-to-end metrics.
// A failed request (refused, truncated, mismatched, or any other error)
// delivers no frames and counts as an infinite ttfb and latency, so it
// misses every latency figure.
func summarize(samples []sample, elapsed time.Duration, setups, rssPeaks []float64) *report {
	rep := &report{attempted: len(samples), correct: true}
	var ttfb, lat []float64
	var frames, hits, probes, fromTrailers int
	byStatus := map[string]int{}
	for _, s := range samples {
		byStatus[s.status]++
		if s.failed() {
			rep.failed++
			if s.status == statusMismatch || s.status == statusTruncated {
				rep.correct = false
			}
			if len(rep.lines) < 5 {
				rep.lines = append(rep.lines, fmt.Sprintf("request %d: %s %s", s.req.index, s.status, s.err))
			}
			ttfb = append(ttfb, math.Inf(1))
			lat = append(lat, math.Inf(1))
			continue
		}
		frames += s.frames
		ttfb = append(ttfb, ms(s.ttfb))
		lat = append(lat, ms(s.latency))
		if s.req.model == "" && !math.IsNaN(s.hhat) && !math.IsNaN(s.hhatErr) {
			probes++
			if s.trailers {
				fromTrailers++
			}
			if math.Abs(s.hhat-s.req.modelParams().Hurst) <= s.hhatErr {
				hits++
			}
		}
	}
	n := len(samples)
	// ttfb and Ĥ apply to trace workloads only. A job's figures are
	// still printed, for a complete result line, but marked: its ttfb is
	// the first byte of the poll that carries the result, about its
	// latency, and a job returns no Ĥ.
	jobs := n > 0 && samples[0].req.kind == kindJob
	rep.add("frames_per_s", "frames/s", float64(frames)/elapsed.Seconds(), n, fmt.Sprintf("%d verified frames in %.3f s", frames, elapsed.Seconds()))
	for _, m := range []struct {
		name string
		xs   []float64
	}{{"ttfb", ttfb}, {"latency", lat}} {
		for _, p := range []float64{50, 90} {
			var notes []string
			if m.name == "ttfb" && jobs {
				notes = append(notes, "n/a on jobs: first byte of the poll carrying the result, about the latency")
			}
			if underSampled(p, n) {
				notes = append(notes, fmt.Sprintf("FLAG: fewer than %d samples beyond p%g", minBeyond, p))
			}
			note := strings.Join(notes, "; ")
			rep.add(fmt.Sprintf("%s_p%g_ms", m.name, p), "ms", quantile(m.xs, p), n, note)
		}
		if t := highestTail(m.xs); t.P > 90 {
			rep.lines = append(rep.lines, fmt.Sprintf("%s tail: p%g = %.4f ms (n=%d)", m.name, t.P, t.Value, t.N))
		}
	}
	rep.lines = append(rep.lines, fmt.Sprintf("error_rate %.6f fraction (n=%d; %v)", float64(rep.failed)/float64(n), n, byStatus))
	hitFrac := math.NaN()
	if probes > 0 {
		hitFrac = float64(hits) / float64(probes)
	}
	note := fmt.Sprintf("%d of %d probes from trailers", fromTrailers, probes)
	switch {
	case jobs:
		note = "n/a on jobs: not served, the reference monitor's Ĥ over the verified frames"
	case fromTrailers < probes:
		note += "; the rest not served, the reference monitor's Ĥ over the verified frames"
	}
	rep.add("hhat_ci_hit_frac", "fraction", hitFrac, probes, note)
	rep.add("setup_s", "s", median(setups), len(setups), fmt.Sprintf("median of %v", setups))
	rep.add("rss_peak_mb", "MiB", median(rssPeaks), len(rssPeaks), fmt.Sprintf("median of %s peaks; largest %.3f MiB", rssWindow, slices.Max(rssPeaks)))
	return rep
}

// report is what one run prints.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	lines             []string // further human-readable lines: tails, error_rate, failures
}

type metric struct {
	name, unit string
	value      float64
	n          int
	note       string
}

func (r *report) add(name, unit string, v float64, n int, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, n: n, note: note})
}

// write prints one line per metric, then the JSON result line.
func (r *report) write(w io.Writer) error {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-28s %16.6f %-9s n=%-6d %s\n", m.name, m.value, m.unit, m.n, m.note)
	}
	for _, line := range r.lines {
		fmt.Fprintln(w, line)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		v := m.value
		switch {
		case math.IsNaN(v):
			return fmt.Errorf("metric %s has no value", m.name)
		case math.IsInf(v, 1):
			v = math.MaxFloat64 // every request failed: worse than any measurement
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
