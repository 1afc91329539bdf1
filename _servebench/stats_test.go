package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestHighestTailHasTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {1000, 99}, {999, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 0},
	} {
		got := highestTail(seq(c.n))
		if got.P != c.want || got.N != c.n {
			t.Errorf("n=%d: got p%g with n=%d, want p%g", c.n, got.P, got.N, c.want)
		}
		if got.P > 0 {
			if beyond := float64(c.n) * (1 - got.P/100); beyond < minBeyond-1e-9 {
				t.Errorf("n=%d: p%g has only %.1f samples beyond it", c.n, got.P, beyond)
			}
			if want := quantile(seq(c.n), got.P); got.Value != want {
				t.Errorf("n=%d: value %v, want %v", c.n, got.Value, want)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := seq(101) // 1..101
	if got := quantile(xs, 50); got != 51 {
		t.Errorf("p50 = %v, want 51", got)
	}
	if got := quantile(xs, 90); got != 91 {
		t.Errorf("p90 = %v, want 91", got)
	}
	// Failed requests are +Inf: they push every percentile they reach.
	failed := append(seq(3), math.Inf(1), math.Inf(1))
	if got := quantile(failed, 50); got != 3 {
		t.Errorf("p50 with 2 of 5 failed = %v, want 3", got)
	}
	if got := quantile(failed, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 with 2 of 5 failed = %v, want +Inf", got)
	}
}

func TestP90FlaggedBelowHundredSamples(t *testing.T) {
	if !underSampled(90, 99) || underSampled(90, 100) {
		t.Fatal("p90 must be flagged at 99 samples and not at 100")
	}
	for _, n := range []int{99, 100} {
		samples := make([]sample, n)
		for i := range samples {
			samples[i] = sample{req: request{index: i}, status: statusOK, frames: 1,
				latency: time.Duration(i+1) * time.Millisecond, ttfb: time.Millisecond, hhat: math.NaN(), hhatErr: math.NaN()}
		}
		rep := summarize(samples, time.Second, []float64{1}, []float64{1})
		for _, m := range rep.metrics {
			if !strings.HasSuffix(m.name, "_p90_ms") {
				continue
			}
			if flagged := strings.Contains(m.note, "FLAG"); flagged != (n < 100) {
				t.Errorf("n=%d: %s note %q", n, m.name, m.note)
			}
			if m.n != n {
				t.Errorf("n=%d: %s reports sample count %d", n, m.name, m.n)
			}
		}
	}
}
