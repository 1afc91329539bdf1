package main

import (
	"bytes"
	"testing"
)

// bytes is the request as it goes on the wire, minus host headers.
func (r request) bytes() []byte {
	out := []byte(r.method + " " + r.path + "\n")
	return append(out, r.body...)
}

func sequence(w workload, seed uint64, n int) []byte {
	p := newPlan(w, seed)
	var out []byte
	for _, r := range p.warmups() {
		out = append(out, r.bytes()...)
	}
	for i := 0; i < n; i++ {
		out = append(out, p.request(i).bytes()...)
	}
	return out
}

func TestSameSeedSendsIdenticalRequests(t *testing.T) {
	for _, w := range workloads {
		a, b := sequence(w, 42, 500), sequence(w, 42, 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two plans with seed 42 send different requests", w.name)
		}
		if bytes.Equal(a, sequence(w, 43, 500)) {
			t.Errorf("%s: seeds 42 and 43 send the same requests", w.name)
		}
	}
}

func TestRequestSeedsAreFresh(t *testing.T) {
	for _, w := range workloads {
		p := newPlan(w, 7)
		seen := map[uint64]bool{}
		for _, r := range p.warmups() {
			seen[r.seed] = true
		}
		for i := 0; i < 2000; i++ {
			r := p.request(i)
			if seen[r.seed] {
				t.Fatalf("%s: request %d reuses seed %d", w.name, i, r.seed)
			}
			seen[r.seed] = true
		}
	}
}

func TestHurstSweepNeverRecurs(t *testing.T) {
	w, _ := lookupWorkload("hosking-sweep")
	for _, seed := range []uint64{1, 2, 1994} {
		p := newPlan(w, seed)
		warm := p.warmups()[0].hurst
		groups := map[float64]int{}
		prev := -1.0
		for i := 0; i < hurstGrid*jobsPerHurst; i++ {
			h := p.request(i).hurst
			if h <= 0.5 || h >= 1 || h == warm {
				t.Fatalf("seed %d job %d: H=%v outside (0.5, 1) or equal to the warm-up H", seed, i, h)
			}
			if h != prev {
				groups[h]++
				prev = h
			}
		}
		for h, n := range groups {
			if n != 1 {
				t.Fatalf("seed %d: H=%v recurs in %d separate groups", seed, h, n)
			}
		}
		if len(groups) != hurstGrid {
			t.Fatalf("seed %d: %d distinct H groups, want %d", seed, len(groups), hurstGrid)
		}
	}
}

func TestFleetIdentityOrderCycles(t *testing.T) {
	w, _ := lookupWorkload("ndjson-fleet")
	orders := map[[5]int]bool{}
	for seed := uint64(0); seed < 50; seed++ {
		p := newPlan(w, seed)
		seen := map[int]bool{}
		for _, k := range p.order {
			seen[k] = true
		}
		if len(seen) != len(fleetIdentities) {
			t.Fatalf("seed %d: order %v is not a permutation", seed, p.order)
		}
		for i := 0; i < 20; i++ {
			if a, b := p.request(i), p.request(i+len(fleetIdentities)); a.model != b.model || a.hurst != b.hurst {
				t.Fatalf("seed %d: requests %d and %d differ in identity", seed, i, i+5)
			}
		}
		orders[p.order] = true
	}
	if len(orders) < 10 {
		t.Errorf("50 seeds gave only %d identity orders", len(orders))
	}
}
