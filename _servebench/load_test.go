package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// traceRequest is a small binary Paxson trace request.
func traceRequest(i int, seed uint64) request {
	return request{index: i, kind: kindTrace, method: "GET", n: 10, seed: seed, backend: "paxson", format: "bin",
		path: fmt.Sprintf("/v1/trace?backend=paxson&format=bin&n=10&seed=%d", seed)}
}

func writeFrames(w http.ResponseWriter, frames []float64, announce int) {
	w.Header().Set(headerFrames, strconv.Itoa(announce))
	var le [8]byte
	for _, f := range frames {
		binary.LittleEndian.PutUint64(le[:], math.Float64bits(f))
		_, _ = w.Write(le[:])
	}
}

// TestFailuresCountAndMissLatency drives one refused, one truncated, one
// mismatched and one correct response through the client, verifier and
// summary.
func TestFailuresCountAndMissLatency(t *testing.T) {
	ctx := context.Background()
	ref, err := layers(ctx, traceRequest(0, 4), nil, -1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := ref.frames
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("seed") {
		case "1":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "2":
			writeFrames(w, good[:5], 10) // fewer frames than announced
		case "3":
			writeFrames(w, make([]float64, 10), 10) // wrong frames
		case "4":
			writeFrames(w, good, 10)
		}
	}))
	defer ts.Close()
	c := newClient(ts.URL, 1, maphash.MakeSeed())
	defer c.close()
	var samples []sample
	for i, seed := range []uint64{1, 2, 3, 4} {
		samples = append(samples, c.do(ctx, traceRequest(i, seed)))
	}
	if err := verifyAll(ctx, samples, c.seed, 2); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{statusRefused, statusTruncated, statusMismatch, statusOK} {
		if samples[i].status != want {
			t.Errorf("request %d: status %q (%s), want %q", i, samples[i].status, samples[i].err, want)
		}
	}
	rep := summarize(samples, time.Second, []float64{1}, []float64{1})
	if rep.attempted != 4 || rep.failed != 3 || rep.correct {
		t.Errorf("attempted %d failed %d correct %v, want 4, 3, false", rep.attempted, rep.failed, rep.correct)
	}
	for _, m := range rep.metrics {
		switch m.name {
		case "frames_per_s":
			if m.value != 10 {
				t.Errorf("frames_per_s = %v, want the 10 verified frames", m.value)
			}
		case "ttfb_p50_ms", "latency_p50_ms", "ttfb_p90_ms", "latency_p90_ms":
			if !math.IsInf(m.value, 1) {
				t.Errorf("%s = %v: three failed requests of four must miss it", m.name, m.value)
			}
		}
	}
}

// connCounter tracks how many connections a test server holds open.
type connCounter struct {
	mu        sync.Mutex
	open, max int
}

func (cc *connCounter) track(_ net.Conn, st http.ConnState) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	switch st {
	case http.StateNew:
		cc.open++
		cc.max = max(cc.max, cc.open)
	case http.StateClosed, http.StateHijacked:
		cc.open--
	}
}

// TestLoadHoldsAtMostClientsConnections runs the closed loop against a
// fake vbrd and checks the server never sees more connections than
// clients, for traces and for jobs with their status polls.
func TestLoadHoldsAtMostClientsConnections(t *testing.T) {
	for _, name := range []string{"paxson-bin", "hosking-sweep"} {
		w, _ := lookupWorkload(name)
		cc := &connCounter{}
		ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(time.Millisecond)
			switch {
			case r.URL.Path == "/v1/trace":
				writeFrames(w, []float64{1}, 1)
			case r.Method == http.MethodPost:
				w.WriteHeader(http.StatusAccepted)
				fmt.Fprint(w, `{"id":"job-1","state":"queued"}`)
			default:
				fmt.Fprint(w, `{"id":"job-1","state":"done","result":{"TotalBytes":1}}`)
			}
		}))
		ts.Config.ConnState = cc.track
		ts.Start()
		c := newClient(ts.URL, clients, maphash.MakeSeed())
		c.poll = time.Millisecond
		samples, _ := runLoad(context.Background(), c, newPlan(w, 1), clients, 300*time.Millisecond)
		c.close()
		ts.Close()
		if len(samples) < 2*clients {
			t.Fatalf("%s: only %d requests in 300 ms", name, len(samples))
		}
		for _, s := range samples {
			if s.failed() {
				t.Fatalf("%s: request %d failed: %s %s", name, s.req.index, s.status, s.err)
			}
		}
		if cc.max > clients {
			t.Errorf("%s: server saw %d connections at once, clients=%d", name, cc.max, clients)
		}
	}
}
