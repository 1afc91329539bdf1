package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"sync"

	"vbr/internal/backend"
	"vbr/internal/core"
	"vbr/internal/genpool"
	"vbr/internal/queue"
	"vbr/internal/server"
	"vbr/internal/stream"
)

// zooBlock is the block size vbrd serves zoo models in by default.
const zooBlock = 4096

// model is the fARIMA model a request asks for: the server's default
// Table 4 model with the requested H.
func (r request) modelParams() core.Model {
	m := server.PaperDefault
	if r.hurst != 0 {
		m.Hurst = r.hurst
	}
	return m
}

// streamConfig is the stream configuration vbrd builds for a fARIMA
// request.
func (r request) streamConfig(pool *genpool.Pool) (stream.Config, error) {
	cfg := stream.Config{Model: r.modelParams(), N: r.n, Seed: r.seed, Backend: server.DefaultBackend, Pool: pool}
	if r.backend != "" {
		b, err := backend.Parse(r.backend)
		if err != nil {
			return cfg, err
		}
		cfg.Backend = b
	}
	return cfg, nil
}

// simulate runs the §5 queue the way a simulate job does.
func simulate(r request, frames []float64) (*queue.Result, error) {
	return queue.Simulate(queue.Workload{Bytes: frames, Interval: 1.0 / 24}, jobCapacity, jobBuffer, queue.Options{Seed: r.seed})
}

func digestFrames(seed maphash.Seed, frames []float64) uint64 {
	h := maphash.Hash{}
	h.SetSeed(seed)
	var le [8]byte
	for _, f := range frames {
		binary.LittleEndian.PutUint64(le[:], math.Float64bits(f))
		h.Write(le[:])
	}
	return h.Sum64()
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func newJobResult(res *queue.Result) jobResult {
	return jobResult{TotalBytes: res.TotalBytes, LostBytes: res.LostBytes, Pl: res.Pl, PlWES: res.PlWES, MaxBacklog: res.MaxBacklog}
}

// same compares two job results bit for bit.
func (a jobResult) same(b jobResult) bool {
	return sameBits(a.TotalBytes, b.TotalBytes) && sameBits(a.LostBytes, b.LostBytes) &&
		sameBits(a.Pl, b.Pl) && sameBits(a.PlWES, b.PlWES) && sameBits(a.MaxBacklog, b.MaxBacklog)
}

// check compares one successful sample with its recomputed reference
// and marks it a mismatch when they differ. A fARIMA trace's Ĥ trailers
// must equal the reference monitor's probe. Where the response carries
// none (jobs, and traces relayed by vbrfleet, which does not forward
// trailers) the sample takes Ĥ from the reference probe, the value the
// serving monitor computed over the frames just shown to be identical;
// the summary marks such Ĥ as not served.
func check(ctx context.Context, s *sample, seed maphash.Seed, pool *genpool.Pool) error {
	ref, err := layers(ctx, s.req, nil, -1, pool, nil)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if s.req.kind == kindJob {
		if !s.result.same(*ref.job) {
			s.fail(statusMismatch, fmt.Errorf("job result %+v, reference %+v", *s.result, *ref.job))
			return nil
		}
		s.hhat, s.hhatErr = ref.probe.HMavar, ref.probe.HMavarErr
		return nil
	}
	if s.frames != len(ref.frames) || s.digest != digestFrames(seed, ref.frames) {
		s.fail(statusMismatch, fmt.Errorf("%d frames with digest %x differ from the %d-frame reference", s.frames, s.digest, len(ref.frames)))
		return nil
	}
	if s.req.model != "" {
		return nil
	}
	if s.trailers {
		if !sameBits(s.hhat, ref.probe.HMavar) || !sameBits(s.hhatErr, ref.probe.HMavarErr) {
			s.fail(statusMismatch, fmt.Errorf("trailer Ĥ %v ± %v, reference %v ± %v", s.hhat, s.hhatErr, ref.probe.HMavar, ref.probe.HMavarErr))
		}
		return nil
	}
	s.hhat, s.hhatErr = ref.probe.HMavar, ref.probe.HMavarErr
	return nil
}

// verifyAll recomputes the reference of every successful sample on
// workers goroutines and marks those that differ. The pool makes the
// recomputation as warm as the server's; output never depends on it.
func verifyAll(ctx context.Context, samples []sample, seed maphash.Seed, workers int) error {
	pool := genpool.New(0)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	idx := make(chan int)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := check(ctx, &samples[i], seed, pool); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}()
	}
	for i := range samples {
		if !samples[i].failed() {
			idx <- i
		}
	}
	close(idx)
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}
