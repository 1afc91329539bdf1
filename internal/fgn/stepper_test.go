package fgn

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"vbr/internal/errs"
)

// sameBits fails the test at the first index where got and want differ
// in any bit, or on a length mismatch.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), oracle %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// drain collects a stream in blocks of the given size.
func drain(t *testing.T, s *HoskingStream, block int) []float64 {
	t.Helper()
	out := make([]float64, 0, s.Len())
	buf := make([]float64, block)
	for {
		k, err := s.Next(context.Background(), buf)
		out = append(out, buf[:k]...)
		if err != nil {
			break
		}
	}
	return out
}

// drainOracle collects the former stream in blocks of the given size.
func drainOracle(s *oracleStream, block int) []float64 {
	out := make([]float64, 0, s.n)
	buf := make([]float64, block)
	for k := s.Next(buf); k > 0; k = s.Next(buf) {
		out = append(out, buf[:k]...)
	}
	return out
}

// snapshotsAt runs the checkpointed generator, saving a snapshot every
// `every` points, and returns them all.
func snapshotsAt(t *testing.T, n int, h float64, seed uint64, every int) []*HoskingState {
	t.Helper()
	var sts []*HoskingState
	save := func(st *HoskingState) error { sts = append(sts, st); return nil }
	if _, _, err := HoskingCheckpointed(context.Background(), n, h, rand.NewPCG(seed, 1), nil, every, save); err != nil {
		t.Fatal(err)
	}
	return sts
}

// checkStepper holds every exact-Hosking entry point to the former
// recursions bit for bit at one (n, H, seed): cold and warm batch, the
// schedule, cold and warm streams at each block size, and resumption
// from snapshots taken by both the stepper and the former code.
func checkStepper(t *testing.T, n int, h float64, seed uint64, blocks []int, every int) {
	t.Helper()
	ctx := context.Background()
	rng := func() *rand.Rand { return rand.New(rand.NewPCG(seed, 1)) }

	want, _ := oracleRun(n, h, rand.NewPCG(seed, 1), nil, 0)
	cold, err := Hosking(n, h, rng())
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "cold batch", cold, want)

	wantKK, wantV := oracleSchedule(h, n)
	c, err := NewHoskingCoeffs(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureCtx(ctx, n); err != nil {
		t.Fatal(err)
	}
	kk, v, err := c.Schedule(n)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "schedule φ_kk", kk, wantKK)
	sameBits(t, "schedule v_k", v, wantV)
	sameBits(t, "former warm batch", oracleFromSchedule(n, wantKK, wantV, rng()), want)

	warm, err := HoskingFromCoeffs(ctx, n, c, rng())
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "warm batch", warm, want)

	for _, b := range blocks {
		sameBits(t, "former cold stream", drainOracle(newOracleStream(n, h, nil, nil, rng()), b), want)
		sameBits(t, "former warm stream", drainOracle(newOracleStream(n, h, kk, v, rng()), b), want)
		cs, err := NewHoskingStream(n, h, rng())
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "cold stream", drain(t, cs, b), want)
		ws, err := NewHoskingStreamWithCoeffs(n, c, rng())
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "warm stream", drain(t, ws, b), want)
	}

	if every < 1 || n < 3 {
		return
	}
	for _, st := range snapshotsAt(t, n, h, seed, every) {
		_, old := oracleRun(n, h, rand.NewPCG(seed, 1), nil, st.K)
		sameState(t, st, old)
		for _, from := range []*HoskingState{st, old} {
			got, _, err := HoskingResumable(ctx, n, h, rand.NewPCG(0, 0), from)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "resumed", got, want)
		}
		got, _ := oracleRun(n, h, rand.NewPCG(0, 0), st, 0)
		sameBits(t, "former code resumed from a stepper snapshot", got, want)
	}
}

// sameState requires two snapshots to agree in every field and bit.
func sameState(t *testing.T, got, want *HoskingState) {
	t.Helper()
	if got.N != want.N || got.K != want.K || string(got.RNG) != string(want.RNG) {
		t.Fatalf("snapshot at K=%d: N/K/RNG differ from the former code's", got.K)
	}
	sameBits(t, "snapshot scalars", []float64{got.H, got.V, got.NPrev, got.DPrev}, []float64{want.H, want.V, want.NPrev, want.DPrev})
	sameBits(t, "snapshot X", got.X, want.X)
	sameBits(t, "snapshot PhiPrev", got.PhiPrev, want.PhiPrev)
}

// TestHoskingStepperMatchesOracles is the property test of the fused
// stepper: every output bit of every entry point equals the former
// hand-written recursions, across lengths that hit every unroll
// remainder of both sweep passes, several H, uneven block sizes, and
// snapshots at several K.
func TestHoskingStepperMatchesOracles(t *testing.T) {
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 1024, 3001}
	if testing.Short() {
		ns = ns[:len(ns)-1]
	}
	for _, n := range ns {
		for _, h := range []float64{0.55, 0.8, 0.95} {
			every := max(1, n/5)
			checkStepper(t, n, h, uint64(n)*31+uint64(h*100), []int{1, 3, 37, 4096}, every)
		}
	}
}

// TestHoskingResumeFromFormerSnapshot pins checkpoint compatibility on
// the cancellation path: a snapshot written by the former two-buffer
// recursion when interrupted resumes under the stepper bit for bit,
// and the stepper's own cancellation snapshot equals it field by field.
func TestHoskingResumeFromFormerSnapshot(t *testing.T) {
	const n, h = 1500, 0.8
	want, _ := oracleRun(n, h, rand.NewPCG(42, 0x6a55), nil, 0)
	for _, k := range []int{1, 2, 3, 700, n - 1} {
		_, old := oracleRun(n, h, rand.NewPCG(42, 0x6a55), nil, k)
		got, _, err := HoskingResumable(context.Background(), n, h, rand.NewPCG(0, 0), old)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "resumed from former snapshot", got, want)

		cctx := &countCtx{Context: context.Background(), limit: k - 1}
		_, st, err := HoskingResumable(cctx, n, h, rand.NewPCG(42, 0x6a55), nil)
		if !errors.Is(err, errs.ErrCancelled) || st == nil {
			t.Fatalf("K=%d: interrupted run gave err=%v st=%v", k, err, st)
		}
		sameState(t, st, old)
	}
}

// TestHoskingStreamWarmNextAllocFree: a warm stream's Next allocates
// nothing per block once constructed — the stepper works in the
// buffers the constructor made.
func TestHoskingStreamWarmNextAllocFree(t *testing.T) {
	const n, block = 4096, 64
	c, err := NewHoskingCoeffs(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureCtx(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	s, err := NewHoskingStreamWithCoeffs(n, c, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, block)
	allocs := testing.AllocsPerRun(n/block-1, func() {
		if _, err := s.Next(context.Background(), buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm HoskingStream.Next allocates %.1f times per block, want 0", allocs)
	}
}

// FuzzHoskingStepper compares the stepper with the former recursions
// at random lengths, H, stream block sizes and resume points.
func FuzzHoskingStepper(f *testing.F) {
	f.Add(uint16(1), uint16(50), uint16(1), uint16(1), uint64(1))
	f.Add(uint16(17), uint16(800), uint16(3), uint16(5), uint64(7))
	f.Add(uint16(511), uint16(950), uint16(37), uint16(200), uint64(3))
	f.Fuzz(func(t *testing.T, n16, h16, block16, every16 uint16, seed uint64) {
		n := 1 + int(n16)%512
		h := 0.5 + float64(h16%500)/1000 // [0.5, 1): white noise to strong LRD
		block := 1 + int(block16)%600
		every := 1 + int(every16)%n
		checkStepper(t, n, h, seed, []int{block}, every)
	})
}
