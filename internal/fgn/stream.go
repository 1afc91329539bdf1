package fgn

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"

	"vbr/internal/obs"
)

// HoskingStream is the pull-based form of the Hosking recursion: instead
// of materializing all n points in one call, callers draw the series
// block by block with Next. It advances the same stepper as the batch
// generators — same recurrence, same order of random draws — so the
// concatenation of all blocks is bitwise-identical to the output of
// Hosking(n, h, rng) with an equally seeded generator.
//
// The recursion state (generated prefix, partial linear-prediction
// coefficients, ρ sequence) grows with the position k; that O(n) state
// is inherent to the exact algorithm, which conditions every point on
// the entire past. What streaming removes is any *additional* O(n)
// buffering between generator and consumer: each Next hands out only the
// block just produced.
type HoskingStream struct {
	rng *rand.Rand
	// st runs cold (from ρ) after NewHoskingStream and warm (from a
	// cached φ_kk/v_k schedule) after NewHoskingStreamWithCoeffs.
	st hoskingStepper
}

// NewHoskingStream prepares an incremental Hosking generation of n
// points with Hurst parameter h drawing innovations from rng. The
// stream owns rng from this call on; drawing from it elsewhere desyncs
// the output from the equivalent batch run.
func NewHoskingStream(n int, h float64, rng *rand.Rand) (*HoskingStream, error) {
	if n < 1 {
		return nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if !validHurst(h) {
		return nil, fmt.Errorf("fgn: Hurst parameter must be in (0,1), got %v", h)
	}
	if rng == nil {
		return nil, fmt.Errorf("fgn: stream needs a random source")
	}
	st, err := newColdStepper(n, h)
	if err != nil {
		return nil, err
	}
	return &HoskingStream{rng: rng, st: st}, nil
}

// Pos returns how many points have been generated so far.
func (s *HoskingStream) Pos() int { return s.st.k }

// Len returns the total length of the stream.
func (s *HoskingStream) Len() int { return len(s.st.x) }

// Next advances the recursion by up to len(dst) points, filling dst from
// the front, and returns how many points were produced. After the last
// point it returns (0, io.EOF). Cancellation is checked once per
// generated point after X_0 (the late-recursion iterations are O(n)
// each) and surfaces as an error matching errs.ErrCancelled.
//
//vbrlint:hotpath
func (s *HoskingStream) Next(ctx context.Context, dst []float64) (int, error) {
	n := len(s.st.x)
	if s.st.k >= n {
		return 0, io.EOF
	}
	if len(dst) == 0 {
		return 0, fmt.Errorf("fgn: stream block must be non-empty")
	}
	want := min(len(dst), n-s.st.k)
	produced := 0
	if s.st.k == 0 {
		dst[0] = s.st.draw(s.rng) // X_0 unchecked, as batch generation draws it
		produced = 1
	}
	for ; produced < want; produced++ {
		if ctx.Err() != nil {
			return produced, interruptedErr(ctx, "Hosking stream", s.st.k, n)
		}
		dst[produced] = s.st.draw(s.rng)
	}
	obs.From(ctx).Count("fgn.hosking.stream.points", int64(produced))
	return produced, nil
}
