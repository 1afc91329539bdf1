package fgn

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"

	"vbr/internal/errs"
	"vbr/internal/obs"
)

// This file splits the Hosking recursion into its two halves: the
// seed-independent coefficient schedule (the Levinson–Durbin solution of
// Eqs. 6–10, a function of H alone) and the seed-dependent innovation
// recursion (Eqs. 11–12). The split is what makes cross-request caching
// possible: a server handling many /v1/trace requests with the same H
// pays the O(n²) coefficient recursion once and amortizes it over every
// seed, while the warm innovation loop below reproduces the cold path's
// output bit for bit.

// HoskingCoeffs holds the seed-independent part of the Hosking recursion
// for one Hurst parameter: the partial-correlation (reflection)
// coefficients φ_kk and the conditional innovation variances v_k of
// Eqs. 10 and 12, plus the internal state needed to extend the schedule
// to longer horizons without recomputing the prefix.
//
// The schedule is a pure function of H: φ_kk and v_k at step k depend
// only on ρ_0..ρ_k, which depend only on H. A schedule computed for
// n = 171,000 therefore serves any request with the same H and a
// shorter length — the prefix-reuse rule the cache layer relies on.
//
// All methods are safe for concurrent use. Published prefixes (from
// Schedule) are append-only: extension never rewrites an index a reader
// may hold.
type HoskingCoeffs struct {
	h float64

	mu sync.Mutex
	kk []float64 // kk[k] = φ_kk (kk[0] unused)
	v  []float64 // v[k] = conditional variance after step k (v[0] = 1)
	// st is the schedule's stepper, without history: ρ_0..ρ_{n}, the
	// in-place φ_{n-1,·} and the scalar recursion state at the top of
	// step n = len(kk).
	st hoskingStepper
}

// NewHoskingCoeffs prepares an empty schedule for Hurst parameter h.
// The schedule initially covers a single point (X_0 needs no
// coefficients); EnsureCtx grows it on demand.
func NewHoskingCoeffs(h float64) (*HoskingCoeffs, error) {
	rho, err := FarimaACF(h, 1) // rejects an invalid h
	if err != nil {
		return nil, err
	}
	return &HoskingCoeffs{
		h:  h,
		kk: []float64{0},
		v:  []float64{1},
		st: hoskingStepper{k: 1, phi: []float64{0}, rho: rho, v: 1, dPrev: 1, nk: rho[1]},
	}, nil
}

// H returns the Hurst parameter the schedule was built for.
func (c *HoskingCoeffs) H() float64 { return c.h }

// Len returns how many points the schedule currently covers.
func (c *HoskingCoeffs) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.kk)
}

// Bytes returns the resident size of the schedule's float64 backing
// arrays, for cache byte accounting.
func (c *HoskingCoeffs) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(cap(c.kk)+cap(c.v)+cap(c.st.rho)+cap(c.st.phi)) * 8
}

// EnsureCtx extends the schedule to cover at least n points, continuing
// the Levinson–Durbin recursion from where it stopped: growing from n₁
// to n₂ costs O(n₂²−n₁²), not O(n₂²). The stepper is the one the cold
// generators run, so the schedule entries are bitwise identical to the
// values the cold path computes inline. Cancellation is checked once
// per outer iteration.
func (c *HoskingCoeffs) EnsureCtx(ctx context.Context, n int) error {
	if n < 1 {
		return fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := len(c.kk)
	if cur >= n {
		return nil
	}
	scope := obs.From(ctx)
	defer scope.Span("fgn.hosking.coeffs")()

	// Extend ρ to ρ_n by the stable FarimaACF recurrence (Eq. 6): the
	// last step folds N_n. Each ρ_k is derived from ρ_{k-1} alone, so
	// continuing the chain reproduces the exact values a fresh
	// FarimaACF(h, n) call would produce.
	s := &c.st
	d := c.h - 0.5
	for k := len(s.rho); k <= n; k++ {
		kf := float64(k)
		s.rho = append(s.rho, s.rho[k-1]*(kf-1+d)/(kf-d))
	}
	// φ needs room for indices 1..n-1. The growth guard matters when a
	// past cancellation left the lookahead slices longer than the
	// completed coverage: a shorter retry must not compute a negative
	// append count.
	if grow := n - len(s.phi); grow > 0 {
		s.phi = append(s.phi, make([]float64, grow)...)
	}

	for k := cur; k < n; k++ {
		if ctx.Err() != nil {
			// Roll the lookahead slices back to the completed coverage so
			// the schedule is left exactly as a successful EnsureCtx(k)
			// would have left it (len(rho)−1 == len(phi) == len(kk)) and
			// a retry of any length — shorter or longer — resumes cleanly.
			s.rho = s.rho[:k+1]
			s.phi = s.phi[:k]
			return fmt.Errorf("fgn: coefficient schedule interrupted at point %d of %d: %w", k, n, errs.Cancelled(ctx))
		}
		phikk, vk, _ := s.step()
		c.kk = append(c.kk, phikk)
		c.v = append(c.v, vk)
	}
	scope.Count("fgn.hosking.coeffs.points", int64(n-cur))
	return nil
}

// Schedule returns read-only prefix views of the φ_kk and v schedules
// covering n points. It fails if the schedule has not been extended far
// enough; callers that may be ahead of the cache call EnsureCtx first.
func (c *HoskingCoeffs) Schedule(n int) (kk, v []float64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.kk) < n {
		return nil, nil, fmt.Errorf("fgn: coefficient schedule covers %d points, need %d", len(c.kk), n)
	}
	return c.kk[:n], c.v[:n], nil
}

// interruptedErr builds the cancellation error for a Hosking loop. It
// lives outside the hot loops so their bodies stay allocation-free:
// the fmt.Errorf runs once per cancelled generation, not once per
// point, and keeping it out of the loop keeps the per-point body small.
func interruptedErr(ctx context.Context, what string, k, n int) error {
	return fmt.Errorf("fgn: %s interrupted at point %d of %d: %w", what, k, n, errs.Cancelled(ctx))
}

// HoskingFromCoeffs generates n points of fractional ARIMA(0, d, 0)
// noise like HoskingCtx, but drives the innovation recursion from a
// precomputed coefficient schedule: the stepper's prediction chain
// against ρ disappears, leaving the in-place φ update and the
// conditional-mean chain in one sweep. For the same rng state the
// output is bitwise identical to HoskingCtx — the schedule holds
// exactly the φ_kk and v_k the cold recursion would compute.
//
// The schedule is extended on demand (a cache hit for a longer trace is
// still a hit for the coefficients already present).
func HoskingFromCoeffs(ctx context.Context, n int, c *HoskingCoeffs, rng *rand.Rand) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if c == nil {
		return nil, fmt.Errorf("fgn: nil coefficient schedule")
	}
	if rng == nil {
		return nil, fmt.Errorf("fgn: generation needs a random source")
	}
	if err := c.EnsureCtx(ctx, n); err != nil {
		return nil, err
	}
	kk, v, err := c.Schedule(n)
	if err != nil {
		return nil, err
	}
	defer obs.From(ctx).Span("fgn.hosking.warm")()
	s := newWarmStepper(n, kk, v)
	x, _, err := s.run(ctx, c.h, rng, nil, 0, nil)
	return x, err
}

// NewHoskingStreamWithCoeffs prepares an incremental Hosking generation
// like NewHoskingStream, but drawing the linear-prediction coefficients
// from a precomputed schedule, which must already cover n points (the
// cache layer extends it before constructing the stream). Block
// concatenation stays bitwise identical to the batch generators.
func NewHoskingStreamWithCoeffs(n int, c *HoskingCoeffs, rng *rand.Rand) (*HoskingStream, error) {
	if n < 1 {
		return nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if c == nil {
		return nil, fmt.Errorf("fgn: nil coefficient schedule")
	}
	if rng == nil {
		return nil, fmt.Errorf("fgn: stream needs a random source")
	}
	kk, v, err := c.Schedule(n)
	if err != nil {
		return nil, err
	}
	return &HoskingStream{rng: rng, st: newWarmStepper(n, kk, v)}, nil
}
