// Package fgn generates long-range dependent Gaussian processes.
//
// The primary generator is Hosking's exact algorithm for fractional
// ARIMA(0, d, 0) noise, transcribed from Eqs. 6–12 of the paper (after
// Hosking 1984). It is exact — each point is drawn from the true
// conditional distribution given the entire past — but costs O(n²) time,
// which the paper quotes as "10 hours for 171,000 points" on a 1994
// workstation (seconds today).
//
// As the repository's speed ablation the package also implements the
// Davies–Harte circulant-embedding generator for fractional Gaussian
// noise, which is exact in distribution as well but runs in O(n log n).
package fgn

import (
	"context"
	"encoding"
	"fmt"
	"math"
	"math/rand/v2"

	"vbr/internal/errs"
	"vbr/internal/fft"
	"vbr/internal/obs"
)

// validHurst reports whether h is a legal Hurst parameter for a
// long-range-dependent (or at least stationary) generator.
func validHurst(h float64) bool { return h > 0 && h < 1 }

// FarimaACF returns the autocorrelation function ρ_0..ρ_maxLag of the
// fractional ARIMA(0, d, 0) process with d = H - 1/2 (Eq. 6):
//
//	ρ_k = Π_{i=1..k} (i - 1 + d) / (i - d),
//
// evaluated by the stable recurrence ρ_k = ρ_{k-1}·(k-1+d)/(k-d).
//
//vbrlint:ignore ctxcheck bounded O(maxLag) arithmetic recurrence with no blocking calls
func FarimaACF(h float64, maxLag int) ([]float64, error) {
	if !validHurst(h) {
		return nil, fmt.Errorf("fgn: Hurst parameter must be in (0,1), got %v", h)
	}
	if maxLag < 0 {
		return nil, fmt.Errorf("fgn: maxLag must be ≥ 0, got %d", maxLag)
	}
	d := h - 0.5
	rho := make([]float64, maxLag+1)
	rho[0] = 1
	for k := 1; k <= maxLag; k++ {
		kf := float64(k)
		rho[k] = rho[k-1] * (kf - 1 + d) / (kf - d)
	}
	return rho, nil
}

// FGNACF returns the autocovariance-derived autocorrelation of fractional
// Gaussian noise with Hurst parameter H:
//
//	ρ_k = ½(|k+1|^{2H} − 2|k|^{2H} + |k−1|^{2H}).
//
//vbrlint:ignore ctxcheck bounded O(maxLag) arithmetic recurrence with no blocking calls
func FGNACF(h float64, maxLag int) ([]float64, error) {
	if !validHurst(h) {
		return nil, fmt.Errorf("fgn: Hurst parameter must be in (0,1), got %v", h)
	}
	if maxLag < 0 {
		return nil, fmt.Errorf("fgn: maxLag must be ≥ 0, got %d", maxLag)
	}
	rho := make([]float64, maxLag+1)
	h2 := 2 * h
	for k := 0; k <= maxLag; k++ {
		kf := float64(k)
		rho[k] = 0.5 * (math.Pow(kf+1, h2) - 2*math.Pow(kf, h2) + math.Pow(math.Abs(kf-1), h2))
	}
	return rho, nil
}

// Hosking generates n points of zero-mean, unit-variance fractional
// ARIMA(0, d, 0) noise with d = H - 1/2 using the exact conditional
// recursion of Eqs. 7–12:
//
//	N_k = ρ_k − Σ_{j=1}^{k−1} φ_{k−1,j} ρ_{k−j}
//	D_k = D_{k−1} − N_{k−1}²/D_{k−1}
//	φ_kk = N_k/D_k
//	φ_kj = φ_{k−1,j} − φ_kk φ_{k−1,k−j}
//	m_k  = Σ φ_kj X_{k−j},   v_k = (1 − φ_kk²) v_{k−1}
//
// with X_k ~ N(m_k, v_k). The recursion is the Levinson–Durbin solution
// of the Yule–Walker system, so the output has exactly the target
// autocorrelation structure.
func Hosking(n int, h float64, rng *rand.Rand) ([]float64, error) {
	x, _, err := hoskingRun(context.Background(), n, h, rng, nil, nil, 0, nil)
	return x, err
}

// HoskingCtx is Hosking with cooperative cancellation: the O(n²)
// recursion checks ctx once per outer iteration and returns an error
// matching errs.ErrCancelled as soon as the context is done.
func HoskingCtx(ctx context.Context, n int, h float64, rng *rand.Rand) ([]float64, error) {
	x, _, err := hoskingRun(ctx, n, h, rng, nil, nil, 0, nil)
	return x, err
}

// MarshalableSource is a random source whose internal state can be
// captured and restored byte-exactly, as *math/rand/v2.PCG can. It is
// what makes an interrupted generation resumable with bitwise-identical
// output.
type MarshalableSource interface {
	rand.Source
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// HoskingState is a snapshot of the Hosking recursion taken at the top
// of outer iteration K: the generated prefix X[0..K-1], the partial
// linear-prediction coefficients φ_{K-1,·}, the scalar recursion state
// (Eqs. 7–12), and the serialized random-source position. Together with
// (N, H) — the ρ sequence is recomputed deterministically — it resumes
// the generation to produce output bitwise identical to an uninterrupted
// run.
type HoskingState struct {
	N       int
	H       float64
	K       int       // next point to generate, 1 ≤ K ≤ N
	V       float64   // conditional variance v_{K-1}
	NPrev   float64   // N_{K-1}
	DPrev   float64   // D_{K-1}
	X       []float64 // generated prefix, length K
	PhiPrev []float64 // φ_{K-1,j}, j = 1..K-1 (index 0 unused), length K
	RNG     []byte    // marshaled MarshalableSource state
}

// HoskingResumable generates like HoskingCtx but from a marshalable
// random source, so an interrupted run can be checkpointed and resumed.
// When resume is nil a fresh generation starts from src's current state;
// otherwise src is restored from the snapshot and the recursion
// continues at point resume.K. On cancellation it returns a non-nil
// *HoskingState alongside an error matching errs.ErrCancelled; on
// success the state is nil and x holds all n points.
func HoskingResumable(ctx context.Context, n int, h float64, src MarshalableSource, resume *HoskingState) ([]float64, *HoskingState, error) {
	return HoskingCheckpointed(ctx, n, h, src, resume, 0, nil)
}

// SnapshotFunc persists a periodic recursion snapshot. A non-nil error
// aborts the generation: a run that believes it is checkpointed but
// cannot actually write checkpoints should fail loudly, not complete
// unprotected.
type SnapshotFunc func(*HoskingState) error

// HoskingCheckpointed is HoskingResumable with periodic checkpointing:
// when save is non-nil and every is positive, a snapshot is taken and
// handed to save after each block of every points, so a crashed (not
// just signalled) run loses at most one block of work. Snapshots are
// taken at the top of an outer iteration, before the iteration consumes
// randomness, which keeps resumed output bitwise identical.
func HoskingCheckpointed(ctx context.Context, n int, h float64, src MarshalableSource, resume *HoskingState, every int, save SnapshotFunc) ([]float64, *HoskingState, error) {
	if src == nil {
		return nil, nil, fmt.Errorf("fgn: resumable generation needs a marshalable source")
	}
	return hoskingRun(ctx, n, h, rand.New(src), src, resume, every, save)
}

// progressEvery is the outer-iteration stride at which the Hosking
// recursion reports progress and flushes its point counter.
const progressEvery = 4096

// hoskingRun is the shared recursion behind Hosking, HoskingCtx,
// HoskingResumable and HoskingCheckpointed. src may be nil (no
// checkpointing); resume may be nil (fresh start, requires src to be at
// its initial position for reproducibility across save/restore cycles);
// save with a positive every enables periodic snapshots.
func hoskingRun(ctx context.Context, n int, h float64, rng *rand.Rand, src MarshalableSource, resume *HoskingState, every int, save SnapshotFunc) ([]float64, *HoskingState, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if !validHurst(h) {
		return nil, nil, fmt.Errorf("fgn: Hurst parameter must be in (0,1), got %v", h)
	}
	rho, err := FarimaACF(h, n)
	if err != nil {
		return nil, nil, err
	}
	scope := obs.From(ctx)
	defer scope.Span("fgn.hosking")()

	x := make([]float64, n)
	phi := make([]float64, n)     // φ_{k,·}, reused in place
	phiPrev := make([]float64, n) // φ_{k-1,·}
	v := 1.0
	nPrev, dPrev := 0.0, 1.0
	k0 := 1

	if resume != nil {
		if err := validateState(resume, n, h, src); err != nil {
			return nil, nil, err
		}
		copy(x, resume.X)
		copy(phiPrev, resume.PhiPrev)
		v, nPrev, dPrev = resume.V, resume.NPrev, resume.DPrev
		k0 = resume.K
	} else {
		x[0] = rng.NormFloat64() // X_0 ~ N(0, v_0), v_0 = 1
	}

	// fresh is the point X_0 drawn outside the recursion on a fresh
	// start.
	fresh := 0
	if resume == nil {
		fresh = 1
	}

	// Progress flushes and periodic snapshots fire when k reaches a
	// precomputed mark rather than via per-iteration modulo checks:
	// inlining those checks into the loop body measurably slowed the
	// inner recursion loops (~15% on n=10k), so the hot loop pays one
	// integer compare and the side work lives in hoskingTicker.fire.
	t := hoskingTicker{scope: scope, n: n, h: h, k0: k0, fresh: fresh, every: every, save: save, src: src}
	next := t.firstMark()

	for k := k0; k < n; k++ {
		if ctx.Err() != nil {
			scope.Count("fgn.hosking.points", int64(k-k0+fresh-t.counted))
			var st *HoskingState
			if src != nil {
				st = snapshotState(n, h, k, v, nPrev, dPrev, x, phiPrev, src)
				scope.Count("checkpoint.snapshots", 1)
			}
			return nil, st, fmt.Errorf("fgn: Hosking generation interrupted at point %d of %d: %w", k, n, errs.Cancelled(ctx))
		}
		if k == next {
			var st *HoskingState
			next, st, err = t.fire(k, v, nPrev, dPrev, x, phiPrev)
			if err != nil {
				return nil, st, err
			}
		}

		// N_k and D_k (Eqs. 7–8); dotRevSub walks j = 1..k-1 in order.
		nk := dotRevSub(rho[k], phiPrev[1:k], rho[1:k])
		dk := dPrev - nPrev*nPrev/dPrev

		phikk := nk / dk
		phi[k] = phikk
		for j := 1; j < k; j++ {
			phi[j] = phiPrev[j] - phikk*phiPrev[k-j]
		}

		// Conditional mean and variance (Eqs. 11–12).
		m := dotRevAdd(0, phi[1:k+1], x[:k])
		v *= 1 - phikk*phikk
		if v < 0 {
			// Numerically impossible for valid ρ, but guard against
			// catastrophic cancellation at extreme H.
			v = 0
		}
		x[k] = m + math.Sqrt(v)*rng.NormFloat64()

		copy(phiPrev[1:k+1], phi[1:k+1])
		nPrev, dPrev = nk, dk
	}
	scope.Count("fgn.hosking.points", int64(n-k0+fresh-t.counted))
	scope.Progress("fgn.hosking", int64(n), int64(n))
	return x, nil, nil
}

// hoskingTicker schedules the recursion's periodic side work —
// progress/counter flushes every progressEvery points and snapshots
// every `every` points — as precomputed marks, so hoskingRun's hot
// loop tests a single integer equality per iteration and the cold
// paths stay out of its body.
type hoskingTicker struct {
	scope   *obs.Scope
	n       int
	h       float64
	k0      int
	fresh   int
	counted int // points already flushed into fgn.hosking.points
	every   int
	save    SnapshotFunc
	src     MarshalableSource

	nextProg int
	nextSnap int
}

// firstMark initialises the progress and snapshot marks and returns
// the first point index at which fire must run. Marks at or beyond n
// simply never fire.
func (t *hoskingTicker) firstMark() int {
	t.nextProg = t.k0 + progressEvery
	t.nextSnap = t.n // snapshots disabled: mark is unreachable
	if t.save != nil && t.every > 0 {
		t.nextSnap = t.k0 + t.every
	}
	return min(t.nextProg, t.nextSnap)
}

// fire runs the side work due at point k — kept out of hoskingRun's
// loop body deliberately — and returns the next mark. On a failed
// snapshot save it returns the snapshot alongside the error so the
// caller can hand both to its caller.
//
//go:noinline
func (t *hoskingTicker) fire(k int, v, nPrev, dPrev float64, x, phiPrev []float64) (int, *HoskingState, error) {
	if k == t.nextProg {
		done := k - t.k0 + t.fresh
		t.scope.Count("fgn.hosking.points", int64(done-t.counted))
		t.counted = done
		t.scope.Progress("fgn.hosking", int64(k), int64(t.n))
		t.nextProg += progressEvery
	}
	if k == t.nextSnap {
		st := snapshotState(t.n, t.h, k, v, nPrev, dPrev, x, phiPrev, t.src)
		t.scope.Count("checkpoint.snapshots", 1)
		if err := t.save(st); err != nil {
			return 0, st, fmt.Errorf("fgn: saving periodic snapshot at point %d of %d: %w", k, t.n, err)
		}
		t.nextSnap += t.every
	}
	return min(t.nextProg, t.nextSnap), nil, nil
}

// snapshotState copies the live recursion state into an owned snapshot.
func snapshotState(n int, h float64, k int, v, nPrev, dPrev float64, x, phiPrev []float64, src MarshalableSource) *HoskingState {
	st := &HoskingState{
		N: n, H: h, K: k,
		V: v, NPrev: nPrev, DPrev: dPrev,
		X:       append([]float64(nil), x[:k]...),
		PhiPrev: append([]float64(nil), phiPrev[:k]...),
	}
	if b, err := src.MarshalBinary(); err == nil {
		st.RNG = b
	}
	return st
}

// validateState checks a resume snapshot against the requested run and
// restores the random source from it.
func validateState(st *HoskingState, n int, h float64, src MarshalableSource) error {
	//vbrlint:ignore floateq resuming a checkpoint requires bitwise-identical H, not approximate equality
	if st.N != n || st.H != h {
		return fmt.Errorf("fgn: snapshot is for n=%d H=%v, run wants n=%d H=%v: %w",
			st.N, st.H, n, h, errs.ErrCheckpointMismatch)
	}
	if st.K < 1 || st.K > n || len(st.X) != st.K || len(st.PhiPrev) != st.K {
		return fmt.Errorf("fgn: snapshot state inconsistent (K=%d, |X|=%d, |φ|=%d): %w",
			st.K, len(st.X), len(st.PhiPrev), errs.ErrCheckpointCorrupt)
	}
	if len(st.RNG) == 0 {
		return fmt.Errorf("fgn: snapshot carries no random-source state: %w", errs.ErrCheckpointCorrupt)
	}
	if src == nil {
		return fmt.Errorf("fgn: resuming needs a marshalable source")
	}
	if err := src.UnmarshalBinary(st.RNG); err != nil {
		return fmt.Errorf("fgn: restoring random source: %w: %w", errs.ErrCheckpointCorrupt, err)
	}
	return nil
}

// DaviesHarte generates n points of zero-mean, unit-variance fractional
// Gaussian noise with Hurst parameter H by circulant embedding: the
// autocovariance sequence is embedded in a circulant matrix of size 2n
// whose eigenvalues (the FFT of the first row) are provably non-negative
// for FGN, giving an exact O(n log n) sampler.
func DaviesHarte(n int, h float64, rng *rand.Rand) ([]float64, error) {
	return DaviesHarteCtx(context.Background(), n, h, rng)
}

// DaviesHarteCtx is DaviesHarte with cooperative cancellation, checked
// between the pipeline stages (ACF build, eigenvalue FFT, spectrum
// randomization, synthesis FFT). It is the composition of the two
// halves below: the seed-independent eigenvalue setup (cacheable across
// requests, keyed by (H, n)) and the seed-dependent synthesis.
func DaviesHarteCtx(ctx context.Context, n int, h float64, rng *rand.Rand) ([]float64, error) {
	scope := obs.From(ctx)
	defer scope.Span("fgn.daviesharte")()
	lambda, err := DaviesHarteEigenCtx(ctx, n, h)
	if err != nil {
		return nil, err
	}
	return DaviesHarteFromEigenCtx(ctx, n, lambda, rng)
}

// DaviesHarteEigenCtx computes the seed-independent half of the
// circulant embedding for (H, n): the eigenvalues of the 2n circulant
// matrix built from the FGN autocovariance (the FFT of its first row),
// verified non-negative and clamped at numerical zero. The result
// depends only on (H, n), so it is the natural unit of cross-request
// caching: one vector serves every seed.
//
// For n == 1 the sampler needs no embedding; the returned slice is
// empty and DaviesHarteFromEigenCtx ignores it.
func DaviesHarteEigenCtx(ctx context.Context, n int, h float64) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if !validHurst(h) {
		return nil, fmt.Errorf("fgn: Hurst parameter must be in (0,1), got %v", h)
	}
	if n == 1 {
		return []float64{}, nil
	}
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	// First row of the circulant: γ_0..γ_n, γ_{n-1}..γ_1.
	rho, err := FGNACF(h, n)
	if err != nil {
		return nil, err
	}
	m := 2 * n
	row := make([]complex128, m)
	for k := 0; k < n; k++ {
		row[k] = complex(rho[k], 0)
	}
	// γ_n, from the closed form.
	h2 := 2 * h
	gn := 0.5 * (math.Pow(float64(n)+1, h2) - 2*math.Pow(float64(n), h2) + math.Pow(float64(n)-1, h2))
	row[n] = complex(gn, 0)
	for k := 1; k < n; k++ {
		row[m-k] = complex(rho[k], 0)
	}

	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	fl := fft.Forward(row)
	// Eigenvalues must be (numerically) non-negative. Only the real
	// parts matter downstream (the row is symmetric, so the spectrum is
	// real up to round-off); keeping float64 halves the cache footprint.
	lambda := make([]float64, m)
	for i := range fl {
		lambda[i] = real(fl[i])
		if lambda[i] < 0 {
			if lambda[i] < -1e-8*float64(m) {
				return nil, fmt.Errorf("fgn: circulant embedding not non-negative definite (λ=%v) at H=%v", lambda[i], h)
			}
			lambda[i] = 0
		}
	}
	obs.From(ctx).Count("fgn.daviesharte.eigen", 1)
	return lambda, nil
}

// DaviesHarteFromEigenCtx is the seed-dependent half of the Davies–Harte
// sampler: it randomizes the spectrum with Hermitian symmetry and
// inverse-transforms it into n points of FGN. lambda must come from
// DaviesHarteEigenCtx for the same n; for the same rng state the output
// is bitwise identical to DaviesHarteCtx.
func DaviesHarteFromEigenCtx(ctx context.Context, n int, lambda []float64, rng *rand.Rand) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if rng == nil {
		return nil, fmt.Errorf("fgn: generation needs a random source")
	}
	if n == 1 {
		return []float64{rng.NormFloat64()}, nil
	}
	m := 2 * n
	if len(lambda) != m {
		return nil, fmt.Errorf("fgn: eigenvalue vector has %d entries, want %d for n=%d", len(lambda), m, n)
	}
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}

	// Build the randomized spectrum with the Hermitian symmetry that makes
	// the inverse FFT real-valued.
	w := make([]complex128, m)
	scale := 1 / math.Sqrt(float64(m))
	w[0] = complex(math.Sqrt(lambda[0])*rng.NormFloat64()*scale, 0)
	w[n] = complex(math.Sqrt(lambda[n])*rng.NormFloat64()*scale, 0)
	for k := 1; k < n; k++ {
		sd := math.Sqrt(lambda[k] / 2)
		re := sd * rng.NormFloat64() * scale
		im := sd * rng.NormFloat64() * scale
		w[k] = complex(re, im)
		w[m-k] = complex(re, -im)
	}

	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	z := fft.Forward(w)
	out := make([]float64, n)
	for i := range out {
		out[i] = real(z[i])
	}
	obs.From(ctx).Count("fgn.daviesharte.points", int64(n))
	return out, nil
}

// Standardize rescales xs in place to zero mean and unit variance and
// returns it. Generators are exact in distribution but any finite sample
// has sampling error; the marginal-transform step of the model (Eq. 13)
// assumes an exactly standard Gaussian input, so callers standardize
// before transforming.
func Standardize(xs []float64) []float64 {
	n := len(xs)
	if n == 0 {
		return xs
	}
	var mean float64
	for _, v := range xs {
		mean += v
	}
	mean /= float64(n)
	var ss float64
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n))
	//vbrlint:ignore floateq exact-zero guard: only a literally constant series has sd == 0, and any positive sd must divide
	if sd == 0 {
		for i := range xs {
			xs[i] = 0
		}
		return xs
	}
	for i := range xs {
		xs[i] = (xs[i] - mean) / sd
	}
	return xs
}
