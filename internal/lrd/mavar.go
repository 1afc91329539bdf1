package lrd

import (
	"fmt"
	"math"

	"vbr/internal/errs"
)

// This file implements the Modified Allan Variance (MAVAR) Hurst
// estimator of Bregni & Primerano (arxiv cs/0510006), the repository's
// fifth Ĥ estimator. The traffic rate series y_i (bytes per frame) is
// integrated into "phase" data x_i = Σ_{k≤i} y_k — the byte count —
// and the modified Allan variance at observation interval τ = n·τ0 is
// the averaged squared second difference of n-averaged phase:
//
//	Mod σ²_y(n) = ⟨ ( x̄_{j+2n} − 2 x̄_{j+n} + x̄_j )² ⟩ / (2 τ²),
//	x̄_j = (1/n) Σ_{i=j}^{j+n−1} x_i.
//
// For a rate process with the power-law spectrum S(f) ~ f^{1−2H} of
// long-range dependence, Mod σ²_y(τ) ~ τ^μ with μ = 2H − 2, so H is
// read off a log–log regression over octave-spaced τ — the same slope
// convention as the variance–time plot, but with second differencing
// (robust to level shifts and linear trends) and strictly better
// convergence per the paper.
//
// The implementation is the *decimated* form: instead of averaging
// windows at every phase offset j (which needs an O(τ) sliding buffer
// per octave), windows advance with stride τ/4 — each octave keeps the
// phase sum of the sub-block being filled plus the last 3f−1 completed
// sub-block sums, an O(1)-memory accumulator. Stationarity of
// the increments makes the strided average an unbiased estimate of the
// same modified Allan variance; the 75%-overlapped windows keep most of
// the fully-overlapped estimator's averaging, and the calibration
// battery (calibration_table.go) quantifies what variance remains. That
// bounded accumulator is what makes the streaming OnlineMAVAR form
// possible; the batch MAVAR entry point simply feeds the whole series
// through the same accumulators, so batch and online results are
// bitwise identical by construction.

const (
	// maxMavarOctaves bounds the per-snapshot regression scratch: octave
	// τ = 2^39 would need a 1.6-trillion-frame stream, so fixed arrays of
	// this size always suffice and keep Estimate allocation-free.
	maxMavarOctaves = 40
	// minMavarWindows is the minimum number of second-difference windows
	// an octave must hold before its variance enters the fit; below that
	// the χ²-noisy point would destabilize the regression.
	minMavarWindows = 8
	// defaultMavarFitLo is the default smallest fitted τ. τ = 1 is
	// excluded because the MAVAR transfer constant has not settled there
	// (the phase-averaging window is a single sample, making the point an
	// AVAR value, not a MAVAR one). τ ≥ 2 stays in the fit: the small
	// octaves carry a mild transition bias (≈ −0.02 Ĥ, corrected by the
	// committed calibration table) but thousands of windows, and that
	// averaging is what keeps MAVAR's sample std below variance–time's
	// even on 4k-frame series — see calibration_table.go.
	defaultMavarFitLo = 2
)

// mavarSubs is the number of sub-blocks per averaging window: windows
// advance with stride τ/mavarSubs, so each completed sub-block yields
// one second-difference window once 3·mavarSubs sub-blocks exist.
const mavarSubs = 4

// mavarHist is the number of completed sub-block sums an octave carries
// from one folded piece to the next: the newest window needs the last
// 3f of them, and the piece supplies at least the newest one itself.
const mavarHist = 3*mavarSubs - 1

// mavarStage is the number of observations Add stages before the block
// kernel folds them in. It sizes the fixed in-struct stage and the two
// sub-block-sum rows (about 12 KiB together) and nothing else: any
// piece length gives the same bits.
const mavarStage = 512

// mavarLevel is one octave's decimating accumulator: the phase sum of
// the sub-block being filled, the last 3f−1 completed sub-block sums
// (f = min(τ, mavarSubs)), and the running second-difference
// statistics.
type mavarLevel struct {
	tau int
	sub int // sub-block length: max(1, τ/mavarSubs)
	f   int // sub-blocks per window block: τ/sub

	acc   float64 // phase sum of the current, partially filled sub-block
	fill  int
	hist  [mavarHist]float64 // last nhist completed sub-block sums, oldest first
	nhist int                // min(completed sub-blocks, 3f−1)

	sumSq float64 // Σ (B₂ − 2B₁ + B₀)² over strided windows
	count int64   // second-difference windows folded into sumSq
}

// mavarWindows returns how many second-difference windows the octave τ
// completes on a series of n observations.
func mavarWindows(n, tau int) int64 {
	sub := tau / mavarSubs
	if sub < 1 {
		sub = 1
	}
	w := int64(n/sub) - int64(3*(tau/sub)) + 1
	if w < 0 {
		return 0
	}
	return w
}

// modVar returns the level's modified Allan variance estimate
// Σ D² / (2 n⁴ τ0² M) with τ0 = 1 frame, and NaN before any window
// completed.
func (l *mavarLevel) modVar() float64 {
	if l.count == 0 {
		return math.NaN()
	}
	n := float64(l.tau)
	return l.sumSq / (2 * n * n * n * n * float64(l.count))
}

// OnlineMAVAR is the streaming MAVAR estimator: one decimating
// accumulator per octave τ = 1, 2, 4, …, maxTau in O(1) memory. Add
// stages observations and a level-major block kernel folds them in;
// every reader folds what is pending first. Feeding a series in any
// partition yields bitwise-identical results, and the batch MAVAR
// function is defined as feeding the whole series.
type OnlineMAVAR struct {
	phase  float64
	n      int64
	levels []mavarLevel

	staged int                                // observations waiting in stage
	stage  [mavarStage]float64                // staged observations, then their phase prefix
	sums   [2][mavarHist + mavarStage]float64 // sub-block sums of the octave pair being folded
	spare  mavarLevel                         // partner of an odd octave out
}

// MaxMavarTau returns the largest octave-spaced observation interval τ
// worth tracking for a series of n frames: the level must be able to
// complete at least minMavarWindows second-difference windows.
func MaxMavarTau(n int) int {
	tau := 1
	for mavarWindows(n, 2*tau) >= minMavarWindows {
		tau *= 2
	}
	return tau
}

// NewOnlineMAVAR builds a streaming estimator with octaves
// 1, 2, 4, …, maxTau (rounded down to a power of two).
func NewOnlineMAVAR(maxTau int) *OnlineMAVAR {
	o := &OnlineMAVAR{}
	for tau := 1; tau <= maxTau && len(o.levels) < maxMavarOctaves; tau *= 2 {
		sub := tau / mavarSubs
		if sub < 1 {
			sub = 1
		}
		o.levels = append(o.levels, mavarLevel{tau: tau, sub: sub, f: tau / sub})
	}
	return o
}

// N reports how many observations have been folded in.
func (o *OnlineMAVAR) N() int64 {
	o.fold()
	return o.n
}

// MaxTau reports the largest tracked octave.
func (o *OnlineMAVAR) MaxTau() int { return o.levels[len(o.levels)-1].tau }

// Add stages one rate observation, folding the staged piece into every
// octave once the stage is full. It allocates nothing.
//
//vbrlint:hotpath
func (o *OnlineMAVAR) Add(v float64) {
	o.stage[o.staged] = v
	o.staged++
	if o.staged == mavarStage {
		o.fold()
	}
}

// fold is the block kernel: it folds the staged piece into every octave
// and empties the stage. The phase prefix is computed once; then the
// octaves are walked a pair at a time, each with its running state in
// locals. Octaves share no floating-point state, so this order performs
// exactly the operations, in exactly the order, of updating every
// octave observation by observation:
//
//   - the phase x_i and each sub-block's phase sum accumulate left to
//     right as before;
//   - each block sum B(s) of f consecutive sub-block sums accumulates
//     from 0 in window order, computed once and shared by the three
//     windows it belongs to (as their B₂, B₁ and B₀);
//   - D = B₂ − 2B₁ + B₀ and Σ D² run in window order.
//
// Sub-block sums completed in earlier pieces come from the octave's
// carried history, so the kernel gives the same bits for any partition.
// Each sub-block sum is one chain of dependent additions; walking two
// octaves in one pass lets the two chains overlap in the pipeline.
//
//vbrlint:hotpath
func (o *OnlineMAVAR) fold() {
	ph := o.stage[:o.staged]
	if len(ph) == 0 {
		return
	}
	phase := o.phase
	for i, v := range ph {
		phase += v
		ph[i] = phase
	}
	o.phase = phase
	o.n += int64(len(ph))
	o.staged = 0

	for i := 0; i < len(o.levels); i += 2 {
		// An odd octave out pairs with a throwaway copy of itself.
		a, b := &o.levels[i], &o.spare
		if i+1 < len(o.levels) {
			b = &o.levels[i+1]
		} else {
			o.spare = *a
		}
		// Each scratch row: carried history, then this piece's
		// completed sub-block sums.
		sa, sb := o.sums[0][:], o.sums[1][:]
		ha, hb := copy(sa, a.hist[:a.nhist]), copy(sb, b.hist[:b.nhist])
		na, nb := ha, hb
		accA, fillA, subA := a.acc, a.fill, a.sub
		accB, fillB, subB := b.acc, b.fill, b.sub
		for _, x := range ph {
			accA += x
			accB += x
			fillA++
			fillB++
			if fillA == subA {
				sa[na] = accA
				na++
				accA, fillA = 0, 0
			}
			if fillB == subB {
				sb[nb] = accB
				nb++
				accB, fillB = 0, 0
			}
		}
		a.acc, a.fill = accA, fillA
		b.acc, b.fill = accB, fillB
		a.closeWindows(sa[:na], ha)
		b.closeWindows(sb[:nb], hb)
	}
}

// closeWindows folds the second-difference windows that the piece's
// sub-blocks close into the running statistics and carries the newest
// sub-block sums forward. sums holds the carried history (its first nh
// entries) followed by the piece's completed sub-block sums, and is
// overwritten.
//
//vbrlint:hotpath
func (l *mavarLevel) closeWindows(sums []float64, nh int) {
	f, ns := l.f, len(sums)
	l.nhist = copy(l.hist[:3*f-1], sums[max(0, ns-(3*f-1)):])

	// The sub-block at sums[t] closes a window once 3f sub-blocks
	// exist; those before nh closed theirs in earlier pieces.
	first := max(nh, 3*f-1)
	if first >= ns {
		return
	}
	// Overwrite bs[s] with B(s) = 0 + bs[s] + … + bs[s+f−1] in place:
	// B(s) reads only bs[s:], so increasing s never reads a block sum
	// where it wants a sub-block sum. f = min(τ, mavarSubs) is 1, 2 or
	// 4, each spelled out left to right.
	bs := sums[first+1-3*f:]
	switch f {
	case 1:
		for s, x := range bs {
			bs[s] = 0 + x
		}
	case 2:
		for s := 0; s+1 < len(bs); s++ {
			bs[s] = 0 + bs[s] + bs[s+1]
		}
	default:
		for s := 0; s+3 < len(bs); s++ {
			bs[s] = 0 + bs[s] + bs[s+1] + bs[s+2] + bs[s+3]
		}
	}
	// Window t takes B₀ = B(t−3f+1), B₁ = B(t−2f+1) and B₂ = B(t−f+1).
	nw := ns - first
	b0s, b1s, b2s := bs[:nw], bs[f:f+nw], bs[2*f:2*f+nw]
	sumSq := l.sumSq
	for j, b0 := range b0s {
		d := b2s[j] - 2*b1s[j] + b0
		sumSq += d * d
	}
	l.sumSq = sumSq
	l.count += int64(nw)
}

// Estimate returns the current Ĥ from the weighted log–log fit over the
// default τ range, plus the number of octave points behind it. It is
// allocation-free (fixed scratch; safe inside hot monitor probes) and
// returns (NaN, 0) until at least two octaves hold minMavarWindows
// windows.
//
//vbrlint:hotpath
func (o *OnlineMAVAR) Estimate() (h float64, octaves int) {
	o.fold()
	mu, _, _, n := o.fit(defaultMavarFitLo, 0)
	if n < 2 {
		return math.NaN(), 0
	}
	return 1 + mu/2, n
}

// fit runs the weighted least-squares regression of log Mod σ²(τ)
// against log τ over octaves with τ ∈ [fitLo, fitHi] (fitHi ≤ 0 means
// unbounded) and at least minMavarWindows windows. Points are weighted
// by their window count — the variance of log Mod σ̂² scales as
// 2/count, so this is the usual inverse-variance weighting and keeps
// the sparse top octaves from dominating the noise budget. It reports
// the slope, the τ range actually used, and the point count; slope is
// NaN when fewer than two usable octaves exist.
func (o *OnlineMAVAR) fit(fitLo, fitHi int) (mu float64, usedLo, usedHi, n int) {
	var sw, sx, sy, sxx, sxy float64
	for i := range o.levels {
		l := &o.levels[i]
		if l.count < minMavarWindows || l.tau < fitLo || (fitHi > 0 && l.tau > fitHi) {
			continue
		}
		mv := l.modVar()
		if !(mv > 0) || math.IsInf(mv, 0) {
			continue
		}
		x := math.Log(float64(l.tau))
		y := math.Log(mv)
		w := float64(l.count)
		sw += w
		sx += w * x
		sy += w * y
		sxx += w * x * x
		sxy += w * x * y
		if n == 0 {
			usedLo = l.tau
		}
		usedHi = l.tau
		n++
	}
	den := sw*sxx - sx*sx
	//vbrlint:ignore floateq exact-zero guard: the weighted denominator vanishes only with < 2 distinct octaves
	if n < 2 || den == 0 {
		return math.NaN(), usedLo, usedHi, n
	}
	return (sw*sxy - sx*sy) / den, usedLo, usedHi, n
}

// MAVARPoint is one octave of the MAVAR plot: observation interval τ
// (in frames), the modified Allan variance, and the number of
// second-difference windows averaged into it.
type MAVARPoint struct {
	Tau     int
	ModVar  float64
	Windows int64
}

// MAVARResult carries the log–log plot points, the fitted τ range, and
// the estimate.
type MAVARResult struct {
	Points       []MAVARPoint
	FitLo, FitHi int     // τ range the regression actually used
	Octaves      int     // number of octave points in the fit
	Mu           float64 // fitted slope: Mod σ²(τ) ~ τ^μ
	H            float64 // H = 1 + μ/2
}

// Result snapshots the accumulated state into a MAVARResult, fitting
// over τ ∈ [fitLo, fitHi] (0, 0 selects the default range: τ ≥ 2,
// unbounded above). It fails with an error matching
// errs.ErrInvalidSeries while fewer than two octaves are usable.
func (o *OnlineMAVAR) Result(fitLo, fitHi int) (*MAVARResult, error) {
	o.fold()
	if fitLo <= 0 {
		fitLo = defaultMavarFitLo
	}
	res := &MAVARResult{Points: make([]MAVARPoint, 0, len(o.levels))}
	for i := range o.levels {
		l := &o.levels[i]
		if l.count == 0 {
			continue
		}
		res.Points = append(res.Points, MAVARPoint{Tau: l.tau, ModVar: l.modVar(), Windows: l.count})
	}
	mu, usedLo, usedHi, n := o.fit(fitLo, fitHi)
	if n < 2 || math.IsNaN(mu) {
		return nil, fmt.Errorf("lrd: MAVAR fit needs ≥ 2 usable octaves in τ ∈ [%d, %d], got %d: %w",
			fitLo, fitHi, n, errs.ErrInvalidSeries)
	}
	res.FitLo, res.FitHi = usedLo, usedHi
	res.Octaves = n
	res.Mu = mu
	res.H = 1 + mu/2
	return res, nil
}

// MAVAR estimates the Hurst parameter of xs by modified Allan variance
// over octave-spaced observation intervals, fitting the log–log slope
// over τ ∈ [fitLo, fitHi] (pass 0, 0 for the default range). It is the
// batch entry point of the streaming estimator: the series is fed
// through OnlineMAVAR, so batch and block-by-block results are bitwise
// identical.
func MAVAR(xs []float64, fitLo, fitHi int) (*MAVARResult, error) {
	if len(xs) < 256 {
		return nil, fmt.Errorf("lrd: MAVAR needs ≥ 256 points, got %d: %w", len(xs), errs.ErrInvalidSeries)
	}
	if err := checkFinite(xs); err != nil {
		return nil, fmt.Errorf("lrd: MAVAR: %w", err)
	}
	o := NewOnlineMAVAR(MaxMavarTau(len(xs)))
	for _, v := range xs {
		o.Add(v)
	}
	return o.Result(fitLo, fitHi)
}
