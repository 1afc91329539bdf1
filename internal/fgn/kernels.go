package fgn

import (
	"math"
	"math/rand/v2"
)

// This file holds the one engine behind every exact-Hosking entry
// point: cold and warm batch generation, the stream, and the
// coefficient schedule all advance a hoskingStepper. Its step runs the
// Durbin–Levinson update φ_{k−1} → φ_k (Eqs. 9–10) in place and, in the
// same sweep over φ, folds each fresh φ_{k,j} into up to two
// dot-product chains: the conditional mean m_k (Eq. 11) and the next
// point's prediction numerator N_{k+1} (Eq. 7).
//
// Exact Hosking is the repository's bitwise reference, so rounding
// order is part of its contract. Each chain keeps a single accumulator
// updated in ascending j — the IEEE operation sequence of the plain
// loop — because multi-accumulator or pairwise sums would reassociate
// and change the bits. The fusion keeps them: it reorders only
// independent work (the pair updates, the other chain) against a
// chain's dependent adds, which that work now overlaps instead of
// running as separate passes over φ.

// hoskingStepper is the Hosking recursion (Eqs. 7–12) advanced one
// point at a time. At the top of step k it holds φ_{k−1,·} in place in
// phi and, in cold mode, N_k already folded by step k−1's sweep.
type hoskingStepper struct {
	k   int       // next point: X_k, or φ_kk for a schedule
	x   []float64 // X_0..X_{k−1}; nil when only the schedule is wanted
	phi []float64 // φ_{k−1,j}, j = 1..k−1 (index 0 unused, always 0)

	// Cold mode: ρ_0..ρ_n drive N/D (Eqs. 7–10) and v is recursed.
	rho   []float64
	v     float64 // v_{k−1}
	nPrev float64 // N_{k−1}
	dPrev float64 // D_{k−1}
	nk    float64 // N_k

	// Warm mode: the cached φ_kk and v_k schedule replaces N/D and v.
	kk, vs []float64
}

// newColdStepper returns a stepper generating n points of fARIMA(0, d,
// 0) noise with d = h − ½ from ρ alone.
func newColdStepper(n int, h float64) (hoskingStepper, error) {
	rho, err := FarimaACF(h, n)
	if err != nil {
		return hoskingStepper{}, err
	}
	return hoskingStepper{
		x: make([]float64, n), phi: make([]float64, n),
		rho: rho, v: 1, dPrev: 1, nk: rho[1],
	}, nil
}

// newWarmStepper returns a stepper generating n points from a schedule
// covering them.
func newWarmStepper(n int, kk, vs []float64) hoskingStepper {
	return hoskingStepper{x: make([]float64, n), phi: make([]float64, n), kk: kk, vs: vs}
}

// resume restores the stepper to the top of step st.K of a snapshot
// and recomputes N_K with one plain chain pass, the value step K−1's
// sweep would have folded.
func (s *hoskingStepper) resume(st *HoskingState) {
	k := st.K
	copy(s.x, st.X)
	copy(s.phi, st.PhiPrev)
	s.k, s.v, s.nPrev, s.dPrev = k, st.V, st.NPrev, st.DPrev
	nk := s.rho[k]
	for j := 1; j < k; j++ {
		nk -= s.phi[j] * s.rho[k-j]
	}
	s.nk = nk
}

// snapshot copies the state at the top of step k into an owned
// HoskingState; the in-place φ there is φ_{k−1,·}, what PhiPrev holds.
func (s *hoskingStepper) snapshot(h float64, src MarshalableSource) *HoskingState {
	st := &HoskingState{
		N: len(s.x), H: h, K: s.k,
		V: s.v, NPrev: s.nPrev, DPrev: s.dPrev,
		X:       append([]float64(nil), s.x[:s.k]...),
		PhiPrev: append([]float64(nil), s.phi[:s.k]...),
	}
	if b, err := src.MarshalBinary(); err == nil {
		st.RNG = b
	}
	return st
}

// draw generates X_k ~ N(m_k, v_k) and appends it to the history;
// X_0 ~ N(0, 1) needs no step.
func (s *hoskingStepper) draw(rng *rand.Rand) float64 {
	if s.k == 0 {
		s.x[0] = rng.NormFloat64()
		s.k = 1
		return s.x[0]
	}
	k := s.k
	_, v, m := s.step()
	s.x[k] = m + math.Sqrt(v)*rng.NormFloat64()
	return s.x[k]
}

// step advances the recursion by one point and returns φ_kk, v_k and
// the conditional mean m_k (0 without history).
//
//vbrlint:hotpath
func (s *hoskingStepper) step() (phikk, vk, mk float64) {
	k := s.k
	s.k = k + 1
	if s.kk != nil {
		phikk, vk = s.kk[k], s.vs[k]
		mk, _ = levinsonSweep[meanChain](s.phi, s.x, nil, k, phikk)
		return phikk, vk, mk
	}
	dk := s.dPrev - s.nPrev*s.nPrev/s.dPrev // Eq. 8
	phikk = s.nk / dk
	var nNext float64
	if s.x != nil {
		mk, nNext = levinsonSweep[bothChains](s.phi, s.x, s.rho, k, phikk)
	} else {
		_, nNext = levinsonSweep[predChain](s.phi, nil, s.rho, k, phikk)
	}
	vk = s.v * (1 - phikk*phikk) // Eq. 12
	if vk < 0 {
		// Numerically impossible for valid ρ, but guard against
		// catastrophic cancellation at extreme H.
		vk = 0
	}
	s.v, s.nPrev, s.dPrev, s.nk = vk, s.nk, dk, nNext
	return phikk, vk, mk
}

// A chainSet names the dot-product chains a sweep folds. It is a type
// argument rather than a flag so that each set compiles to its own
// branch-free loop: the array length is a constant in every
// instantiation, and the compiler drops the chains it rules out.
type chainSet interface {
	meanChain | predChain | bothChains
}

type (
	meanChain  [1]struct{} // m_k only: warm generation
	predChain  [2]struct{} // N_{k+1} only: the schedule
	bothChains [3]struct{} // m_k and N_{k+1}: cold generation
)

// levinsonSweep turns φ_{k−1,·} into φ_{k,·} in place with reflection
// coefficient c (φ_{k,j} = φ_{k−1,j} − c·φ_{k−1,k−j}, φ_{k,k} = c) and
// folds each φ_{k,j}, j = 1..k in ascending order, into the chains of
// C:
//
//	m    = Σ φ_{k,j} X_{k−j}               (Eq. 11; meanChain, bothChains)
//	pred = ρ_{k+1} − Σ φ_{k,j} ρ_{k+1−j}   (Eq. 7; predChain, bothChains)
//
// The first pass walks the pairs (j, k−j), j ≤ k/2: it reads both
// members before writing either, so the in-place update carries the
// bits of the two-buffer form, and folds the fresh φ_{k,j} at once.
// The second pass folds j > k/2, made final by the first.
//
//vbrlint:hotpath
func levinsonSweep[C chainSet](phi, x, rho []float64, k int, c float64) (m, pred float64) {
	var set C
	hasMean, hasPred := len(set) != 2, len(set) >= 2
	if hasPred {
		pred = rho[k+1]
	}
	half := k / 2
	i, j := 1, k-1 // pair (i, j = k−i); X_{k−i} = x[j], ρ_{k+1−i} = rho[j+1]
	for ; i+3 <= half; i, j = i+4, j-4 {
		lo := phi[i : i+4 : i+4]
		hi := phi[j-3 : j+1 : j+1]
		a, b := lo[0], hi[3]
		f0 := a - c*b
		lo[0], hi[3] = f0, b-c*a
		a, b = lo[1], hi[2]
		f1 := a - c*b
		lo[1], hi[2] = f1, b-c*a
		a, b = lo[2], hi[1]
		f2 := a - c*b
		lo[2], hi[1] = f2, b-c*a
		a, b = lo[3], hi[0]
		f3 := a - c*b
		lo[3], hi[0] = f3, b-c*a
		if hasMean {
			xs := x[j-3 : j+1 : j+1]
			m += f0 * xs[3]
			m += f1 * xs[2]
			m += f2 * xs[1]
			m += f3 * xs[0]
		}
		if hasPred {
			rs := rho[j-2 : j+2 : j+2]
			pred -= f0 * rs[3]
			pred -= f1 * rs[2]
			pred -= f2 * rs[1]
			pred -= f3 * rs[0]
		}
	}
	for ; i <= half; i, j = i+1, j-1 {
		a, b := phi[i], phi[j]
		f := a - c*b
		phi[i], phi[j] = f, b-c*a
		if hasMean {
			m += f * x[j]
		}
		if hasPred {
			pred -= f * rho[j+1]
		}
	}
	phi[k] = c

	// j = half+1..k; X_{k−j} = x[u], ρ_{k+1−j} = rho[u+1].
	u := k - i
	for ; i+3 <= k; i, u = i+4, u-4 {
		ps := phi[i : i+4 : i+4]
		if hasMean {
			xs := x[u-3 : u+1 : u+1]
			m += ps[0] * xs[3]
			m += ps[1] * xs[2]
			m += ps[2] * xs[1]
			m += ps[3] * xs[0]
		}
		if hasPred {
			rs := rho[u-2 : u+2 : u+2]
			pred -= ps[0] * rs[3]
			pred -= ps[1] * rs[2]
			pred -= ps[2] * rs[1]
			pred -= ps[3] * rs[0]
		}
	}
	for ; i <= k; i, u = i+1, u-1 {
		if hasMean {
			m += phi[i] * x[u]
		}
		if hasPred {
			pred -= phi[i] * rho[u+1]
		}
	}
	return m, pred
}
