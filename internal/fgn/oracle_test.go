package fgn

import (
	"math"
	"math/rand/v2"
)

// This file keeps the four hand-written Durbin–Levinson recursions that
// preceded hoskingStepper, copied verbatim (observability and ticker
// side work stripped, arithmetic untouched), together with the kernels
// they called. They are the oracles the stepper is held to bit for bit
// in stepper_test.go; oracleRun also produces checkpoints in the
// two-buffer layout the stepper must keep resuming.

// dotRevAdd returns acc after folding in a[i]·b[len(b)-1-i] for
// i = 0..len(a)-1, i.e. acc + a·reverse(b) accumulated sequentially.
// Requires len(a) ≤ len(b); the tail of b beyond len(a) reversed
// positions is untouched.
func dotRevAdd(acc float64, a, b []float64) float64 {
	n := len(a)
	j := len(b) - 1
	i := 0
	for ; i+4 <= n; i, j = i+4, j-4 {
		aa := a[i : i+4 : i+4]
		bb := b[j-3 : j+1 : j+1]
		acc += aa[0] * bb[3]
		acc += aa[1] * bb[2]
		acc += aa[2] * bb[1]
		acc += aa[3] * bb[0]
	}
	for ; i < n; i, j = i+1, j-1 {
		acc += a[i] * b[j]
	}
	return acc
}

// dotRevSub is dotRevAdd with subtraction: acc − Σ a[i]·b[len(b)-1-i],
// subtracted term by term in order. Requires len(a) ≤ len(b).
func dotRevSub(acc float64, a, b []float64) float64 {
	n := len(a)
	j := len(b) - 1
	i := 0
	for ; i+4 <= n; i, j = i+4, j-4 {
		aa := a[i : i+4 : i+4]
		bb := b[j-3 : j+1 : j+1]
		acc -= aa[0] * bb[3]
		acc -= aa[1] * bb[2]
		acc -= aa[2] * bb[1]
		acc -= aa[3] * bb[0]
	}
	for ; i < n; i, j = i+1, j-1 {
		acc -= a[i] * b[j]
	}
	return acc
}

// updatePhiInPlace applies the Levinson step φ_{k,j} = φ_{k-1,j} −
// c·φ_{k-1,k-j} for j = 1..k-1 in place and sets φ_{k,k} = c.
func updatePhiInPlace(phi []float64, k int, c float64) {
	for i, j := 1, k-1; i < j; i, j = i+1, j-1 {
		a, b := phi[i], phi[j]
		phi[i] = a - c*b
		phi[j] = b - c*a
	}
	if k >= 2 && k%2 == 0 {
		m := k / 2
		a := phi[m]
		phi[m] = a - c*a
	}
	phi[k] = c
}

// oracleRun is the former cold batch recursion (hoskingRun). With
// resume non-nil it continues from that two-buffer snapshot; with
// stopAt in [1, n) it stops at the top of step stopAt and returns the
// snapshot the former code would have taken there instead of a series.
func oracleRun(n int, h float64, src MarshalableSource, resume *HoskingState, stopAt int) ([]float64, *HoskingState) {
	rng := rand.New(src)
	rho, err := FarimaACF(h, n)
	if err != nil {
		panic(err)
	}
	x := make([]float64, n)
	phi := make([]float64, n)     // φ_{k,·}, reused in place
	phiPrev := make([]float64, n) // φ_{k-1,·}
	v := 1.0
	nPrev, dPrev := 0.0, 1.0
	k0 := 1

	if resume != nil {
		if err := src.UnmarshalBinary(resume.RNG); err != nil {
			panic(err)
		}
		copy(x, resume.X)
		copy(phiPrev, resume.PhiPrev)
		v, nPrev, dPrev = resume.V, resume.NPrev, resume.DPrev
		k0 = resume.K
	} else {
		x[0] = rng.NormFloat64() // X_0 ~ N(0, v_0), v_0 = 1
	}

	for k := k0; k < n; k++ {
		if k == stopAt {
			st := &HoskingState{
				N: n, H: h, K: k,
				V: v, NPrev: nPrev, DPrev: dPrev,
				X:       append([]float64(nil), x[:k]...),
				PhiPrev: append([]float64(nil), phiPrev[:k]...),
			}
			if st.RNG, err = src.MarshalBinary(); err != nil {
				panic(err)
			}
			return nil, st
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
	return x, nil
}

// oracleSchedule is the former HoskingCoeffs.EnsureCtx loop run from an
// empty schedule to n points: φ_kk and v_k for k = 0..n-1.
func oracleSchedule(h float64, n int) (kkOut, vOut []float64) {
	kk, v := []float64{0}, []float64{1}
	rho, phi := []float64{1}, []float64{0}
	nPrev, dPrev := 0.0, 1.0

	d := h - 0.5
	for k := len(rho); k < n; k++ {
		kf := float64(k)
		rho = append(rho, rho[k-1]*(kf-1+d)/(kf-d))
	}
	if grow := n - len(phi); grow > 0 {
		phi = append(phi, make([]float64, grow)...)
	}
	for k := 1; k < n; k++ {
		// N_k and D_k (Eqs. 7–8), with phi holding φ_{k-1,·}.
		nk := dotRevSub(rho[k], phi[1:k], rho[1:k])
		dk := dPrev - nPrev*nPrev/dPrev

		phikk := nk / dk
		updatePhiInPlace(phi, k, phikk)

		vk := v[k-1] * (1 - phikk*phikk)
		if vk < 0 {
			vk = 0
		}
		kk = append(kk, phikk)
		v = append(v, vk)
		nPrev, dPrev = nk, dk
	}
	return kk, v
}

// oracleFromSchedule is the former HoskingFromCoeffs loop.
func oracleFromSchedule(n int, kk, v []float64, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	phi := make([]float64, n)
	x[0] = rng.NormFloat64() // X_0 ~ N(0, v_0), v_0 = 1
	for k := 1; k < n; k++ {
		updatePhiInPlace(phi, k, kk[k])
		// Conditional mean (Eq. 11), summed in the cold path's order.
		m := dotRevAdd(0, phi[1:k+1], x[:k])
		x[k] = m + math.Sqrt(v[k])*rng.NormFloat64()
	}
	return x
}

// oracleStream is the former HoskingStream, cold (rho set) or warm
// (kk/vs set), with its Next verbatim.
type oracleStream struct {
	n   int
	rng *rand.Rand

	rho     []float64
	x       []float64
	phi     []float64
	phiPrev []float64
	v       float64
	nPrev   float64
	dPrev   float64
	k       int

	kk []float64
	vs []float64
}

func newOracleStream(n int, h float64, kk, vs []float64, rng *rand.Rand) *oracleStream {
	s := &oracleStream{n: n, rng: rng, x: make([]float64, n), phi: make([]float64, n), kk: kk, vs: vs}
	if kk == nil {
		rho, err := FarimaACF(h, n)
		if err != nil {
			panic(err)
		}
		s.rho, s.phiPrev, s.v, s.dPrev = rho, make([]float64, n), 1, 1
	}
	return s
}

func (s *oracleStream) Next(dst []float64) int {
	if s.k >= s.n {
		return 0
	}
	want := len(dst)
	if rem := s.n - s.k; want > rem {
		want = rem
	}
	produced := 0
	if s.k == 0 {
		s.x[0] = s.rng.NormFloat64()
		dst[0] = s.x[0]
		s.k = 1
		produced = 1
	}
	for produced < want {
		k := s.k
		if s.kk != nil {
			updatePhiInPlace(s.phi, k, s.kk[k])
			m := dotRevAdd(0, s.phi[1:k+1], s.x[:k])
			s.x[k] = m + math.Sqrt(s.vs[k])*s.rng.NormFloat64()
			dst[produced] = s.x[k]
			produced++
			s.k = k + 1
			continue
		}
		nk := dotRevSub(s.rho[k], s.phiPrev[1:k], s.rho[1:k])
		dk := s.dPrev - s.nPrev*s.nPrev/s.dPrev

		phikk := nk / dk
		s.phi[k] = phikk
		for j := 1; j < k; j++ {
			s.phi[j] = s.phiPrev[j] - phikk*s.phiPrev[k-j]
		}

		m := dotRevAdd(0, s.phi[1:k+1], s.x[:k])
		s.v *= 1 - phikk*phikk
		if s.v < 0 {
			s.v = 0
		}
		s.x[k] = m + math.Sqrt(s.v)*s.rng.NormFloat64()
		dst[produced] = s.x[k]
		produced++

		copy(s.phiPrev[1:k+1], s.phi[1:k+1])
		s.nPrev, s.dPrev = nk, dk
		s.k = k + 1
	}
	return produced
}
