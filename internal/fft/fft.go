// Package fft implements a radix-2 decimation-in-time fast Fourier
// transform over complex128 together with the real-input helpers used
// throughout the repository: the periodogram of a time series (Fig. 8 of the
// paper and the Whittle estimator's input) and circular autocorrelation
// (the O(n log n) path for Fig. 7).
//
// Inputs whose length is not a power of two are handled by Bluestein's
// chirp-z algorithm so that exact-length transforms of arbitrary series
// (171,000 frames in the paper) are available without padding artifacts.
//
// Everything a transform computes that depends only on its length and
// direction — the bit-reversal transpositions and per-stage twiddles of
// the radix-2 path, the chirp and transformed convolution kernel of the
// Bluestein path — is built once into a plan and reused by later calls.
// Plans are cached up to a fixed byte cap (planCacheBytes, least
// recently used evicted first); a longer transform builds its plan
// through the same builder and drops it after the call. A plan performs
// the same floating-point operations on the same operands as a transform
// that computes its bit reversal and twiddle recurrence inline, so
// cached, evicted and uncached calls all return bitwise-identical
// output. The cache is safe for concurrent use.
package fft

import (
	"fmt"
	"math"
)

// Forward computes the in-order forward DFT of x and returns a new slice.
// Any length is accepted: powers of two take the radix-2 path, everything
// else takes Bluestein.
func Forward(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	plans.transform(out, false)
	return out
}

// Inverse computes the inverse DFT (including the 1/n normalization).
func Inverse(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	plans.transform(out, true)
	return out
}

// Periodogram returns the ordinates I(λ_j) of the periodogram of x at the
// Fourier frequencies λ_j = 2πj/n for j = 1 .. ⌊(n-1)/2⌋, with the
// conventional normalization
//
//	I(λ_j) = |Σ_t x_t e^{-i t λ_j}|² / (2π n).
//
// The mean of x is removed first (the j = 0 ordinate is excluded), matching
// the definition used by the Whittle estimator and Fig. 8.
func Periodogram(x []float64) (freqs, ords []float64) {
	n := len(x)
	if n < 2 {
		return nil, nil
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	c := make([]complex128, n)
	for i, v := range x {
		c[i] = complex(v-mean, 0)
	}
	plans.transform(c, false)

	half := (n - 1) / 2
	freqs = make([]float64, half)
	ords = make([]float64, half)
	norm := 1 / (2 * math.Pi * float64(n))
	for j := 1; j <= half; j++ {
		freqs[j-1] = 2 * math.Pi * float64(j) / float64(n)
		re, im := real(c[j]), imag(c[j])
		ords[j-1] = (re*re + im*im) * norm
	}
	return freqs, ords
}

// Autocorrelation returns the biased sample autocorrelation r(0..maxLag) of
// x via FFT (zero-padded linear correlation), so r[0] == 1. The biased
// estimator (divide by n) is the one whose erratic large-lag behaviour the
// paper discusses under Fig. 7.
func Autocorrelation(x []float64, maxLag int) ([]float64, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("fft: autocorrelation of empty series")
	}
	if maxLag < 0 || maxLag >= n {
		return nil, fmt.Errorf("fft: maxLag %d out of range for n=%d", maxLag, n)
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)

	m := 1
	for m < 2*n {
		m <<= 1
	}
	c := make([]complex128, m)
	for i, v := range x {
		c[i] = complex(v-mean, 0)
	}
	plans.transform(c, false)
	for i := range c {
		re, im := real(c[i]), imag(c[i])
		c[i] = complex(re*re+im*im, 0)
	}
	plans.transform(c, true)

	r := make([]float64, maxLag+1)
	c0 := real(c[0])
	//vbrlint:ignore floateq exact-zero guard: only a literally constant series has zero energy c0 (stats would be an import cycle)
	if c0 == 0 {
		// Constant series: define r(0)=1, r(k)=0 to keep callers total.
		r[0] = 1
		return r, nil
	}
	for k := 0; k <= maxLag; k++ {
		r[k] = real(c[k]) / c0
	}
	return r, nil
}
