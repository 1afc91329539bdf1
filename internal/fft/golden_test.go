package fft

import (
	"math"
	"math/rand/v2"
	"testing"
)

// This file pins Forward and Inverse bitwise to the transform as it was
// before per-length plans were cached. The hashes below were captured
// by running the plan-free code on the fixed inputs; any change to the
// order or operands of a floating-point operation (twiddle recurrence,
// chirp construction, kernel transform, scaling) would change them.
// They must never be regenerated from current code — that would turn
// the regression test into a tautology.

// goldenHash folds a complex series into an FNV-1a 64 hash over the
// IEEE-754 bits of each real then imaginary part, little-endian byte by
// byte.
func goldenHash(xs []complex128) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range xs {
		for _, v := range [2]float64{real(c), imag(c)} {
			bits := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				h ^= (bits >> (8 * i)) & 0xff
				h *= prime
			}
		}
	}
	return h
}

// goldenInput is the fixed input of length n: standard normal real and
// imaginary parts from a PCG seeded by n.
func goldenInput(n int) []complex128 {
	return randComplex(n, rand.New(rand.NewPCG(uint64(n), 1994)))
}

// goldenFFT holds, per length, the hashes of Forward and Inverse of
// goldenInput(n). 2 and 16384 take the radix-2 path; the rest take
// Bluestein (6000 is the Davies–Harte embedding of the queue golden's
// 3000-frame trace, 5120 the stream chunk, 10240 its Davies–Harte
// embedding, 17100 a tenth of the paper's trace).
var goldenFFT = []struct {
	n                int
	forward, inverse uint64
}{
	{2, 0xba45da932d8669f9, 0x23aecefd589f4bb9},
	{3, 0xa32a667de82ae41d, 0x7c43eef61fed3831},
	{6000, 0xe3879a645617313f, 0xece0fc1b001f6737},
	{5120, 0x895dccaf721b646e, 0x5ea2434df45af4c4},
	{10240, 0xa7443f835587a1f0, 0x02d247c3c90578c0},
	{16384, 0xd0bbc3ecd964de60, 0x3684a66b031f7a81},
	{17100, 0x1940bf05ec21bb1a, 0x8cb6900546def4b8},
}

func TestForwardInverseGolden(t *testing.T) {
	for _, g := range goldenFFT {
		x := goldenInput(g.n)
		if got := goldenHash(Forward(x)); got != g.forward {
			t.Errorf("n=%d: Forward hash = %#x, want golden %#x", g.n, got, g.forward)
		}
		if got := goldenHash(Inverse(x)); got != g.inverse {
			t.Errorf("n=%d: Inverse hash = %#x, want golden %#x", g.n, got, g.inverse)
		}
	}
}
