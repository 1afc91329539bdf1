package fft

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, ang))
		}
		if inverse {
			sum /= complex(float64(n), 0)
		}
		out[k] = sum
	}
	return out
}

func randComplex(n int, rng *rand.Rand) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 33, 64, 100, 128, 171} {
		x := randComplex(n, rng)
		got := Forward(x)
		want := naiveDFT(x, false)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: max error %v", n, e)
		}
	}
}

func TestInverseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{2, 3, 8, 15, 16, 27, 64, 100} {
		x := randComplex(n, rng)
		got := Inverse(x)
		want := naiveDFT(x, true)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: max error %v", n, e)
		}
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, n := range []int{1, 2, 7, 16, 100, 171, 256, 1000} {
		x := randComplex(n, rng)
		y := Inverse(Forward(x))
		if e := maxErr(x, y); e > 1e-9*float64(n) {
			t.Errorf("n=%d: round trip error %v", n, e)
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, n := range []int{16, 100, 128, 500} {
		x := randComplex(n, rng)
		y := Forward(x)
		var ex, ey float64
		for i := range x {
			ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ey += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
		}
		ey /= float64(n)
		if math.Abs(ex-ey) > 1e-8*ex {
			t.Errorf("n=%d: Parseval violated: %v vs %v", n, ex, ey)
		}
	}
}

func TestForwardLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 11))
		n := 3 + int(seed%61)
		a := randComplex(n, r)
		b := randComplex(n, r)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		fa, fb, fs := Forward(a), Forward(b), Forward(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(fa[i]+fb[i])) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	_ = rng
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPeriodogramSinusoid(t *testing.T) {
	// A pure sinusoid at Fourier frequency j0 concentrates all power there.
	const n = 1024
	const j0 = 37
	x := make([]float64, n)
	for t := range x {
		x[t] = math.Sin(2 * math.Pi * float64(j0) * float64(t) / n)
	}
	freqs, ords := Periodogram(x)
	if len(freqs) != (n-1)/2 {
		t.Fatalf("got %d ordinates, want %d", len(freqs), (n-1)/2)
	}
	best := 0
	for j := range ords {
		if ords[j] > ords[best] {
			best = j
		}
	}
	if best != j0-1 {
		t.Errorf("peak at index %d (freq %v), want %d", best, freqs[best], j0-1)
	}
	// All other ordinates should be negligible.
	for j, v := range ords {
		if j != best && v > 1e-10*ords[best] {
			t.Errorf("leakage at j=%d: %v", j, v)
		}
	}
}

func TestPeriodogramTotalPower(t *testing.T) {
	// Sum of periodogram ordinates ≈ variance·n/(4π·(n/2))·... use the exact
	// identity Σ_{j=1}^{n-1} |X_j|²/n = Σ (x_t - mean)² and check through it.
	rng := rand.New(rand.NewPCG(20, 21))
	n := 512
	x := make([]float64, n)
	var mean float64
	for i := range x {
		x[i] = rng.NormFloat64()
		mean += x[i]
	}
	mean /= float64(n)
	var ss float64
	for _, v := range x {
		ss += (v - mean) * (v - mean)
	}
	_, ords := Periodogram(x)
	var sum float64
	for _, v := range ords {
		sum += v
	}
	// For even n the Nyquist ordinate j=n/2 is excluded by our convention;
	// account for it: total = Σ_{j=1}^{n-1} |F_j|² / (2πn) where F is the
	// DFT of the demeaned series; by conjugate symmetry = 2·sum + Nyquist.
	d := make([]complex128, n)
	for i, v := range x {
		d[i] = complex(v-mean, 0)
	}
	f := Forward(d)
	nyq := 0.0
	if n%2 == 0 {
		re, im := real(f[n/2]), imag(f[n/2])
		nyq = (re*re + im*im) / (2 * math.Pi * float64(n))
	}
	total := 2*sum + nyq
	want := ss / (2 * math.Pi)
	if math.Abs(total-want) > 1e-8*want {
		t.Errorf("total periodogram power %v, want %v", total, want)
	}
}

func TestAutocorrelationMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 31))
	n := 300
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() + 0.8*math.Sin(float64(i)/7)
	}
	const maxLag = 50
	got, err := Autocorrelation(x, maxLag)
	if err != nil {
		t.Fatal(err)
	}
	// Direct biased estimator.
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	var c0 float64
	for _, v := range x {
		c0 += (v - mean) * (v - mean)
	}
	for k := 0; k <= maxLag; k++ {
		var ck float64
		for t := 0; t+k < n; t++ {
			ck += (x[t] - mean) * (x[t+k] - mean)
		}
		want := ck / c0
		if math.Abs(got[k]-want) > 1e-9 {
			t.Errorf("lag %d: got %v want %v", k, got[k], want)
		}
	}
	if math.Abs(got[0]-1) > 1e-12 {
		t.Errorf("r(0) = %v, want 1", got[0])
	}
}

func TestAutocorrelationErrors(t *testing.T) {
	if _, err := Autocorrelation(nil, 0); err == nil {
		t.Error("expected error for empty series")
	}
	if _, err := Autocorrelation([]float64{1, 2, 3}, 3); err == nil {
		t.Error("expected error for maxLag >= n")
	}
	if _, err := Autocorrelation([]float64{1, 2, 3}, -1); err == nil {
		t.Error("expected error for negative maxLag")
	}
}

func TestAutocorrelationConstantSeries(t *testing.T) {
	x := []float64{5, 5, 5, 5, 5}
	r, err := Autocorrelation(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r[0] != 1 {
		t.Errorf("r(0) = %v, want 1", r[0])
	}
	for k := 1; k <= 3; k++ {
		if r[k] != 0 {
			t.Errorf("r(%d) = %v, want 0", k, r[k])
		}
	}
}

func BenchmarkForwardPow2(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := randComplex(1<<14, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}

func BenchmarkForwardBluestein(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := randComplex(17100, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}
