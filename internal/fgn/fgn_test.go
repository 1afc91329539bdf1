package fgn

import (
	"math"
	"math/rand/v2"
	"testing"

	"vbr/internal/stats"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	diff := math.Abs(got - want)
	if diff > tol && diff > tol*math.Abs(want) {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestFarimaACFKnownValues(t *testing.T) {
	// Eq. 6 for d = 0.3 (H = 0.8): ρ_1 = d/(1-d).
	rho, err := FarimaACF(0.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := 0.3
	approx(t, "rho0", rho[0], 1, 1e-15)
	approx(t, "rho1", rho[1], d/(1-d), 1e-12)
	approx(t, "rho2", rho[2], d*(1+d)/((1-d)*(2-d)), 1e-12)
	approx(t, "rho3", rho[3], d*(1+d)*(2+d)/((1-d)*(2-d)*(3-d)), 1e-12)
}

func TestFarimaACFHyperbolicDecay(t *testing.T) {
	// Asymptotically ρ_k ~ C k^{2H-2}: the ratio ρ_{2k}/ρ_k → 2^{2H-2}.
	h := 0.8
	rho, err := FarimaACF(h, 20000)
	if err != nil {
		t.Fatal(err)
	}
	ratio := rho[20000] / rho[10000]
	approx(t, "hyperbolic ratio", ratio, math.Pow(2, 2*h-2), 1e-3)
	// LRD: partial sums keep growing (compare to an exponential, which
	// would have converged long before).
	var s1, s2 float64
	for k := 1; k <= 10000; k++ {
		s1 += rho[k]
	}
	for k := 1; k <= 20000; k++ {
		s2 += rho[k]
	}
	if s2 < s1*1.1 {
		t.Errorf("autocorrelation sum not diverging: %v then %v", s1, s2)
	}
}

func TestFarimaACFHalfIsWhite(t *testing.T) {
	// H = 0.5 (d = 0) must give white noise: ρ_k = 0 for k ≥ 1.
	rho, err := FarimaACF(0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 10; k++ {
		if math.Abs(rho[k]) > 1e-15 {
			t.Errorf("rho[%d] = %v, want 0", k, rho[k])
		}
	}
}

func TestFGNACFProperties(t *testing.T) {
	rho, err := FGNACF(0.8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "rho0", rho[0], 1, 1e-15)
	// ρ_1 = 2^{2H-1} - 1.
	approx(t, "rho1", rho[1], math.Pow(2, 0.6)-1, 1e-12)
	// Hyperbolic tail ~ H(2H-1)k^{2H-2}.
	k := 1000.0
	want := 0.8 * 0.6 * math.Pow(k-1, -0.4) // evaluate near k
	approx(t, "tail", rho[999], want, 0.01*want)

	// Anti-persistent case H < 0.5 has negative correlations.
	rhoA, _ := FGNACF(0.3, 5)
	if rhoA[1] >= 0 {
		t.Errorf("H=0.3 should give negative lag-1 correlation, got %v", rhoA[1])
	}
}

func TestACFValidation(t *testing.T) {
	if _, err := FarimaACF(0, 5); err == nil {
		t.Error("H=0 should fail")
	}
	if _, err := FarimaACF(1, 5); err == nil {
		t.Error("H=1 should fail")
	}
	if _, err := FarimaACF(0.8, -1); err == nil {
		t.Error("negative lag should fail")
	}
	if _, err := FGNACF(2, 5); err == nil {
		t.Error("H=2 should fail")
	}
	if _, err := Hosking(0, 0.8, nil); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := Hosking(10, 1.2, rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Error("bad H should fail")
	}
	if _, err := DaviesHarte(0, 0.8, nil); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := DaviesHarte(10, -0.2, rand.New(rand.NewPCG(1, 1))); err == nil {
		t.Error("bad H should fail")
	}
}

func TestHoskingEmpiricalACFMatchesTarget(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	const n = 30000
	x, err := Hosking(n, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	r, err := stats.Autocorrelation(x, 50)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FarimaACF(0.8, 50)
	for _, k := range []int{1, 2, 5, 10, 25, 50} {
		if math.Abs(r[k]-want[k]) > 0.08 {
			t.Errorf("lag %d: empirical %v, target %v", k, r[k], want[k])
		}
	}
}

func TestHoskingMomentsStandard(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	x, err := Hosking(20000, 0.7, rng)
	if err != nil {
		t.Fatal(err)
	}
	m := stats.Mean(x)
	v := stats.Variance(x)
	// LRD series converge slowly; generous tolerances.
	if math.Abs(m) > 0.25 {
		t.Errorf("mean %v not near 0", m)
	}
	approx(t, "variance", v, 1, 0.15)
}

func TestHoskingWhiteNoiseCase(t *testing.T) {
	// H = 0.5 must produce i.i.d. N(0,1).
	rng := rand.New(rand.NewPCG(9, 9))
	x, err := Hosking(20000, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := stats.Autocorrelation(x, 5)
	for k := 1; k <= 5; k++ {
		if math.Abs(r[k]) > 0.03 {
			t.Errorf("white noise acf lag %d = %v", k, r[k])
		}
	}
}

func TestDaviesHarteEmpiricalACFMatchesTarget(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	const n = 60000
	x, err := DaviesHarte(n, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != n {
		t.Fatalf("length %d", len(x))
	}
	r, err := stats.Autocorrelation(x, 50)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FGNACF(0.8, 50)
	for _, k := range []int{1, 2, 5, 10, 25, 50} {
		if math.Abs(r[k]-want[k]) > 0.08 {
			t.Errorf("lag %d: empirical %v, target %v", k, r[k], want[k])
		}
	}
	m := stats.Mean(x)
	v := stats.Variance(x)
	if math.Abs(m) > 0.25 {
		t.Errorf("mean %v not near 0", m)
	}
	approx(t, "variance", v, 1, 0.15)
}

// TestDaviesHarteGoldenChunk pins the Davies–Harte sampler at the
// stream's default chunk: n = 5120 embeds into a 10240-point circulant, so both the eigenvalue
// FFT and the synthesis FFT take the Bluestein path. The hash was
// captured before FFT plans were cached and must never be regenerated.
func TestDaviesHarteGoldenChunk(t *testing.T) {
	x, err := DaviesHarte(5120, 0.8, rand.New(rand.NewPCG(7, 9)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fnvHash(x), uint64(0xe066575d5257c9c0); got != want {
		t.Errorf("series hash = %#x, want golden %#x", got, want)
	}
}

func TestDaviesHarteLengthOne(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	x, err := DaviesHarte(1, 0.8, rng)
	if err != nil || len(x) != 1 {
		t.Fatalf("n=1 failed: %v %v", x, err)
	}
}

func TestGeneratorsAgreeOnVarianceTime(t *testing.T) {
	// Both generators should show the LRD variance-time signature
	// Var(X^(m)) ≈ m^{2H-2} — slope well above the i.i.d. m^{-1}.
	rng := rand.New(rand.NewPCG(21, 22))
	for name, gen := range map[string]func(int, float64, *rand.Rand) ([]float64, error){
		"hosking":     Hosking,
		"daviesharte": DaviesHarte,
	} {
		x, err := gen(40000, 0.85, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v1 := stats.Variance(x)
		agg, _ := stats.Aggregate(x, 100)
		v100 := stats.Variance(agg)
		beta := -math.Log(v100/v1) / math.Log(100)
		// For H = 0.85, β = 2-2H = 0.3; i.i.d. would give 1.0.
		if beta > 0.6 {
			t.Errorf("%s: variance-time slope β=%v too steep for H=0.85", name, beta)
		}
		if beta < 0.05 {
			t.Errorf("%s: variance-time slope β=%v implausibly flat", name, beta)
		}
	}
}

func TestHoskingDeterministicForSeed(t *testing.T) {
	a, _ := Hosking(100, 0.8, rand.New(rand.NewPCG(5, 6)))
	b, _ := Hosking(100, 0.8, rand.New(rand.NewPCG(5, 6)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should reproduce the same series")
		}
	}
	c, _ := Hosking(100, 0.8, rand.New(rand.NewPCG(5, 7)))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestStandardize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	out := Standardize(xs)
	approx(t, "mean", stats.Mean(out), 0, 1e-12)
	approx(t, "variance", stats.Variance(out), 1, 1e-12)
	// Constant series degrades to zeros.
	cs := Standardize([]float64{5, 5, 5})
	for _, v := range cs {
		if v != 0 {
			t.Fatal("constant series should standardize to zeros")
		}
	}
	if got := Standardize(nil); got != nil {
		t.Fatal("nil passes through")
	}
}

func BenchmarkHosking10k(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hosking(10000, 0.8, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDaviesHarte10k(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DaviesHarte(10000, 0.8, rng); err != nil {
			b.Fatal(err)
		}
	}
}
