package fft

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"sync"
	"testing"
)

// bitsEqual reports whether a and b hold the same IEEE-754 bits.
func bitsEqual(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// radix2Inline is the reference radix-2 transform without a plan: the
// bit reversal computed in place, one stage per pass, and each block
// recomputing its twiddles by the w *= wl recurrence.
func radix2Inline(x []complex128, inverse bool) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length >> 1
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
				w *= wl
			}
		}
	}
}

// TestRadix2PlanMatchesInline pins the planned radix-2 path — table
// twiddles, precomputed swaps, stages fused in pairs — bitwise to the
// inline form at every power of two up to 2¹⁶, so odd and even stage
// counts are both covered, in both directions.
func TestRadix2PlanMatchesInline(t *testing.T) {
	for n := 2; n <= 1<<16; n <<= 1 {
		x := goldenInput(n)
		for _, inverse := range []bool{false, true} {
			want := append([]complex128(nil), x...)
			radix2Inline(want, inverse)
			got := append([]complex128(nil), x...)
			newRadix2Plan(n, inverse).apply(got)
			if !bitsEqual(got, want) {
				t.Errorf("n=%d inverse=%v: planned radix-2 differs bitwise from the inline form", n, inverse)
			}
		}
	}
}

// TestConcurrentPlansBitwise runs 32 goroutines over mixed radix-2 and
// Bluestein lengths in both directions against one shared cache —
// racing plan builds, inserts, evictions and pooled scratch — and
// requires every result to carry the bits of the serial call.
func TestConcurrentPlansBitwise(t *testing.T) {
	lengths := []int{2, 3, 16, 100, 171, 1024, 1000, 5120, 6000}
	type job struct {
		n       int
		inverse bool
	}
	var jobs []job
	inputs := make(map[int][]complex128)
	want := make(map[job][]complex128)
	for _, n := range lengths {
		inputs[n] = goldenInput(n)
		for _, inv := range []bool{false, true} {
			j := job{n, inv}
			jobs = append(jobs, j)
			if inv {
				want[j] = Inverse(inputs[n])
			} else {
				want[j] = Forward(inputs[n])
			}
		}
	}

	// A cache small enough that the goroutines keep evicting each
	// other's plans, next to the process-wide one.
	small := newPlanCache(256 << 10)
	const workers = 32
	var wg sync.WaitGroup
	errc := make(chan job, workers) // each worker sends at most once
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(g+i)%len(jobs)]
				c := plans
				if (g+i)%2 == 1 {
					c = small
				}
				x := append([]complex128(nil), inputs[j.n]...)
				c.transform(x, j.inverse)
				if !bitsEqual(x, want[j]) {
					errc <- j
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for j := range errc {
		t.Errorf("n=%d inverse=%v: concurrent result differs from serial", j.n, j.inverse)
	}
	if got := small.retained(); got > small.cap {
		t.Errorf("retained %d plan bytes, cap %d", got, small.cap)
	}
}

// TestPlanCacheBound sweeps many distinct lengths through a cache with
// a 32 KiB cap, one of them (1000, whose Bluestein plan alone is about
// 48 KiB) above it. Retained plan bytes must never exceed the cap,
// every transform must stay within TestForwardMatchesNaive's
// tolerance, and an uncached or evicted plan must give the bits the
// process-wide cache gives.
func TestPlanCacheBound(t *testing.T) {
	c := newPlanCache(32 << 10)
	rng := rand.New(rand.NewPCG(40, 41))
	lengths := []int{1000}
	for n := 2; n <= 500; n += 29 {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 512, 1000, 3, 256)
	for _, n := range lengths {
		for _, inverse := range []bool{false, true} {
			x := randComplex(n, rng)
			got := append([]complex128(nil), x...)
			c.transform(got, inverse)
			if r := c.retained(); r > c.cap {
				t.Fatalf("n=%d: retained %d plan bytes, cap %d", n, r, c.cap)
			}
			if e := maxErr(got, naiveDFT(x, inverse)); e > 1e-9*float64(n) {
				t.Errorf("n=%d inverse=%v: max error %v", n, inverse, e)
			}
			ref := Forward(x)
			if inverse {
				ref = Inverse(x)
			}
			if !bitsEqual(got, ref) {
				t.Errorf("n=%d inverse=%v: bounded cache differs bitwise from the process-wide one", n, inverse)
			}
		}
	}
	if b := c.bluestein(1000, false).bytes(); b <= c.cap {
		t.Fatalf("n=1000 plan is %d bytes, not above the %d cap", b, c.cap)
	}
	if r := c.retained(); r == 0 {
		t.Error("nothing retained: the sweep should leave the latest plans cached")
	}
}

// TestTransformAllocs pins the per-call allocations of a warm cached
// transform: the result slice and nothing else (scratch is pooled; a
// pool refill after a garbage collection may add a fraction).
func TestTransformAllocs(t *testing.T) {
	for _, n := range []int{16384, 5120} {
		x := goldenInput(n)
		Forward(x)
		if a := testing.AllocsPerRun(20, func() { Forward(x) }); a >= 2 {
			t.Errorf("n=%d: %v allocations per Forward, want 1", n, a)
		}
	}
}
