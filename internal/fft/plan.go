package fft

import (
	"container/list"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
	"unsafe"
)

// planCacheBytes caps the bytes of plans the package keeps between
// calls. It holds every plan of the paper-scale 171,000-point Bluestein
// transform (≈ 31 MiB in one direction, 41 MiB in both), while a length
// that reaches the FFT from a request cannot grow the process without
// bound: a plan larger than the cap is built, used for one call and
// dropped, and smaller plans are evicted least recently used first.
const planCacheBytes = 64 << 20

// plans is the process-wide cache behind every transform in the package.
var plans = newPlanCache(planCacheBytes)

// planKey identifies a plan: the transform length (which also fixes the
// kind, radix-2 for powers of two and Bluestein otherwise) and the
// direction.
type planKey struct {
	n       int
	inverse bool
}

// plan is a cached, immutable per-length precomputation.
type plan interface {
	bytes() int64
}

// swap is one transposition of the bit-reversal permutation, i < j.
// 32-bit indices halve the table; a 2³¹-point transform would need
// 32 GiB of input.
type swap struct{ i, j int32 }

// radix2Plan holds the input-independent part of the radix-2 transform
// of one power-of-two length: the bit-reversal transpositions and, per
// stage length L, the twiddles w_k for k < L/2. The twiddles come from
// the running product w := 1; w *= wl rather than one cmplx.Exp each,
// because the committed goldens pin the bits of that recurrence. Stage
// L's twiddles sit at tw[L/2-1 : L-1]; they depend only on
// (L, direction), so the table for n is a prefix of the table for 2n.
type radix2Plan struct {
	swaps []swap
	tw    []complex128
}

func newRadix2Plan(n int, inverse bool) *radix2Plan {
	swaps := make([]swap, 0, n/2)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			swaps = append(swaps, swap{int32(i), int32(j)})
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	tw := make([]complex128, n-1)
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		w := complex(1, 0)
		half := length >> 1
		for k := 0; k < half; k++ {
			tw[half-1+k] = w
			w *= wl
		}
	}
	return &radix2Plan{swaps: swaps, tw: tw}
}

func (p *radix2Plan) bytes() int64 {
	return int64(cap(p.swaps))*int64(unsafe.Sizeof(swap{})) + int64(cap(p.tw))*16
}

// apply is the iterative Cooley–Tukey FFT of x in place, len(x) being
// the plan's length. Normalization is the caller's.
//
// Stages run two at a time: the four points a stage pair touches are
// loaded once, pass through both butterflies in registers and are
// stored once. Each point still meets the same twiddles in the same
// order as in one-stage-per-pass form, so the bits do not change. An
// odd stage count runs its first stage (L = 2) alone.
//
//vbrlint:hotpath
func (p *radix2Plan) apply(x []complex128) {
	n := len(x)
	for _, s := range p.swaps {
		x[s.i], x[s.j] = x[s.j], x[s.i]
	}
	half := 1
	if bits.TrailingZeros(uint(n))%2 == 1 {
		w := p.tw[0]
		for start := 0; start+1 < n; start += 2 {
			u := x[start]
			v := x[start+1] * w
			x[start] = u + v
			x[start+1] = u - v
		}
		half = 2
	}
	for ; half < n; half <<= 2 {
		tw1 := p.tw[half-1 : 2*half-1]
		tw2 := p.tw[2*half-1 : 4*half-1]
		tw2lo, tw2hi := tw2[:half], tw2[half:]
		for start := 0; start < n; start += 4 * half {
			q0 := x[start : start+half]
			q1 := x[start+half : start+2*half]
			q2 := x[start+2*half : start+3*half]
			q3 := x[start+3*half : start+4*half]
			for k, w := range tw1 {
				a0, a1, a2, a3 := q0[k], q1[k], q2[k], q3[k]
				v := a1 * w
				b0, b1 := a0+v, a0-v
				v = a3 * w
				b2, b3 := a2+v, a2-v
				v = b2 * tw2lo[k]
				q0[k], q2[k] = b0+v, b0-v
				v = b3 * tw2hi[k]
				q1[k], q3[k] = b1+v, b1-v
			}
		}
	}
}

// bluesteinPlan holds the seed- and data-independent half of
// Bluestein's chirp-z transform for one length n and direction: the
// chirp w[k] = exp(sign·iπk²/n) and the forward radix-2 transform of
// the convolution kernel b (conj(w) wrapped around a power-of-two
// length m ≥ 2n−1). A pool of m-point scratch buffers replaces the
// per-call allocation of the convolution input.
type bluesteinPlan struct {
	m       int
	invm    complex128
	chirp   []complex128
	kernel  []complex128
	scratch sync.Pool // *[]complex128 of length m
}

func (c *planCache) newBluesteinPlan(n int, inverse bool) *bluesteinPlan {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp factors. k² mod 2n avoids overflow and precision loss for
	// large k.
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := int64(k) * int64(k) % int64(2*n)
		w[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(kk)/float64(n)))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(w[k])
	}
	c.radix2(m, false).apply(b)
	p := &bluesteinPlan{m: m, invm: complex(1/float64(m), 0), chirp: w, kernel: b}
	p.scratch.New = func() any {
		s := make([]complex128, m)
		return &s
	}
	return p
}

func (p *bluesteinPlan) bytes() int64 {
	return int64(cap(p.chirp)+cap(p.kernel)) * 16
}

// apply computes the DFT of x in place as a circular convolution with
// the chirp kernel; fwd and inv are the radix-2 plans of length p.m.
//
//vbrlint:hotpath
func (p *bluesteinPlan) apply(x []complex128, fwd, inv *radix2Plan) {
	n := len(x)
	sp := p.scratch.Get().(*[]complex128)
	a := *sp
	w := p.chirp[:n]
	for k, xk := range x {
		a[k] = xk * w[k]
	}
	clear(a[n:])
	fwd.apply(a)
	b := p.kernel[:len(a)]
	for i := range a {
		a[i] *= b[i]
	}
	inv.apply(a)
	invm := p.invm
	for k := range x {
		x[k] = a[k] * invm * w[k]
	}
	p.scratch.Put(sp)
}

// planCache retains plans up to a byte cap, evicting the least recently
// used. Plans are immutable once built, so a plan evicted while a call
// still holds it stays valid for that call. Two goroutines that miss on
// the same key may both build it; the first insert wins and the other
// copy serves only its own call, so retained bytes never double count.
type planCache struct {
	cap int64

	mu    sync.Mutex
	bytes int64
	lru   list.List // of *planEntry, most recently used at the front
	index map[planKey]*list.Element
}

type planEntry struct {
	key planKey
	p   plan
}

func newPlanCache(capBytes int64) *planCache {
	return &planCache{cap: capBytes, index: make(map[planKey]*list.Element)}
}

// radix2 returns the plan of power-of-two length n.
func (c *planCache) radix2(n int, inverse bool) *radix2Plan {
	k := planKey{n, inverse}
	if p := c.lookup(k); p != nil {
		return p.(*radix2Plan)
	}
	return c.insert(k, newRadix2Plan(n, inverse)).(*radix2Plan)
}

// bluestein returns the plan of non-power-of-two length n.
func (c *planCache) bluestein(n int, inverse bool) *bluesteinPlan {
	k := planKey{n, inverse}
	if p := c.lookup(k); p != nil {
		return p.(*bluesteinPlan)
	}
	return c.insert(k, c.newBluesteinPlan(n, inverse)).(*bluesteinPlan)
}

func (c *planCache) lookup(k planKey) plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.index[k]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(e)
	return e.Value.(*planEntry).p
}

// insert retains p under k if it fits the cap, evicting as needed, and
// returns the plan the caller should use: the one already cached under
// k if another goroutine got there first, else p.
func (c *planCache) insert(k planKey, p plan) plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.index[k]; ok {
		c.lru.MoveToFront(e)
		return e.Value.(*planEntry).p
	}
	size := p.bytes()
	if size > c.cap {
		return p
	}
	for c.bytes+size > c.cap {
		old := c.lru.Back()
		pe := c.lru.Remove(old).(*planEntry)
		delete(c.index, pe.key)
		c.bytes -= pe.p.bytes()
	}
	c.index[k] = c.lru.PushFront(&planEntry{key: k, p: p})
	c.bytes += size
	return p
}

// retained reports the bytes of plans currently cached.
func (c *planCache) retained() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// transform computes the DFT of x in place (with the 1/n normalization
// when inverse), dispatching on length.
func (c *planCache) transform(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		c.radix2(n, inverse).apply(x)
	} else {
		bp := c.bluestein(n, inverse)
		bp.apply(x, c.radix2(bp.m, false), c.radix2(bp.m, true))
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}
