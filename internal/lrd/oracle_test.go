package lrd

import (
	"math"
	"math/rand/v2"
	"testing"
)

// ringMAVAR is the per-observation octave accumulator the level-major
// block kernel replaced, kept verbatim as a bitwise oracle: every
// observation walks every octave, appends completed sub-block sums to a
// 3f-slot ring, and re-sums B₀, B₁ and B₂ from the ring for each window.
type ringMAVAR struct {
	phase  float64
	n      int64
	levels []ringLevel

	snap *OnlineMAVAR // reused by snapshot
}

type ringLevel struct {
	tau, sub, f int

	acc  float64
	fill int
	ring [3 * mavarSubs]float64
	head int
	subs int64

	sumSq float64
	count int64
}

func newRingMAVAR(maxTau int) *ringMAVAR {
	o := &ringMAVAR{}
	for tau := 1; tau <= maxTau && len(o.levels) < maxMavarOctaves; tau *= 2 {
		sub := tau / mavarSubs
		if sub < 1 {
			sub = 1
		}
		o.levels = append(o.levels, ringLevel{tau: tau, sub: sub, f: tau / sub})
	}
	return o
}

func (o *ringMAVAR) add(v float64) {
	o.phase += v
	o.n++
	for i := range o.levels {
		l := &o.levels[i]
		l.acc += o.phase
		l.fill++
		if l.fill < l.sub {
			continue
		}
		size := 3 * l.f
		l.ring[l.head] = l.acc
		l.head++
		if l.head == size {
			l.head = 0
		}
		l.subs++
		l.acc, l.fill = 0, 0
		if l.subs < int64(size) {
			continue
		}
		var b0, b1, b2 float64
		idx := l.head
		for j := 0; j < l.f; j++ {
			b0 += l.ring[idx]
			if idx++; idx == size {
				idx = 0
			}
		}
		for j := 0; j < l.f; j++ {
			b1 += l.ring[idx]
			if idx++; idx == size {
				idx = 0
			}
		}
		for j := 0; j < l.f; j++ {
			b2 += l.ring[idx]
			if idx++; idx == size {
				idx = 0
			}
		}
		d := b2 - 2*b1 + b0
		l.sumSq += d * d
		l.count++
	}
}

// snapshot carries the oracle's statistics into an OnlineMAVAR with
// nothing pending, so Estimate and Result run the same fit on them.
func (o *ringMAVAR) snapshot() *OnlineMAVAR {
	if o.snap == nil {
		o.snap = NewOnlineMAVAR(o.levels[len(o.levels)-1].tau)
	}
	s := o.snap
	s.phase, s.n = o.phase, o.n
	for i := range s.levels {
		s.levels[i].sumSq = o.levels[i].sumSq
		s.levels[i].count = o.levels[i].count
	}
	return s
}

// sameFloat is bitwise equality, so NaN == NaN and 0 ≠ −0.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAgainstRing fails unless every reader of got — N, each level's
// statistics, Estimate, and every Result field and point — is bitwise
// equal to the oracle's.
func checkAgainstRing(t *testing.T, at string, got *OnlineMAVAR, ring *ringMAVAR) {
	t.Helper()
	if n := got.N(); n != ring.n {
		t.Fatalf("%s: N() = %d, oracle %d", at, n, ring.n)
	}
	if !sameFloat(got.phase, ring.phase) {
		t.Fatalf("%s: phase %v, oracle %v", at, got.phase, ring.phase)
	}
	for i := range got.levels {
		g, w := &got.levels[i], &ring.levels[i]
		if g.count != w.count || !sameFloat(g.sumSq, w.sumSq) || g.fill != w.fill || !sameFloat(g.acc, w.acc) {
			t.Fatalf("%s: τ=%d: windows %d, ΣD² %v, partial %v/%d; oracle %d, %v, %v/%d",
				at, g.tau, g.count, g.sumSq, g.acc, g.fill, w.count, w.sumSq, w.acc, w.fill)
		}
	}
	want := ring.snapshot()
	h, oct := got.Estimate()
	wh, woct := want.Estimate()
	if !sameFloat(h, wh) || oct != woct {
		t.Fatalf("%s: Estimate() = (%v, %d), oracle (%v, %d)", at, h, oct, wh, woct)
	}
	for _, fr := range [][2]int{{0, 0}, {1, 64}} {
		r, err := got.Result(fr[0], fr[1])
		wr, werr := want.Result(fr[0], fr[1])
		if (err == nil) != (werr == nil) {
			t.Fatalf("%s: Result%v error %v, oracle %v", at, fr, err, werr)
		}
		if err != nil {
			continue
		}
		if r.FitLo != wr.FitLo || r.FitHi != wr.FitHi || r.Octaves != wr.Octaves ||
			!sameFloat(r.Mu, wr.Mu) || !sameFloat(r.H, wr.H) || len(r.Points) != len(wr.Points) {
			t.Fatalf("%s: Result%v = %+v, oracle %+v", at, fr, r, wr)
		}
		for i, p := range r.Points {
			if w := wr.Points[i]; p.Tau != w.Tau || p.Windows != w.Windows || !sameFloat(p.ModVar, w.ModVar) {
				t.Fatalf("%s: Result%v point %d = %+v, oracle %+v", at, fr, i, p, w)
			}
		}
	}
}

// feedPieces feeds xs in pieces of the given lengths (cycled), reading
// the estimator — which folds whatever is pending — after every piece
// and checking it against the per-observation oracle.
func feedPieces(t *testing.T, xs []float64, pieces []int) {
	t.Helper()
	o := NewOnlineMAVAR(MaxMavarTau(len(xs)))
	ring := newRingMAVAR(o.MaxTau())
	for lo, k := 0, 0; lo < len(xs); k++ {
		hi := min(lo+pieces[k%len(pieces)], len(xs))
		for _, v := range xs[lo:hi] {
			o.Add(v)
			ring.add(v)
		}
		checkAgainstRing(t, "after frame "+itoa(hi), o, ring)
		lo = hi
	}
}

func itoa(i int) string {
	var b [20]byte
	p := len(b)
	for {
		p--
		b[p] = byte('0' + i%10)
		if i /= 10; i == 0 {
			return string(b[p:])
		}
	}
}

// mixedSeries draws n values spanning signs, exact zeros and magnitudes
// from 1e-3 to 1e9, the range a rate series (or a hostile one) covers.
func mixedSeries(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 13))
	xs := make([]float64, n)
	for i := range xs {
		switch rng.IntN(8) {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = -xs[max(i-1, 0)]
		default:
			xs[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.IntN(13)-3))
		}
	}
	return xs
}

// TestOnlineMAVARPartitionOracle pins the block kernel to the
// per-observation accumulator it replaced, bit for bit, after every
// piece of every partition: single observations, pieces straddling the
// stage size, the stream block size, a non-power-of-two block, and the
// whole series at once.
func TestOnlineMAVARPartitionOracle(t *testing.T) {
	series := map[string][]float64{
		"fgn":   testSeries(t, 0.8, 12_000),
		"mixed": mixedSeries(12_000, 5),
	}
	for name, xs := range series {
		for _, p := range []int{1, 7, mavarStage - 1, mavarStage, mavarStage + 1, 4096, 5000, len(xs)} {
			t.Run(name+"/"+itoa(p), func(t *testing.T) {
				feedPieces(t, xs, []int{p})
			})
		}
	}
}

// FuzzOnlineMAVARPartition: any values and any cut points must leave
// the streaming estimator bitwise equal to the per-observation oracle.
// Values are decoded two bytes each — sign, exact zero, and a mantissa
// scaled by 10^e for e in [−3, 9] — and each cut byte c gives a piece
// of 1 + c·c/64 observations (1 to 1017, straddling the stage size).
func FuzzOnlineMAVARPartition(f *testing.F) {
	f.Add(make([]byte, 600), []byte{0})
	f.Add(func() []byte {
		b := make([]byte, 4096)
		for i := range b {
			b[i] = byte(i * 2654435761 >> 13)
		}
		return b
	}(), []byte{255, 3, 180, 0, 90})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		// Every piece re-reads both estimators, so a short series
		// keeps the exec rate up; 2048 frames still fill ten octaves.
		if len(data) > 2*2048 {
			data = data[:2*2048]
		}
		xs := make([]float64, len(data)/2)
		for i := range xs {
			hi, lo := data[2*i], data[2*i+1]
			if hi&0x7f == 0 {
				continue
			}
			v := (1 + float64(lo)/256) * math.Pow(10, float64(int(hi&0x7f)%13-3))
			if hi&0x80 != 0 {
				v = -v
			}
			xs[i] = v
		}
		if len(xs) == 0 {
			return
		}
		pieces := []int{len(xs)}
		if len(cuts) > 0 {
			pieces = pieces[:0]
			for _, c := range cuts {
				pieces = append(pieces, 1+int(c)*int(c)/64)
			}
		}
		feedPieces(t, xs, pieces)
	})
}
