package stream

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"vbr/internal/lrd"
)

// oracleAdd is the per-frame Welford update the level-major fold
// replaced, kept verbatim as a bitwise oracle.
func (l *aggLevel) oracleAdd(v float64) {
	l.acc += v
	l.fill++
	if l.fill < l.m {
		return
	}
	s := l.acc / float64(l.m)
	l.acc, l.fill = 0, 0
	l.n++
	d := s - l.mean
	l.mean += d / float64(l.n)
	l.m2 += d * (s - l.mean)
}

// oracleMonitor updates every aggregation level frame by frame and
// feeds the MAVAR accumulators (pinned to their own per-observation
// oracle in package lrd) one observation at a time.
type oracleMonitor struct {
	levels []aggLevel
	mavar  *lrd.OnlineMAVAR
}

func newOracleMonitor(n int) *oracleMonitor {
	mo := NewMonitor(n)
	return &oracleMonitor{levels: mo.levels, mavar: lrd.NewOnlineMAVAR(mo.mavar.MaxTau())}
}

func (o *oracleMonitor) add(v float64) {
	for i := range o.levels {
		o.levels[i].oracleAdd(v)
	}
	o.mavar.Add(v)
}

// probe runs Monitor.Probe's regression over the oracle's state, with
// nothing staged.
func (o *oracleMonitor) probe() Probe {
	mo := &Monitor{levels: append([]aggLevel(nil), o.levels...), mavar: o.mavar}
	return mo.Probe()
}

func sameProbe(a, b Probe) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.N == b.N && same(a.Mean, b.Mean) && same(a.Std, b.Std) && same(a.H, b.H) &&
		a.Levels == b.Levels && same(a.HMavar, b.HMavar) && same(a.HMavarErr, b.HMavarErr) &&
		a.MavarOctaves == b.MavarOctaves
}

// TestMonitorPartitionOracle: probing a monitor after every piece of
// any partition — single frames, pieces straddling the stage size, the
// stream block size, a non-power-of-two block, random cut points, the
// whole series — must give every Probe field bit for bit as the
// per-frame monitor does, and leave each level's Welford state equal.
func TestMonitorPartitionOracle(t *testing.T) {
	const n = 40_000
	rng := rand.New(rand.NewPCG(17, 3))
	mixed := make([]float64, n)
	for i := range mixed {
		switch rng.IntN(8) {
		case 0:
		case 1:
			mixed[i] = -mixed[max(i-1, 0)]
		default:
			mixed[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.IntN(13)-3))
		}
	}
	random := make([]int, 64)
	for i := range random {
		random[i] = 1 + rng.IntN(3*monitorStage)
	}
	partitions := map[string][]int{"random": random}
	for _, p := range []int{1, 7, monitorStage - 1, monitorStage, monitorStage + 1, 4096, 5000, n} {
		partitions[fmt.Sprint(p)] = []int{p}
	}
	for name, pieces := range partitions {
		t.Run(name, func(t *testing.T) {
			mo, want := NewMonitor(n), newOracleMonitor(n)
			for lo, k := 0, 0; lo < n; k++ {
				hi := min(lo+pieces[k%len(pieces)], n)
				for _, v := range mixed[lo:hi] {
					mo.Add(v)
					want.add(v)
				}
				if got, w := mo.Probe(), want.probe(); !sameProbe(got, w) {
					t.Fatalf("after frame %d: probe %+v, per-frame %+v", hi, got, w)
				}
				for i := range mo.levels {
					if mo.levels[i] != want.levels[i] {
						t.Fatalf("after frame %d: level m=%d state %+v, per-frame %+v",
							hi, mo.levels[i].m, mo.levels[i], want.levels[i])
					}
				}
				lo = hi
			}
		})
	}
}
