// Benchmarks regenerating every table and figure of the paper, plus the
// ablation benchmarks for the design choices called out in DESIGN.md.
// Each benchmark runs the complete experiment pipeline at QuickScale
// (30,000 frames); run cmd/vbrexperiments -scale paper for the full-size
// reproduction.
package vbr

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"

	"vbr/internal/codec"
	"vbr/internal/experiments"
	"vbr/internal/fgn"
	"vbr/internal/lrd"
	"vbr/internal/queue"
	"vbr/internal/stats"
	"vbr/internal/stream"
	"vbr/internal/synth"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
	benchErr   error
)

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchSuite, benchErr = experiments.NewSuite(experiments.QuickScale)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

func BenchmarkTable1_TraceGeneration(b *testing.B) {
	cfg := synth.DefaultConfig()
	cfg.Frames = 30000
	cfg.SlicesPerFrame = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := synth.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_TraceStatistics(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_HurstEstimates(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1_TimeSeries(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig1(2000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2_MovingAverage(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_SegmentHistograms(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_CCDFRightTail(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_CDFLeftTail(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_DensityVsHybrid(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_Autocorrelation(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_Periodogram(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_MeanConvergence(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_Aggregation(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11_VarianceTime(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12_RSPox(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14_QCCurves(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig14(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15_SMG(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig15(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16_ModelComparison(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig16(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17_ErrorProcess(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig17(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §5).

// Hosking's exact O(n²) generator vs the O(n log n) circulant embedding.
func BenchmarkAblation_Hosking10k(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fgn.Hosking(10000, 0.8, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_DaviesHarte10k(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fgn.DaviesHarte(10000, 0.8, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// The Paxson FFT-approximate generator at the same length as the two
// exact engines above: one spectrum evaluation plus a single inverse
// FFT per trace.
func BenchmarkPaxson10k(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fgn.Paxson(10000, 0.8, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// Paper-scale cold generation under the Auto policy: the full §4
// pipeline (fGn → marginal transform) for the paper's 171,000-frame,
// 2-hour trace, no pool. Auto resolves to Paxson at this length; the
// acceptance bar is under a second per trace — against the 10 hours
// the paper reports for its 1994 Hosking run.
func BenchmarkPaxson171k(b *testing.B) {
	opts := DefaultGenOptions()
	opts.Generator = BackendAuto
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		if _, err := benchCacheModel.Generate(171_000, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// streamChunk is the length of one stream chunk at the stream.Config
// defaults: a 4096-frame block plus its 1024-frame overlap.
const streamChunk = 4096 + 4096/4

// Per-chunk synthesis as a stream runs it: the seed-independent vector
// comes from the pool (computed once here), so each iteration is the
// seed-dependent draw plus one inverse FFT at the chunk length — a
// Bluestein transform, since 5120 is not a power of two.
func BenchmarkPaxsonChunk5120(b *testing.B) {
	ctx := context.Background()
	p, err := fgn.PaxsonSpectrumCtx(ctx, streamChunk, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fgn.PaxsonFromSpectrumCtx(ctx, streamChunk, p, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// The Davies–Harte counterpart: cached eigenvalues, then the
// randomized spectrum and one 10240-point (Bluestein) FFT per chunk.
func BenchmarkDaviesHarteChunk5120(b *testing.B) {
	ctx := context.Background()
	lambda, err := fgn.DaviesHarteEigenCtx(ctx, streamChunk, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fgn.DaviesHarteFromEigenCtx(ctx, streamChunk, lambda, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// Direct O(n·lag) autocorrelation vs the FFT path.
func BenchmarkAblation_ACFDirect(b *testing.B) {
	s := suite(b)
	frames := s.Trace.Frames
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.AutocorrelationDirect(frames, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ACFFFT(b *testing.B) {
	s := suite(b)
	frames := s.Trace.Frames
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Autocorrelation(frames, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

// Fluid vs cell-exact queueing at slice granularity.
func benchWorkload(b *testing.B) queue.Workload {
	b.Helper()
	s := suite(b)
	mux, err := queue.NewMuxFromConfig(queue.MuxConfig{Trace: s.Trace, N: 1, MinLagFrames: 0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	w, err := mux.SliceWorkload([]int{0})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkAblation_QueueFluid(b *testing.B) {
	w := benchWorkload(b)
	c := w.MeanRate() * 1.2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queue.Simulate(w, c, 20000, queue.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_QueueCells(b *testing.B) {
	w := benchWorkload(b)
	c := w.MeanRate() * 1.2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queue.SimulateCells(w, c, 20000, queue.UniformSpacing, queue.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Marginal-transform table resolution (the paper uses 10,000 points).
func BenchmarkAblation_QuantileTable1k(b *testing.B) { benchQuantileTable(b, 1000) }

func BenchmarkAblation_QuantileTable10k(b *testing.B) { benchQuantileTable(b, 10000) }

func BenchmarkAblation_QuantileTable100k(b *testing.B) { benchQuantileTable(b, 100000) }

func benchQuantileTable(b *testing.B, size int) {
	gp, err := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gp.QuantileTable(size); err != nil {
			b.Fatal(err)
		}
	}
}

// Zero-loss capacity: bisection vs the exact convex-hull dual.
func BenchmarkAblation_ZeroLossBisection(b *testing.B) {
	w := benchWorkload(b)
	lo, hi := w.MeanRate()*0.5, w.PeakRate()*1.05
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss := func(c float64) (float64, error) {
			r, err := queue.Simulate(w, c, 20000, queue.Options{})
			if err != nil {
				return 0, err
			}
			return r.Pl, nil
		}
		if _, err := queue.MinCapacity(loss, lo, hi, queue.LossTarget{Pl: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ZeroLossExact(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queue.ZeroLossCapacityExact(w, 20000); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Extension benchmarks.

func BenchmarkExt_TransportModes(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtTransport(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_BufferlessAdmission(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtAdmission(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_SRDAugmentation(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtSRD(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_InterframeCoding(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtInterframe(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_TailFidelity(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtTailFidelity(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_SceneDetection(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtScenes(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Generation-cache benchmarks (DESIGN.md §10): the same Model.Generate
// call cold (no pool: coefficient schedule and mapping table rebuilt
// every time) and warm (pool pre-filled by one prior call). The warm
// path must stay well ahead of cold — the CI baseline pins the ratio.

var benchCacheModel = Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8}

func BenchmarkColdGenerate(b *testing.B) {
	opts := DefaultGenOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		if _, err := benchCacheModel.Generate(10000, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmGenerate(b *testing.B) {
	opts := DefaultGenOptions()
	opts.Pool = NewGenPool(0)
	if _, err := benchCacheModel.Generate(10000, opts); err != nil {
		b.Fatal(err) // fill the pool
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		if _, err := benchCacheModel.Generate(10000, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Eight independently seeded traces through the worker-pool batch
// engine sharing one pool, vs. what eight cold Generate calls would
// cost (8× BenchmarkColdGenerate at n=4096).
func BenchmarkBatchGenerate(b *testing.B) {
	ctx := context.Background()
	opts := DefaultGenOptions()
	opts.Pool = NewGenPool(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		if _, err := benchCacheModel.GenerateBatch(ctx, 8, 4096, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// The real intraframe coder: one 504×480 frame through DCT, quantizer,
// run-length and Huffman coding (Table 1's pipeline).
func BenchmarkAblation_CodecFrame(b *testing.B) {
	cfg := codec.DefaultCoderConfig()
	coder, err := codec.NewCoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := codec.NewFrame(cfg.Width, cfg.Height)
	if err != nil {
		b.Fatal(err)
	}
	if err := codec.RenderFrame(frame, codec.RenderParams{Activity: 0.5, SceneID: 1}); err != nil {
		b.Fatal(err)
	}
	if err := coder.Train([]*codec.Frame{frame}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coder.CodeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Estimator-battery benchmarks: the batch MAVAR estimator, its
// per-observation streaming update (the monitor hotpath — must stay
// allocation-free), and the full five-estimator EstimateAll bundle with
// calibrated error bars.

func benchFGN(b *testing.B, n int) []float64 {
	b.Helper()
	rng := rand.New(rand.NewPCG(2, 2))
	xs, err := fgn.DaviesHarte(n, 0.8, rng)
	if err != nil {
		b.Fatal(err)
	}
	return xs
}

func BenchmarkMAVAR(b *testing.B) {
	xs := benchFGN(b, 65536)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lrd.MAVAR(xs, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnlineMAVARAdd(b *testing.B) {
	o := lrd.NewOnlineMAVAR(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Add(float64(i&1023) - 511.5)
	}
}

// BenchmarkMonitor171k is the stream.monitor layer of one paper-length
// stream: a fresh monitor fed frame by frame, probed after every
// 4096-frame block the way Stream.Next and the zoo adapter probe it.
func BenchmarkMonitor171k(b *testing.B) {
	xs := benchFGN(b, 171_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mo := stream.NewMonitor(len(xs))
		for j, v := range xs {
			mo.Add(v)
			if (j+1)%4096 == 0 {
				mo.Probe()
			}
		}
		mo.Probe()
	}
}

func BenchmarkEstimateAll(b *testing.B) {
	xs := benchFGN(b, 65536)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lrd.EstimateAll(xs, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// The per-frame hot path of every registered scenario-zoo model — the
// cost GET /v1/trace?model= and the SourceMux pay per sample. The
// farima member's default horizon is trimmed so its epoch rollovers
// (and the Davies–Harte block synthesis they trigger) land inside the
// measured window rather than dominating a single giant setup.
func BenchmarkSourceNext(b *testing.B) {
	ctx := context.Background()
	for _, name := range SourceModels() {
		spec := name
		if name == "farima" {
			spec = "farima:n=8192,block=2048"
		}
		b.Run(name, func(b *testing.B) {
			src, err := NewSource(spec, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := src.Next(ctx); err != nil {
				b.Fatal(err) // warm the lazy first block
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := src.Next(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
