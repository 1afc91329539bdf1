package stream

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"

	"vbr/internal/fgn"
)

// stitch streams fractional Gaussian noise in O(block) memory by
// generating independent fGn chunks of length block+overlap and
// crossfading consecutive chunks over the overlap region. The chunk
// synthesis is pluggable — Davies–Harte and Paxson share every line of
// the seam logic and differ only in how a chunk is drawn.
//
// Chunk i covers absolute frames [i·B, (i+1)·B+L): the first L samples
// are blended with the tail carried over from chunk i−1, the middle B−L
// are emitted as-is, and the final L become the carry for chunk i+1.
// The blend uses power-preserving weights
//
//	out[j] = cos(θ_j)·carry[j] + sin(θ_j)·fresh[j],  θ_j = (j+½)/L · π/2
//
// so cos²+sin² = 1 keeps the mix of two independent N(0,1) samples
// exactly N(0,1): the marginal is preserved everywhere, and only the
// autocorrelation across a seam is approximate (each chunk is
// internally one backend draw). The seam error is what the KS and
// Whittle-Ĥ tolerance tests bound.
type stitch struct {
	n       int
	block   int
	overlap int
	name    string // backend name for error messages
	// chunk synthesizes independent chunk idx: block+overlap points of
	// fGn drawn from the chunk's own rng stream, so any block is
	// regenerable in isolation.
	chunk func(ctx context.Context, idx int) ([]float64, error)

	// wc and ws are the crossfade weights cos θ_j and sin θ_j, built
	// once per stream: every seam has the same overlap length.
	wc, ws []float64

	idx   int // next chunk index
	pos   int // frames emitted
	carry []float64
}

// newStitch builds the seam state shared by the chunked backends.
func newStitch(cfg Config, name string, chunk func(ctx context.Context, idx int) ([]float64, error)) *stitch {
	d := &stitch{
		n: cfg.N, block: cfg.BlockSize, overlap: cfg.Overlap,
		name: name, chunk: chunk,
		wc: make([]float64, cfg.Overlap),
		ws: make([]float64, cfg.Overlap),
	}
	for j := range d.wc {
		theta := (float64(j) + 0.5) / float64(cfg.Overlap) * (math.Pi / 2)
		d.wc[j], d.ws[j] = math.Cos(theta), math.Sin(theta)
	}
	return d
}

// newDHStitch builds the Davies–Harte chunked backend: exact circulant
// embedding within chunks. With a pool, the chunk eigenvalue vector is
// cached — every chunk has the same length block+overlap, so one cached
// FFT serves all chunks of this stream and every other stream with the
// same (H, chunk length).
func newDHStitch(cfg Config) *stitch {
	clen := cfg.BlockSize + cfg.Overlap
	return newStitch(cfg, "davies-harte", func(ctx context.Context, idx int) ([]float64, error) {
		rng := rand.New(rand.NewPCG(cfg.Seed, dhStreamSalt+uint64(idx)))
		if cfg.Pool != nil {
			lam, err := cfg.Pool.DaviesHarteEigen(ctx, cfg.Model.Hurst, clen)
			if err != nil {
				return nil, err
			}
			return fgn.DaviesHarteFromEigenCtx(ctx, clen, lam, rng)
		}
		return fgn.DaviesHarteCtx(ctx, clen, cfg.Model.Hurst, rng)
	})
}

// newPaxsonStitch builds the Paxson chunked backend: FFT-approximate
// spectral synthesis within chunks, the fastest engine. With a pool,
// the (H, chunk length)-keyed expected-power vector is cached the same
// way the Davies–Harte eigenvalues are. Chunks draw from their own PCG
// streams under paxsonStreamSalt, so a Paxson stream and a
// Davies–Harte stream of the same seed stay independent.
func newPaxsonStitch(cfg Config) *stitch {
	clen := cfg.BlockSize + cfg.Overlap
	return newStitch(cfg, "paxson", func(ctx context.Context, idx int) ([]float64, error) {
		rng := rand.New(rand.NewPCG(cfg.Seed, paxsonStreamSalt+uint64(idx)))
		if cfg.Pool != nil {
			p, err := cfg.Pool.PaxsonSpectrum(ctx, cfg.Model.Hurst, clen)
			if err != nil {
				return nil, err
			}
			return fgn.PaxsonFromSpectrumCtx(ctx, clen, p, rng)
		}
		return fgn.PaxsonCtx(ctx, clen, cfg.Model.Hurst, rng)
	})
}

// Next implements the gaussian contract: it emits one stitched block per
// call (the final block may be short), reusing dst as the only
// caller-visible buffer.
//
//vbrlint:hotpath
func (d *stitch) Next(ctx context.Context, dst []float64) (int, error) {
	if d.pos >= d.n {
		return 0, io.EOF
	}
	if len(dst) < d.block {
		return 0, fmt.Errorf("stream: %s block buffer too small: %d < %d", d.name, len(dst), d.block)
	}
	chunk, err := d.chunk(ctx, d.idx)
	if err != nil {
		return 0, fmt.Errorf("stream: %s chunk %d: %w", d.name, d.idx, err)
	}
	emit := d.block
	if rem := d.n - d.pos; emit > rem {
		emit = rem
	}
	start := 0
	if d.idx > 0 && d.overlap > 0 {
		for ; start < d.overlap && start < emit; start++ {
			dst[start] = d.wc[start]*d.carry[start] + d.ws[start]*chunk[start]
		}
	}
	copy(dst[start:emit], chunk[start:emit])
	if d.overlap > 0 {
		d.carry = append(d.carry[:0], chunk[d.block:]...)
	}
	d.idx++
	d.pos += emit
	return emit, nil
}
