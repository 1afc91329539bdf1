package server

import (
	"context"
	"errors"
	"io"
	"math"
	"testing"

	"vbr/internal/backend"
	"vbr/internal/source"
	"vbr/internal/stream"
)

// This file pins the online monitor's probes — the numbers behind the
// X-Vbr-Hhat-* trailers — bitwise. The hashes below were captured from
// the per-frame monitor (one Welford update per aggregation level and
// one ring-buffer MAVAR update per octave for every frame) before the
// block kernel replaced it. They must never be regenerated from current
// code: that would turn the regression test into a tautology.

// probeHashes folds every field of every per-block probe into one
// FNV-1a 64 hash per field, over each value's IEEE-754 bits (integers
// as their two's-complement bits), little-endian byte by byte.
type probeHashes [8]uint64

func newProbeHashes() probeHashes {
	var h probeHashes
	for i := range h {
		h[i] = 14695981039346656037
	}
	return h
}

func (h *probeHashes) add(p stream.Probe) {
	fields := [8]uint64{
		uint64(p.N),
		math.Float64bits(p.Mean),
		math.Float64bits(p.Std),
		math.Float64bits(p.H),
		uint64(p.Levels),
		math.Float64bits(p.HMavar),
		math.Float64bits(p.HMavarErr),
		uint64(p.MavarOctaves),
	}
	for f, bits := range fields {
		for i := 0; i < 8; i++ {
			h[f] ^= (bits >> (8 * i)) & 0xff
			h[f] *= 1099511628211
		}
	}
}

var probeFieldNames = [8]string{"N", "Mean", "Std", "H", "Levels", "HMavar", "HMavarErr", "MavarOctaves"}

// Captured from the per-frame monitor: a 171k-frame Paxson stream of
// the paper model (seed 1, default 4096-frame blocks) and the default
// 171k-frame /v1/trace?model=gop adapter (seed 1, 4096-frame blocks),
// probed after every block.
var (
	goldenPaxsonProbes = probeHashes{
		0xe85f80ca7410d7d6, 0x045dacf214ceb962, 0xc5bb61663ed7ec50, 0x9864a1832f35a51f,
		0xebb6d5bcd99599e8, 0xedb8ca0b67aab0bc, 0xbd9547a3dfd807f9, 0xd1904b7d8783a806,
	}
	goldenGOPProbes = probeHashes{
		0xe85f80ca7410d7d6, 0x46c681a4434171fb, 0x9fb28dbea01a8852, 0xc66c465e0434f9de,
		0xebb6d5bcd99599e8, 0xd691a7ada034bc86, 0x9071cb7d0361abfd, 0xd1904b7d8783a806,
	}
)

// drainProbes hashes the probe of src after every block it yields.
func drainProbes(t *testing.T, src probeSource) (probeHashes, int) {
	t.Helper()
	h := newProbeHashes()
	blocks := 0
	for {
		_, err := src.Next(context.Background())
		if errors.Is(err, io.EOF) {
			return h, blocks
		}
		if err != nil {
			t.Fatal(err)
		}
		h.add(src.Probe())
		blocks++
	}
}

func checkProbeHashes(t *testing.T, name string, got, want probeHashes) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: probe field %s hash %#x, want %#x", name, probeFieldNames[i], got[i], want[i])
		}
	}
}

func TestProbeGoldenPaxson(t *testing.T) {
	s, err := stream.Open(stream.Config{Model: PaperDefault, N: 171_000, Seed: 1, Backend: backend.Paxson})
	if err != nil {
		t.Fatal(err)
	}
	got, blocks := drainProbes(t, s)
	if blocks != 42 {
		t.Fatalf("stream yielded %d blocks, want 42", blocks)
	}
	checkProbeHashes(t, "paxson", got, goldenPaxsonProbes)
}

func TestProbeGoldenGOP(t *testing.T) {
	src, err := source.New("gop", 1)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := source.Blocks(src, 171_000, 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, blocks := drainProbes(t, ad)
	if blocks != 42 {
		t.Fatalf("adapter yielded %d blocks, want 42", blocks)
	}
	checkProbeHashes(t, "gop", got, goldenGOPProbes)
}
