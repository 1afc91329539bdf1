package main

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vbr/internal/backend"
	"vbr/internal/dist"
	"vbr/internal/fgn"
	"vbr/internal/genpool"
	"vbr/internal/source"
	"vbr/internal/specfn"
	"vbr/internal/stream"
)

// Stream defaults and PCG stream salts of internal/stream, repeated so
// the traced run can replay a stream's inner calls one by one. Every
// replayed block is compared bit for bit with the block Stream.Next
// returned, so a drift between these and the stream package fails the
// traced run instead of timing different work.
const (
	streamBlock      = 4096
	streamOverlap    = streamBlock / 4
	streamTable      = 10000
	gaussStreamSalt  = 0x6a55
	dhStreamSalt     = 0xd41e5
	paxsonStreamSalt = 0x9ac50
)

// tracer replays a workload's request sequence one request at a time
// and records a span around every call into a layer. Per request:
//
//  1. request: the request as the timed run sends it, to the spawned
//     front door (for the fleet, fleet.worker: the same request sent
//     straight to the worker that served it);
//  2. the stream or zoo-source calls vbrd's handler makes (stream.open,
//     stream.next per block, source.open, source.next, queue.simulate),
//     made in-process; run twice more without the replays of step 3,
//     bare and with spans, they give trace.overhead_frac;
//  3. under each of those, a replay of the calls it makes: genpool
//     lookups, fgn chunk synthesis or Hosking blocks, the overlap
//     stitch, the Eq. 13 transform and the online monitor.
type tracer struct {
	w      workload
	rec    *recorder
	ext    *client
	direct map[string]*client // fleet worker id → client
	seed   maphash.Seed

	// One generation cache per replay pass, so each pass meets the
	// cache state the spawned server met.
	poolOff, poolOn, poolSpan, poolDec *genpool.Pool

	reqs     []reqTrace
	failures []string
}

// reqTrace is what the traced run keeps per request besides its spans.
type reqTrace struct {
	index   int
	frames  int
	worker  string
	wire    int64         // response body bytes, job polls included
	jobWait time.Duration // spawned server, as seen by polling
	off, on time.Duration // the layer calls without and with span recording
}

func (t *tracer) failf(format string, a ...any) {
	t.failures = append(t.failures, fmt.Sprintf(format, a...))
}

// runOne replays one request through every level. warm requests are
// replayed untraced to fill caches.
func (t *tracer) runOne(ctx context.Context, r request, warm bool) error {
	rec := t.rec
	if warm {
		rec = nil
	}
	if rec != nil {
		rec.req = r.index
	}
	root := rec.begin("request", -1)
	s := t.ext.do(ctx, r)
	rec.end(root)
	if s.failed() {
		return fmt.Errorf("request %d to %s: %s %s", r.index, t.ext.base, s.status, s.err)
	}
	rt := reqTrace{index: r.index, frames: s.frames, worker: s.worker, wire: s.bytes, jobWait: s.jobWait}
	parent := root
	if t.w.target == targetFleet {
		c, ok := t.direct[s.worker]
		if !ok {
			return fmt.Errorf("request %d served by unknown worker %q", r.index, s.worker)
		}
		id := rec.begin("fleet.worker", root)
		d := c.do(ctx, r)
		rec.end(id)
		if d.failed() || d.digest != s.digest {
			t.failf("request %d: direct worker response (%s) differs from the front door's", r.index, d.status)
		}
		parent = id
	}
	// What tracing costs: the same calls, once bare and once with their
	// spans recorded (into a throwaway recorder), in alternating order so
	// the warm-up effect of running second cancels out.
	bare := func() error {
		start := time.Now()
		_, err := layers(ctx, r, nil, -1, t.poolOff, nil)
		rt.off = time.Since(start)
		return err
	}
	spanned := func() error {
		spans := newRecorder()
		start := time.Now()
		_, err := layers(ctx, r, spans, -1, t.poolOn, nil)
		rt.on = time.Since(start)
		return err
	}
	passes := []func() error{bare, spanned}
	if r.index%2 != 0 {
		passes[0], passes[1] = spanned, bare
	}
	for _, pass := range passes {
		if err := pass(); err != nil {
			return err
		}
	}
	out, err := layers(ctx, r, rec, parent, t.poolSpan, t.poolDec)
	if err != nil {
		return err
	}
	t.compare(r, s, out)
	if !warm {
		t.reqs = append(t.reqs, rt)
	}
	return nil
}

// compare checks the spawned server's response against the in-process
// layers' output.
func (t *tracer) compare(r request, s sample, out layerOut) {
	if r.kind == kindJob {
		if !s.result.same(*out.job) {
			t.failf("request %d: job result %+v differs from the layers' %+v", r.index, *s.result, *out.job)
		}
		return
	}
	if s.digest != digestFrames(t.seed, out.frames) || s.frames != len(out.frames) {
		t.failf("request %d: response frames differ from the layers' output", r.index)
	}
}

// layerOut is what the in-process layers produced for one request.
type layerOut struct {
	frames []float64
	job    *jobResult   // jobs only
	probe  stream.Probe // the final probe of the frames' online monitor
}

// layers makes the calls vbrd's handler makes for r: the stream layer
// for fARIMA requests, the zoo source layer for model= requests, and
// queue.Simulate for jobs. With rec set it records a span around each
// call; with dec set it also replays each call's inner calls under it.
// With neither it is the reference recomputation the verifier uses.
func layers(ctx context.Context, r request, rec *recorder, parent int, pool, dec *genpool.Pool) (layerOut, error) {
	var out layerOut
	if r.model != "" {
		return out, zooLayers(ctx, r, rec, parent, dec != nil, &out)
	}
	cfg, err := r.streamConfig(pool)
	if err != nil {
		return out, err
	}
	id := rec.begin("stream.open", parent)
	st, err := stream.OpenCtx(ctx, cfg)
	rec.end(id)
	if err != nil {
		return out, fmt.Errorf("request %d: stream.OpenCtx: %w", r.index, err)
	}
	var d *decomp
	if dec != nil {
		if d, err = newDecomp(ctx, rec, id, r, dec); err != nil {
			return out, err
		}
	}
	for {
		id := rec.begin("stream.next", parent)
		blk, err := st.Next(ctx)
		rec.end(id)
		if errors.Is(err, io.EOF) {
			rec.rename(id, "stream.eof")
			break
		}
		if err != nil {
			return out, fmt.Errorf("request %d: Stream.Next: %w", r.index, err)
		}
		out.frames = append(out.frames, blk...)
		if d != nil {
			if err := d.block(ctx, id, blk); err != nil {
				return out, fmt.Errorf("request %d: %w", r.index, err)
			}
		}
	}
	out.probe = st.Probe()
	if r.kind == kindJob {
		id := rec.begin("queue.simulate", parent)
		res, err := simulate(r, out.frames)
		rec.end(id)
		if err != nil {
			return out, fmt.Errorf("request %d: queue.Simulate: %w", r.index, err)
		}
		job := newJobResult(res)
		out.job = &job
	}
	return out, nil
}

// zooLayers is layers for a scenario-zoo model: the source calls vbrd
// makes, with the adapter's monitor work replayed under each block.
func zooLayers(ctx context.Context, r request, rec *recorder, parent int, replay bool, out *layerOut) error {
	id := rec.begin("source.open", parent)
	src, err := source.New(r.model, r.seed)
	var ad *source.BlockAdapter
	if err == nil {
		ad, err = source.Blocks(src, r.n, zooBlock)
	}
	rec.end(id)
	if err != nil {
		return fmt.Errorf("request %d: opening source %q: %w", r.index, r.model, err)
	}
	var mon *stream.Monitor
	if replay {
		mon = stream.NewMonitor(r.n)
	}
	for {
		id := rec.begin("source.next", parent)
		blk, err := ad.Next(ctx)
		rec.end(id)
		if errors.Is(err, io.EOF) {
			rec.rename(id, "source.eof")
			break
		}
		if err != nil {
			return fmt.Errorf("request %d: BlockAdapter.Next: %w", r.index, err)
		}
		out.frames = append(out.frames, blk...)
		if mon != nil {
			m := rec.begin("stream.monitor", id)
			for _, v := range blk {
				mon.Add(v)
			}
			mon.Probe()
			rec.end(m)
		}
	}
	out.probe = ad.Probe()
	if mon != nil && !sameProbe(mon.Probe(), out.probe) {
		return fmt.Errorf("request %d: replayed monitor disagrees with the adapter's", r.index)
	}
	return nil
}

func sameProbe(a, b stream.Probe) bool {
	return a.N == b.N && sameBits(a.Mean, b.Mean) && sameBits(a.Std, b.Std) && sameBits(a.H, b.H) &&
		sameBits(a.HMavar, b.HMavar) && sameBits(a.HMavarErr, b.HMavarErr)
}

// decomp replays the inner calls of one fARIMA stream block by block.
type decomp struct {
	rec      *recorder
	r        request
	pool     *genpool.Pool
	resolved backend.Backend
	tab      *dist.QuantileTable
	mon      *stream.Monitor
	hs       *fgn.HoskingStream

	idx, pos  int
	carry     []float64
	gbuf, out []float64
}

// newDecomp replays what stream.OpenCtx looks up in the pool, as
// children of the stream.open span.
func newDecomp(ctx context.Context, rec *recorder, parent int, r request, pool *genpool.Pool) (*decomp, error) {
	cfg, err := r.streamConfig(pool)
	if err != nil {
		return nil, err
	}
	d := &decomp{
		rec: rec, r: r, pool: pool,
		resolved: cfg.Backend.Resolve(r.n, true),
		mon:      stream.NewMonitor(r.n),
		gbuf:     make([]float64, streamBlock),
		out:      make([]float64, streamBlock),
	}
	m := cfg.Model
	id := rec.begin("genpool.QuantileTable", parent)
	d.tab, err = pool.QuantileTable(ctx, m.MuGamma, m.SigmaGamma, m.TailSlope, streamTable)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("genpool.QuantileTable: %w", err)
	}
	if d.resolved == backend.Hosking {
		id := rec.begin("genpool.HoskingCoeffs", parent)
		c, err := pool.HoskingCoeffs(ctx, m.Hurst, r.n)
		rec.end(id)
		if err != nil {
			return nil, fmt.Errorf("genpool.HoskingCoeffs: %w", err)
		}
		if d.hs, err = fgn.NewHoskingStreamWithCoeffs(r.n, c, rand.New(rand.NewPCG(r.seed, gaussStreamSalt))); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// block replays the calls behind one Stream.Next, as children of its
// span, and checks that they rebuild the block Stream.Next returned.
func (d *decomp) block(ctx context.Context, parent int, want []float64) error {
	rec, n := d.rec, len(want)
	if n > len(d.gbuf) {
		return fmt.Errorf("block of %d frames exceeds the replay block %d", n, len(d.gbuf))
	}
	gauss := d.gbuf[:n]
	if d.resolved == backend.Hosking {
		id := rec.begin("fgn", parent)
		k, err := d.hs.Next(ctx, d.gbuf)
		rec.end(id)
		if err != nil || k != n {
			return fmt.Errorf("HoskingStream.Next gave %d points for a %d-frame block: %v", k, n, err)
		}
	} else if err := d.chunk(ctx, parent, gauss); err != nil {
		return err
	}
	out := d.out[:n]
	id := rec.begin("dist.transform", parent)
	for i, v := range gauss {
		out[i] = d.tab.Value(specfn.NormCDF(v))
	}
	rec.end(id)
	id = rec.begin("stream.monitor", parent)
	for _, y := range out {
		d.mon.Add(y)
	}
	d.mon.Probe()
	rec.end(id)
	for i := range out {
		if !sameBits(out[i], want[i]) {
			return fmt.Errorf("replayed block at frame %d differs from Stream.Next at offset %d", d.pos, i)
		}
	}
	d.pos += n
	return nil
}

// chunk replays one overlap-stitched chunk: the genpool lookup, the fgn
// synthesis and the stitch (the seam blend with the previous chunk's
// overlap, and keeping this chunk's overlap for the next) are each
// timed.
func (d *decomp) chunk(ctx context.Context, parent int, dst []float64) error {
	rec, h, clen := d.rec, d.r.modelParams().Hurst, streamBlock+streamOverlap
	var (
		vec   []float64
		chunk []float64
		err   error
	)
	if d.resolved == backend.Paxson {
		id := rec.begin("genpool.PaxsonSpectrum", parent)
		vec, err = d.pool.PaxsonSpectrum(ctx, h, clen)
		rec.end(id)
		if err == nil {
			rng := rand.New(rand.NewPCG(d.r.seed, paxsonStreamSalt+uint64(d.idx)))
			id = rec.begin("fgn", parent)
			chunk, err = fgn.PaxsonFromSpectrumCtx(ctx, clen, vec, rng)
			rec.end(id)
		}
	} else {
		id := rec.begin("genpool.DaviesHarteEigen", parent)
		vec, err = d.pool.DaviesHarteEigen(ctx, h, clen)
		rec.end(id)
		if err == nil {
			rng := rand.New(rand.NewPCG(d.r.seed, dhStreamSalt+uint64(d.idx)))
			id = rec.begin("fgn", parent)
			chunk, err = fgn.DaviesHarteFromEigenCtx(ctx, clen, vec, rng)
			rec.end(id)
		}
	}
	if err != nil {
		return fmt.Errorf("chunk %d: %w", d.idx, err)
	}
	id := rec.begin("stream.stitch", parent)
	start := 0
	if d.idx > 0 {
		for ; start < streamOverlap && start < len(dst); start++ {
			theta := (float64(start) + 0.5) / float64(streamOverlap) * (math.Pi / 2)
			dst[start] = math.Cos(theta)*d.carry[start] + math.Sin(theta)*chunk[start]
		}
	}
	copy(dst[start:], chunk[start:len(dst)])
	d.carry = append(d.carry[:0], chunk[streamBlock:]...)
	rec.end(id)
	d.idx++
	return nil
}

// runTraced replays p's sequence until dur has passed (at least
// minTraced requests) and derives the per-layer metrics from the spans.
func runTraced(ctx context.Context, binDir, outDir string, p *plan, dur time.Duration) (*report, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	metricsPath := ""
	if p.w.target == targetFleet {
		metricsPath = filepath.Join(outDir, "fleet-metrics-"+p.w.name+".json")
		_ = os.Remove(metricsPath)
	}
	sys, err := startSystem(ctx, binDir, p.w, metricsPath)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = sys.stop()
		}
	}()
	seed := maphash.MakeSeed()
	t := &tracer{
		w: p.w, rec: newRecorder(), seed: seed,
		ext:     newClient(sys.base, 1, seed),
		direct:  map[string]*client{},
		poolOff: genpool.New(0), poolOn: genpool.New(0), poolSpan: genpool.New(0), poolDec: genpool.New(0),
	}
	for id, addr := range sys.workers {
		t.direct[id] = newClient(addr, 1, seed)
	}
	defer func() {
		t.ext.close()
		for _, c := range t.direct {
			c.close()
		}
	}()

	for _, r := range p.warmups() {
		if err := t.runOne(ctx, r, true); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	before := t.poolDec.Stats()
	start := time.Now()
	for i := 0; i < minTraced || time.Since(start) < dur; i++ {
		if err := t.runOne(ctx, p.request(i), false); err != nil {
			return nil, err
		}
	}
	after := t.poolDec.Stats()

	stopped = true
	if err := sys.stop(); err != nil {
		return nil, err
	}
	var failovers int64
	if metricsPath != "" {
		if failovers, err = sys.failovers(); err != nil {
			return nil, err
		}
	}
	if err := t.rec.writeJSONL(filepath.Join(outDir, "spans-"+p.w.name+".jsonl")); err != nil {
		return nil, err
	}
	rep := t.report(before, after, failovers)
	if err := os.WriteFile(filepath.Join(outDir, "breakdown-"+p.w.name+".md"), []byte(t.breakdown()), 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// minTraced is the fewest requests a traced run replays.
const minTraced = 8

// layerOf maps a span name onto the layer its self time is charged to.
// The span of the request to the spawned vbrd (on the fleet, the one
// sent straight to the worker) is the server's: its self time is the
// request's time minus the layer calls made in-process. On the fleet the
// root span, sent to the front door, is the proxy's. What a Stream.Next
// span keeps after its replayed inner calls is claimed by no layer.
func (t *tracer) layerOf(name string) string {
	switch {
	case name == "request" && t.w.target == targetFleet:
		return "fleet.proxy"
	case name == "request" || name == "fleet.worker":
		return "server"
	case strings.HasPrefix(name, "genpool."):
		return "genpool"
	case name == "stream.next" || name == "stream.eof":
		return "unattributed"
	case strings.HasPrefix(name, "source."):
		return "source"
	}
	return name
}

// layerOrder lists the layers of the breakdown, request side first.
var layerOrder = []string{
	"fleet.proxy", "server", "queue.simulate", "source", "stream.open", "stream.stitch",
	"genpool", "fgn", "dist.transform", "stream.monitor", "unattributed",
}

// perRequest sums self time per layer, and counts spans per name, for
// every traced request.
func (t *tracer) perRequest() (self map[int]map[string]time.Duration, counts map[int]map[string]int, e2e map[int]time.Duration) {
	st := selfTimes(t.rec.spans)
	self, counts, e2e = map[int]map[string]time.Duration{}, map[int]map[string]int{}, map[int]time.Duration{}
	for i, sp := range t.rec.spans {
		if self[sp.Req] == nil {
			self[sp.Req], counts[sp.Req] = map[string]time.Duration{}, map[string]int{}
		}
		self[sp.Req][t.layerOf(sp.Name)] += st[i]
		counts[sp.Req][sp.Name]++
		if sp.Parent < 0 {
			e2e[sp.Req] = sp.dur()
		}
	}
	return self, counts, e2e
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// report derives the per-layer metrics: medians over the requests that
// call each layer.
func (t *tracer) report(before, after genpool.Stats, failovers int64) *report {
	self, counts, _ := t.perRequest()
	med := func(f func(rt reqTrace) (float64, bool)) float64 {
		var xs []float64
		for _, rt := range t.reqs {
			if v, ok := f(rt); ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	// A layer has a key in self[req] exactly when req called it.
	selfMS := func(layer string) float64 {
		return med(func(rt reqTrace) (float64, bool) {
			d, ok := self[rt.index][layer]
			return ms(d), ok
		})
	}
	perFrame := func(layer string) float64 {
		return med(func(rt reqTrace) (float64, bool) {
			d, ok := self[rt.index][layer]
			return float64(d) / float64(rt.frames), ok
		})
	}
	count := func(name string) float64 {
		return med(func(rt reqTrace) (float64, bool) {
			return float64(counts[rt.index][name]), counts[rt.index][name] > 0
		})
	}
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}

	rep := &report{attempted: len(t.reqs), failed: len(t.failures), correct: len(t.failures) == 0, lines: t.failures}
	add := func(name, unit string, v float64) { rep.add(name, unit, v, len(t.reqs), "") }
	add("fgn.self_ms", "ms", selfMS("fgn"))
	add("fgn.ns_per_frame", "ns/frame", perFrame("fgn"))
	add("fgn.calls", "count", count("fgn"))
	add("genpool.self_ms", "ms", selfMS("genpool"))
	add("genpool.hit_ratio", "fraction", hitRatio)
	add("genpool.resident_mb", "MiB", float64(after.Bytes)/(1<<20))
	add("dist.transform.self_ms", "ms", selfMS("dist.transform"))
	add("dist.transform.ns_per_frame", "ns/frame", perFrame("dist.transform"))
	add("stream.monitor.self_ms", "ms", selfMS("stream.monitor"))
	add("stream.monitor.ns_per_frame", "ns/frame", perFrame("stream.monitor"))
	add("stream.open.self_ms", "ms", selfMS("stream.open"))
	add("stream.stitch.self_ms", "ms", selfMS("stream.stitch"))
	add("stream.blocks", "count", count("stream.next"))
	add("source.self_ms", "ms", selfMS("source"))
	add("source.ns_per_frame", "ns/frame", perFrame("source"))
	add("server.self_ms", "ms", selfMS("server"))
	add("server.wire_bytes_per_frame", "B/frame", med(func(rt reqTrace) (float64, bool) {
		return float64(rt.wire) / float64(rt.frames), true
	}))
	add("server.job_wait_ms", "ms", med(func(rt reqTrace) (float64, bool) { return ms(rt.jobWait), t.w.kind == kindJob }))
	add("fleet.proxy.self_ms", "ms", selfMS("fleet.proxy"))
	add("fleet.proxy.failovers", "count", float64(failovers))
	add("fleet.ring.skew", "ratio", t.ringSkew())
	add("queue.simulate.self_ms", "ms", selfMS("queue.simulate"))
	add("queue.intervals", "count", med(func(rt reqTrace) (float64, bool) { return float64(rt.frames), t.w.kind == kindJob }))
	// Self times add up to the request span, so the end-to-end time
	// minus every layer's self time is the unattributed self time: what
	// Stream.Next spends beyond its replayed inner calls.
	add("trace.unattributed_ms", "ms", selfMS("unattributed"))
	off := med(func(rt reqTrace) (float64, bool) { return float64(rt.off), true })
	on := med(func(rt reqTrace) (float64, bool) { return float64(rt.on), true })
	add("trace.overhead_frac", "fraction", on/off-1)
	return rep
}

// ringSkew is the largest worker's share of frames over an even share
// (1 = balanced); 0 outside the fleet workload.
func (t *tracer) ringSkew() float64 {
	if t.w.target != targetFleet {
		return 0
	}
	byWorker := map[string]int{}
	total := 0
	for _, rt := range t.reqs {
		byWorker[rt.worker] += rt.frames
		total += rt.frames
	}
	top := 0
	for _, f := range byWorker {
		top = max(top, f)
	}
	return float64(top) / float64(total) * fleetWorkers
}

// breakdown renders, as a Markdown table, the per-layer self times of
// the most typical traced request: the one whose self times lie closest
// to the layers' medians over all traced requests (the sum of absolute
// differences, a layer it does not call counting as 0). The medians are
// printed next to it. A single request's self times still carry its own
// noise, including negative values where a separately timed child ran
// slower than inside its parent.
func (t *tracer) breakdown() string {
	self, _, e2e := t.perRequest()
	medians := map[string]float64{}
	for _, layer := range layerOrder {
		var xs []float64
		for _, rt := range t.reqs {
			if v, ok := self[rt.index][layer]; ok {
				xs = append(xs, ms(v))
			}
		}
		if len(xs) > 0 {
			medians[layer] = median(xs)
		}
	}
	var totals []float64
	for _, rt := range t.reqs {
		totals = append(totals, ms(e2e[rt.index]))
	}
	req, best := -1, math.Inf(1)
	for _, rt := range t.reqs {
		dist := 0.0
		for layer, m := range medians {
			dist += math.Abs(ms(self[rt.index][layer]) - m)
		}
		if dist < best {
			req, best = rt.index, dist
		}
	}
	total := e2e[req]
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: one request, self time per layer\n\n", t.w.name)
	fmt.Fprintf(&b, "Request %d of the sequence, the closest of %d traced requests to the per-layer medians.\n\n", req, len(t.reqs))
	b.WriteString("| layer | self ms | share of end to end | median self ms over requests |\n|---|---:|---:|---:|\n")
	for _, layer := range layerOrder {
		d, ok := self[req][layer]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "| %s | %.3f | %.1f%% | %.3f |\n", layer, ms(d), 100*float64(d)/float64(total), medians[layer])
	}
	fmt.Fprintf(&b, "| **end to end** | %.3f | 100.0%% | %.3f |\n", ms(total), median(totals))
	return b.String()
}
