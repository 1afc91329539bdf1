package main

import (
	"fmt"
	"strconv"
)

// Request kinds: a trace streams frames back in the response body; a
// job is a POST /v1/simulate followed by /v1/jobs/{id} polls.
const (
	kindTrace = "trace"
	kindJob   = "job"
)

// Targets: the process the load is sent to.
const (
	targetVBRD  = "vbrd"
	targetFleet = "fleet"
)

// workload is one traffic mix, driven by a closed loop of clients
// clients. Its request sequence is a pure function of the workload and
// the seed argument (see plan).
type workload struct {
	name   string
	kind   string
	target string
}

// The workloads, each with why it was chosen (BENCHMARK.json and
// README.md say the same).
var workloads = []workload{
	// Bound by generation on the path auto picks for streams: fgn
	// synthesis, the Eq. 13 transform, stitching and the monitor.
	{name: "paxson-bin", kind: kindTrace, target: targetVBRD},
	// Short NDJSON streams through a 2-worker fleet over 5 routing
	// identities: encode, the proxy hop, the ring and zoo sources.
	{name: "ndjson-fleet", kind: kindTrace, target: targetFleet},
	// Exact Hosking simulate jobs, a new H every jobsPerHurst jobs: the
	// job queue, the O(n²) recursion and cold genpool schedules.
	{name: "hosking-sweep", kind: kindJob, target: targetVBRD},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Fixed request parameters of each workload.
const (
	paxsonFrames = 171_000
	fleetFrames  = 20_000
	jobFrames    = 10_000
	jobCapacity  = 6e6 // bits/s, a little above the Table 4 mean rate
	jobBuffer    = 1e5 // bytes
	// jobsPerHurst consecutive jobs share one H. The first misses the
	// worker's coefficient cache; with two clients the second usually
	// runs beside it and waits for the same schedule. Eight per H keeps
	// those two slow jobs at a quarter of all jobs, so p50 falls among
	// the warm jobs and p90 among the cold ones; with four per H half
	// the jobs are slow and p50 flips between the two modes.
	jobsPerHurst = 8
	// hurstGrid H values 0.5500..0.9499 in steps of 1e-4 are visited in
	// the order idx_k = (a + k·hurstStride) mod hurstGrid; the stride is
	// coprime to the grid, so no H recurs for hurstGrid·jobsPerHurst jobs.
	hurstGrid   = 4000
	hurstStride = 1597
	// warmHurst lies outside the grid, so the warm-up job shares no
	// coefficient schedule with the timed sequence.
	warmHurst = 0.95
)

// identity is one ndjson-fleet routing identity: a fARIMA Hurst
// parameter on the default backend, or a zoo model.
type identity struct {
	hurst float64 // 0 for zoo models
	model string  // "" for fARIMA
}

var fleetIdentities = [5]identity{
	{hurst: 0.7}, {hurst: 0.8}, {hurst: 0.9}, {model: "gop"}, {model: "cascade"},
}

// request is one generated request plus everything the reference
// recomputation needs to check its response.
type request struct {
	index  int
	kind   string
	method string
	path   string
	body   []byte

	n       int
	seed    uint64
	hurst   float64 // requested H (0 = server default model)
	backend string  // requested backend ("" = server default)
	model   string  // zoo spec ("" = fARIMA)
	format  string
}

// Seed salts: each derived sequence draws from its own splitmix64
// stream of the workload seed.
const (
	saltRequestSeed = 0x5eed_0001
	saltOrder       = 0x5eed_0002
	saltHurst       = 0x5eed_0003
	saltWarm        = 0x5eed_0004
)

// splitmix64 is the SplitMix64 finalizer: a bijective scramble used to
// derive independent values from (seed, salt, index).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func derive(seed, salt uint64, i int) uint64 {
	return splitmix64(splitmix64(seed^salt) + uint64(i))
}

// plan derives a workload's whole request sequence from one seed: the
// per-request seeds, the hosking-sweep H sequence and the ndjson-fleet
// identity order. The servers see only the generated requests.
type plan struct {
	w        workload
	seed     uint64
	order    [5]int // ndjson-fleet identity order
	hurstOff int    // hosking-sweep grid offset
}

func newPlan(w workload, seed uint64) *plan {
	p := &plan{w: w, seed: seed, hurstOff: int(derive(seed, saltHurst, 0) % hurstGrid)}
	for i := range p.order {
		p.order[i] = i
	}
	for i := len(p.order) - 1; i > 0; i-- { // Fisher–Yates
		j := int(derive(seed, saltOrder, i) % uint64(i+1))
		p.order[i], p.order[j] = p.order[j], p.order[i]
	}
	return p
}

// requestSeed keeps seeds to 48 bits so they read the same in any JSON
// or query-string consumer.
func (p *plan) requestSeed(salt uint64, i int) uint64 {
	return derive(p.seed, salt, i) & (1<<48 - 1)
}

// hurst is the H of the k-th group of jobsPerHurst jobs. Dividing two
// exact integers gives the correctly rounded decimal, so the value
// formats as four digits and parses back to the same bits.
func (p *plan) hurst(k int) float64 {
	return float64(5500+(p.hurstOff+k*hurstStride)%hurstGrid) / 10000
}

// request returns the i-th request of the timed sequence.
func (p *plan) request(i int) request {
	return p.build(i, p.requestSeed(saltRequestSeed, i), false)
}

// warmups are sent before timing starts; they fill the server caches
// every timed request shares, and use seeds (and, for jobs, an H)
// outside the timed sequence.
func (p *plan) warmups() []request {
	count := 1
	if p.w.name == "ndjson-fleet" {
		count = len(fleetIdentities)
	}
	out := make([]request, count)
	for i := range out {
		out[i] = p.build(i, p.requestSeed(saltWarm, i), true)
		out[i].index = -1 - i
	}
	return out
}

func (p *plan) build(i int, seed uint64, warm bool) request {
	r := request{index: i, seed: seed}
	switch p.w.name {
	case "paxson-bin":
		r.kind, r.n, r.backend, r.format = kindTrace, paxsonFrames, "paxson", "bin"
		r.method = "GET"
		r.path = fmt.Sprintf("/v1/trace?backend=paxson&format=bin&n=%d&seed=%d", r.n, seed)
	case "ndjson-fleet":
		id := fleetIdentities[p.order[i%len(p.order)]]
		if warm {
			id = fleetIdentities[i%len(fleetIdentities)]
		}
		r.kind, r.n, r.format = kindTrace, fleetFrames, "ndjson"
		r.method = "GET"
		if id.model != "" {
			r.model = id.model
			r.path = fmt.Sprintf("/v1/trace?format=ndjson&n=%d&model=%s&seed=%d", r.n, id.model, seed)
		} else {
			r.hurst = id.hurst
			r.path = fmt.Sprintf("/v1/trace?format=ndjson&n=%d&hurst=%s&seed=%d", r.n, fmtFloat(id.hurst), seed)
		}
	case "hosking-sweep":
		r.kind, r.n, r.backend = kindJob, jobFrames, "hosking"
		r.hurst = p.hurst(i / jobsPerHurst)
		if warm {
			r.hurst = warmHurst
		}
		r.method = "POST"
		r.path = "/v1/simulate"
		r.body = []byte(fmt.Sprintf(`{"backend":"hosking","n":%d,"hurst":%s,"seed":%d,"capacity_bps":%s,"buffer_bytes":%s}`,
			r.n, fmtFloat(r.hurst), seed, fmtFloat(jobCapacity), fmtFloat(jobBuffer)))
	default:
		panic("servebench: no requests defined for workload " + p.w.name)
	}
	return r
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
