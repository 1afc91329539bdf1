package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome of one request.
const (
	statusOK        = "ok"
	statusRefused   = "refused"   // 503: the server shed the request
	statusTruncated = "truncated" // fewer frames than X-Vbr-Frames, or a cut body
	statusMismatch  = "mismatch"  // output differs from the in-process reference
	statusError     = "error"     // transport failure, other status, failed job
)

// Response headers and trailers the benchmark reads.
const (
	headerFrames     = "X-Vbr-Frames"
	headerWorker     = "X-Vbr-Worker"
	trailerHMavar    = "X-Vbr-Hhat-Mavar"
	trailerHMavarErr = "X-Vbr-Hhat-Mavar-Err"
)

// jobResult holds the fields of a finished job's queue.Result that the
// reference recomputation checks.
type jobResult struct {
	TotalBytes, LostBytes, Pl, PlWES, MaxBacklog float64
}

// sample is what the client saw of one request.
type sample struct {
	req     request
	status  string
	err     string
	ttfb    time.Duration // request sent → first body byte (jobs: of the poll response carrying the result)
	latency time.Duration // request sent → last byte (jobs: → observed done)
	frames  int           // frames received (jobs: frames simulated)
	want    int           // X-Vbr-Frames
	digest  uint64        // maphash of the frames' little-endian float64 bits
	bytes   int64         // response body bytes, polls included
	worker  string        // X-Vbr-Worker
	hhat    float64       // MAVAR Ĥ (NaN when absent)
	hhatErr float64       // its calibrated 95% half-width
	// trailers is set when Ĥ came from the response's own trailers.
	trailers bool
	result   *jobResult
	jobWait  time.Duration // accepted → first poll not "queued"
}

func (s *sample) failed() bool { return s.status != statusOK }

func (s *sample) fail(status string, err error) {
	s.status = status
	if err != nil {
		s.err = err.Error()
	}
}

// client sends requests to one base URL. Its transport holds at most
// conns connections, so a closed loop of conns clients never opens more.
type client struct {
	hc   *http.Client
	base string
	seed maphash.Seed
	poll time.Duration // job status poll period
}

func newClient(base string, conns int, seed maphash.Seed) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, base: base, seed: seed, poll: 5 * time.Millisecond}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends r and reads its whole response (for a job, polls until the
// job ends), recording timings and a digest of the frames.
func (c *client) do(ctx context.Context, r request) sample {
	s := sample{req: r, status: statusOK, hhat: math.NaN(), hhatErr: math.NaN()}
	if r.kind == kindJob {
		c.doJob(ctx, &s)
	} else {
		c.doTrace(ctx, &s)
	}
	return s
}

// firstByte times the first body byte of a response.
type firstByte struct {
	r     io.Reader
	start time.Time
	ttfb  time.Duration
	n     int64
}

func (f *firstByte) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && f.n == 0 {
		f.ttfb = time.Since(f.start)
	}
	f.n += int64(n)
	return n, err
}

func (c *client) doTrace(ctx context.Context, s *sample) {
	r := s.req
	start := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, r.method, c.base+r.path, nil)
	if err != nil {
		s.fail(statusError, err)
		return
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		s.fail(statusError, err)
		return
	}
	defer resp.Body.Close()
	s.worker = resp.Header.Get(headerWorker)
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		s.latency = time.Since(start)
		if resp.StatusCode == http.StatusServiceUnavailable {
			s.fail(statusRefused, nil)
		} else {
			s.fail(statusError, fmt.Errorf("status %d", resp.StatusCode))
		}
		return
	}
	s.want, _ = strconv.Atoi(resp.Header.Get(headerFrames))
	fb := &firstByte{r: resp.Body, start: start}
	h := maphash.Hash{}
	h.SetSeed(c.seed)
	if r.format == "bin" {
		err = readBinary(fb, &h, s)
	} else {
		err = readNDJSON(fb, &h, s)
	}
	s.latency = time.Since(start)
	s.ttfb, s.bytes, s.digest = fb.ttfb, fb.n, h.Sum64()
	if err != nil {
		s.fail(statusTruncated, err)
		return
	}
	if s.want == 0 || s.frames < s.want {
		s.fail(statusTruncated, fmt.Errorf("%d of %d frames", s.frames, s.want))
		return
	}
	hhat, herr := strconv.ParseFloat(resp.Trailer.Get(trailerHMavar), 64)
	e, eerr := strconv.ParseFloat(resp.Trailer.Get(trailerHMavarErr), 64)
	if herr == nil && eerr == nil {
		s.hhat, s.hhatErr, s.trailers = hhat, e, true
	}
}

// readBinary hashes little-endian float64 frames as they arrive.
func readBinary(r io.Reader, h *maphash.Hash, s *sample) error {
	buf := make([]byte, 64<<10)
	var total int64
	for {
		n, err := r.Read(buf)
		h.Write(buf[:n])
		total += int64(n)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
	}
	s.frames = int(total / 8)
	if total%8 != 0 {
		return fmt.Errorf("body of %d bytes is not whole frames", total)
	}
	return nil
}

// readNDJSON parses one number per line and hashes its float64 bits, so
// the digest checks values, not their spelling.
func readNDJSON(r io.Reader, h *maphash.Hash, s *sample) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var le [8]byte
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if line[len(line)-1] != '\n' {
				return fmt.Errorf("frame %d: unterminated line", s.frames)
			}
			f, perr := strconv.ParseFloat(string(line[:len(line)-1]), 64)
			if perr != nil {
				return fmt.Errorf("frame %d: %w", s.frames, perr)
			}
			binary.LittleEndian.PutUint64(le[:], math.Float64bits(f))
			h.Write(le[:])
			s.frames++
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// jobView is the part of the /v1/jobs/{id} body the client reads.
type jobView struct {
	ID     string     `json:"id"`
	State  string     `json:"state"`
	Error  string     `json:"error"`
	Result *jobResult `json:"result"`
}

func (c *client) doJob(ctx context.Context, s *sample) {
	r := s.req
	start := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, r.method, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		s.fail(statusError, err)
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		s.fail(statusError, err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.bytes = int64(len(body))
	switch {
	case err != nil:
		s.fail(statusTruncated, err)
		return
	case resp.StatusCode == http.StatusServiceUnavailable:
		s.latency = time.Since(start)
		s.fail(statusRefused, nil)
		return
	case resp.StatusCode != http.StatusAccepted:
		s.fail(statusError, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body)))
		return
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil || v.ID == "" {
		s.fail(statusError, fmt.Errorf("accept body %q: %v", body, err))
		return
	}
	accepted := time.Now()
	t := time.NewTicker(c.poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			s.fail(statusError, ctx.Err())
			return
		case <-t.C:
		}
		v, fb, err := c.pollJob(ctx, v.ID, start)
		s.bytes += fb.n
		if err != nil {
			s.fail(statusError, err)
			return
		}
		if s.jobWait == 0 && v.State != "queued" {
			s.jobWait = time.Since(accepted)
		}
		switch v.State {
		case "done":
			s.latency = time.Since(start)
			s.ttfb = fb.ttfb
			if v.Result == nil {
				s.fail(statusError, errors.New("done job without a result"))
				return
			}
			s.result, s.frames, s.want = v.Result, r.n, r.n
			return
		case "failed":
			s.fail(statusError, fmt.Errorf("job failed: %s", v.Error))
			return
		}
	}
}

// pollJob reads a job's status; the returned firstByte times its body
// from start.
func (c *client) pollJob(ctx context.Context, id string, start time.Time) (jobView, *firstByte, error) {
	var v jobView
	fb := &firstByte{start: start}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return v, fb, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return v, fb, err
	}
	defer resp.Body.Close()
	fb.r = resp.Body
	body, err := io.ReadAll(fb)
	if err != nil {
		return v, fb, err
	}
	if resp.StatusCode != http.StatusOK {
		return v, fb, fmt.Errorf("job poll status %d", resp.StatusCode)
	}
	return v, fb, json.Unmarshal(body, &v)
}

// runLoad drives p's request sequence as a closed loop: each of the
// clients sends its next request only once its previous one has ended,
// taking indices from one shared counter. No request starts after dur;
// the run ends when the last one finishes, and the elapsed time covers
// every request counted. Samples come back in sequence order.
func runLoad(ctx context.Context, c *client, p *plan, clients int, dur time.Duration) ([]sample, time.Duration) {
	var next atomic.Int64
	per := make([][]sample, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Since(start) < dur && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				per[k] = append(per[k], c.do(ctx, p.request(i)))
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].req.index < all[j].req.index })
	return all, elapsed
}
