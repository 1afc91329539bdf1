package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer during the traced run.
//
// A span's children are the calls its own call makes internally. The
// benchmark cannot time inside program code, so each child is a replay
// of that inner work on the same inputs, timed by itself right after
// the parent (a layer's call is timed whole, then the calls beneath it
// are replayed one by one). Children therefore need not lie inside
// their parent's interval, and a span's self time is its duration
// minus the durations of its children.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Req    int    `json:"req"`    // index of the request in the sequence
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the spans of one traced run in memory. It is used
// from one goroutine. A nil recorder records nothing, so the same
// replay code runs untraced to measure what tracing costs.
type recorder struct {
	epoch time.Time
	req   int
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under parent and returns its id (-1 when r is nil).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Req: r.req, Name: name, Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
}

// rename renames span id.
func (r *recorder) rename(id int, name string) {
	if r == nil {
		return
	}
	r.spans[id].Name = name
}

// selfTimes returns each span's duration minus its children's.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
