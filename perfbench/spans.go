package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapreduce"
)

// recorder keeps the benchmark's own spans in memory: one around every HTTP
// call and every set-up call, in the traced run only. A nil recorder records
// nothing, so the untraced run pays for no span work.
type recorder struct {
	base time.Time
	ids  atomic.Uint64
	mu   sync.Mutex
	recs []benchSpan
}

// benchSpan is one benchmark span. Op groups the spans of one operation;
// Trace is the X-Strata-Trace id the call carried, which joins it to the
// daemon's own spans.
type benchSpan struct {
	Name   string        `json:"name"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Op     uint64        `json:"op"`
	Trace  string        `json:"trace,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// newID returns a fresh span or operation id; 0 when not recording.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// record stores one finished span and returns its id.
func (r *recorder) record(name string, op, parent uint64, trace string, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	id := r.newID()
	r.mu.Lock()
	r.recs = append(r.recs, benchSpan{Name: name, ID: id, Parent: parent, Op: op, Trace: trace,
		Start: start.Sub(r.base), End: end.Sub(r.base)})
	r.mu.Unlock()
	return id
}

// timed runs fn inside a span and returns its duration.
func (r *recorder) timed(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	r.record(name, r.newID(), 0, "", start, end)
	return end.Sub(start), err
}

func (r *recorder) spans() []benchSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]benchSpan(nil), r.recs...)
}

// writeTrace writes the benchmark's spans and the program's spans to path as
// JSON lines, each tagged with its source.
func writeTrace(path string, bench []benchSpan, program []mapreduce.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range bench {
		if err := enc.Encode(struct {
			Source string `json:"source"`
			benchSpan
		}{"bench", s}); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range program {
		if err := enc.Encode(struct {
			Source string `json:"source"`
			mapreduce.Span
		}{"program", s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// unionLen is the total length covered by the intervals.
func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total time.Duration
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.lo, parent.lo), min(c.hi, parent.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	return parent.hi - parent.lo - unionLen(clipped)
}

// spanInterval is a program span's extent.
func spanInterval(s mapreduce.Span) interval { return interval{s.Start, s.Start + s.Wall} }
