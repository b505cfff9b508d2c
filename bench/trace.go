package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around a public function of the layer.
type span struct {
	Name   string `json:"name"`   // <module>.<func>
	Trace  int    `json:"trace"`  // the request the span belongs to
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a request's root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans and counters in memory. A recorder that is off
// records nothing and costs one branch per span, which is how the untraced
// replay runs the same code as the traced one.
type recorder struct {
	on     bool
	t0     time.Time
	spans  []span
	open   []int // stack of open span indices
	trace  int
	counts map[string]float64
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now(), counts: map[string]float64{}}
}

func noop() {}

// add appends a span inside whatever span is open; a span with none open
// is a request of its own.
func (r *recorder) add(name string, start, end int64) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	} else {
		r.trace++
	}
	r.spans = append(r.spans, span{Name: name, Trace: r.trace, Parent: parent, Start: start, End: end})
	return len(r.spans) - 1
}

// begin opens a span and returns the function that closes it. Spans nest:
// the replay is single-threaded, so the innermost open span is the parent.
func (r *recorder) begin(name string) func() {
	if !r.on {
		return noop
	}
	i := r.add(name, r.now(), 0)
	r.open = append(r.open, i)
	return func() {
		r.spans[i].End = r.now()
		r.open = r.open[:len(r.open)-1]
	}
}

// leaf records a finished span that began at start (recorder nanoseconds)
// and ends now.
func (r *recorder) leaf(name string, start int64) {
	if r.on {
		r.add(name, start, r.now())
	}
}

// now is the recorder's clock, in nanoseconds since it started.
func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) count(name string, delta float64) {
	if r.on {
		r.counts[name] += delta
	}
}

// selfTimes sums each span name's self time: its duration minus the part
// its child spans cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range r.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return self
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
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
