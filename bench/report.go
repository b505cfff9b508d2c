package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict on a run, the last line of
// its standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's result; workers may record outcomes
// concurrently.
type report struct {
	mu sync.Mutex
	result
	problems []string // the first few wrong verdicts and failures
	notes    []string
}

const maxProblems = 8

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) problem(kind string, err error) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, kind+": "+err.Error())
	}
}

// fail records an attempt that got no verdict: a transport error, a
// refusal, a timeout, or a child that could not run.
func (r *report) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Failed++
	r.problem("failed", err)
}

// wrong records a verdict that disagrees with the golden catalogue.
func (r *report) wrong(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Correct = false
	r.problem("WRONG", err)
}

func (r *report) attempt() {
	r.mu.Lock()
	r.Attempted++
	r.mu.Unlock()
}

func (r *report) checkVerdict(g *goldenFile, id, verdict string) {
	if err := g.check(id, verdict); err != nil {
		r.wrong(err)
	}
}

func (r *report) set(name string, v float64, unit string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// latencies sets latency_p50_ms and latency_p90_ms and notes the sample
// count and the highest percentile the samples support, with its value.
func (r *report) latencies(ms []float64) {
	if len(ms) == 0 {
		return
	}
	r.set("latency_p50_ms", median(ms), "ms")
	r.set("latency_p90_ms", quantile(ms, 0.90), "ms")
	if p := supportedPercentile(len(ms)); p > 0 {
		r.notef("latency: %d samples; the highest percentile with at least 10 samples beyond it is p%g = %.2f ms",
			len(ms), p, quantile(ms, p/100))
	} else {
		r.notef("latency: %d samples; no percentile above the median has 10 samples beyond it", len(ms))
	}
}

// print writes the human-readable lines and then the result line.
func (r *report) print(w io.Writer, header string) error {
	fmt.Fprintln(w, header)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "  "+p)
	}
	return r.writeResult(w)
}

func (r *report) writeResult(w io.Writer) error {
	for n, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, m.Value)
		}
	}
	b, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
