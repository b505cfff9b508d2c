package main

// The -slice sweep measures the cone-of-influence slice rung end to end:
// for each composed benchmark system it runs the same verdict twice — once
// through the plain graph checks of spec (they explore the full product
// space) and once through the decision ladder of internal/verify (where the
// slice rung can serve the verdict from the cone's state space) — and
// prints one JSON line per system with both wall times and state counts.
// The verdicts are asserted identical; a divergence fails the run. `make
// bench-slice` records the sweep in BENCH_slice.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"detcorr/internal/explore"
	"detcorr/internal/explore/difftest"
	"detcorr/internal/flow"
	"detcorr/internal/gcl"
	"detcorr/internal/serve/api"
	"detcorr/internal/spec"
	"detcorr/internal/state"
	"detcorr/internal/verify"
)

// sliceRow is one benchmark line of BENCH_slice.json.
type sliceRow struct {
	Bench        string  `json:"bench"`
	Check        string  `json:"check"`
	Target       string  `json:"target"`
	FullStates   float64 `json:"full_states"`
	SlicedStates float64 `json:"sliced_states"`
	FullMS       float64 `json:"full_ms"`
	SlicedMS     float64 `json:"sliced_ms"`
	Speedup      float64 `json:"speedup"`
	Verdict      string  `json:"verdict"`
}

// sliceBench is one composed system with the verdict to measure on it.
type sliceBench struct {
	name   string
	src    string
	check  string // "converges" or "closed"
	target string
}

// runSlice sweeps the slicing benchmarks. n sizes the watched token ring
// (n machines with counters 0..n-1, plus the watchdog detector).
func runSlice(n int) error {
	benches := []sliceBench{
		{"ring_watched_" + fmt.Sprint(n), difftest.RingWatchedSource(n, n), "converges", "Legit"},
		{"memaccess_pair", difftest.MemaccessPairSource, "closed", "FS"},
	}
	enc := json.NewEncoder(os.Stdout)
	for _, b := range benches {
		row, err := sliceMeasure(b)
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

func sliceMeasure(b sliceBench) (*sliceRow, error) {
	run := func(ladder bool) (time.Duration, string, *gcl.File, error) {
		f, err := gcl.ParseAndCompile(b.src)
		if err != nil {
			return 0, "", nil, err
		}
		p, ok := f.Pred(b.target)
		if !ok {
			return 0, "", nil, fmt.Errorf("no predicate %q", b.target)
		}
		req := api.Request{Program: b.src, Check: api.CheckClosure, Invariant: b.target}
		if b.check == "converges" {
			req = api.Request{Program: b.src, Check: api.CheckConvergence, Invariant: "true", Goal: b.target}
		} else if b.check != "closed" {
			return 0, "", nil, fmt.Errorf("unknown check %q", b.check)
		}
		start := time.Now()
		var verdict string
		if ladder {
			v := verify.New(f, nil)
			resp, _, err := verify.Decide(context.Background(), v, req)
			if err != nil {
				return 0, "", nil, err
			}
			verdict = resp.Detail
			if resp.Verdict == api.VerdictHolds {
				verdict = errString(nil)
			}
			defer v.Evict()
		} else if b.check == "converges" {
			verdict = errString(spec.CheckConverges(f.Program, state.True, p))
		} else {
			verdict = errString(spec.CheckClosed(f.Program, p))
		}
		dur := time.Since(start)
		// Release the graphs so the two measurements never share cache
		// residency (they use distinct program pointers regardless).
		explore.EvictProgram(f.Program)
		return dur, verdict, f, nil
	}

	fullDur, fullVerdict, _, err := run(false)
	if err != nil {
		return nil, err
	}
	slicedDur, slicedVerdict, sf, err := run(true)
	if err != nil {
		return nil, err
	}
	if fullVerdict != slicedVerdict {
		return nil, fmt.Errorf("verdicts diverge: full %s, sliced %s", fullVerdict, slicedVerdict)
	}

	row := &sliceRow{
		Bench:   b.name,
		Check:   b.check,
		Target:  b.target,
		FullMS:  float64(fullDur.Microseconds()) / 1e3,
		Speedup: float64(fullDur) / float64(slicedDur),
		Verdict: verdictWord(fullVerdict),
	}
	row.SlicedMS = float64(slicedDur.Microseconds()) / 1e3
	if sl, err := flow.SliceFile(sf, b.target); err == nil {
		row.FullStates = sl.FullStates
		row.SlicedStates = sl.SlicedStates
	}
	return row, nil
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func verdictWord(verdict string) string {
	if verdict == errString(nil) {
		return "holds"
	}
	return "fails"
}
