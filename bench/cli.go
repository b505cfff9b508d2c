package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"detcorr/internal/serve/api"
)

// cliCall is one dctl verdict invocation of a closed-loop workload.
type cliCall struct {
	id   string
	args []string
}

// cliPlan is the seeded input of a closed-loop dctl workload: one program
// file per catalogue program, and one call per item.
type cliPlan struct {
	files map[string]string // path -> source
	order []string          // paths in catalogue order
	calls []cliCall
}

func newCLIPlan(rng *rand.Rand, dir string, items []item) *cliPlan {
	nm := newNamer(rng)
	p := &cliPlan{files: map[string]string{}}
	for _, it := range items {
		req := it.render(nm.stable(it.prog))
		path := filepath.Join(dir, sanitize(it.prog.key())+".gcl")
		if _, ok := p.files[path]; !ok {
			p.order = append(p.order, path)
		}
		p.files[path] = req.Program
		p.calls = append(p.calls, cliCall{id: it.id(), args: dctlArgs(path, req)})
	}
	return p
}

// round is one round's calls in a seeded order.
func (p *cliPlan) round(rng *rand.Rand) []cliCall {
	out := make([]cliCall, len(p.calls))
	for i, j := range rng.Perm(len(p.calls)) {
		out[i] = p.calls[j]
	}
	return out
}

// runCLI is the closed loop shared by oneshot-mix and large-space: one
// client runs cold `dctl verdict` processes back to back, each item once
// per round in a seeded order, for whole rounds until the run's time is
// spent. Whole rounds keep every item's share of the samples fixed, so
// the percentiles do not move with the seed or the machine's speed.
func runCLI(ctx context.Context, e *env, items []item) (*report, error) {
	dir := filepath.Join(e.work, "cli")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	plan := newCLIPlan(e.rng, dir, items)

	// Set-up: write the seeded sources and lint each program once, the
	// first touch of a session before any verdict.
	setup := func() error {
		for _, path := range plan.order {
			if err := os.WriteFile(path, []byte(plan.files[path]), 0o644); err != nil {
				return err
			}
		}
		for _, path := range plan.order {
			r, err := runDctl(ctx, e.dctl, []string{"lint", path})
			if err != nil {
				return err
			}
			if r.exit != 0 {
				return fmt.Errorf("dctl lint %s: exit %d: %s", path, r.exit, r.stdout)
			}
		}
		return nil
	}
	setupS, err := repeatSetup(setup, nil, e.scaled(warmUpShare))
	if err != nil {
		return nil, err
	}

	rep := newReport()
	var lat, rounds []float64
	var peakKiB int64
	start := time.Now()
	for moreRounds(start, rounds, e.seconds) {
		roundStart := time.Now()
		for _, c := range plan.round(e.rng) {
			rep.attempt()
			r, err := runDctl(ctx, e.dctl, c.args)
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				rep.fail(fmt.Errorf("%s: %w", c.id, err))
				continue
			}
			var resp api.Response
			if err := json.Unmarshal(r.stdout, &resp); err != nil {
				rep.fail(fmt.Errorf("%s: exit %d, no verdict: %s", c.id, r.exit, r.stderr))
				continue
			}
			if resp.ExitCode() != r.exit {
				rep.wrong(fmt.Errorf("%s: exit %d for verdict %s", c.id, r.exit, resp.Verdict))
			}
			rep.checkVerdict(e.golden, c.id, resp.Verdict)
			lat = append(lat, ms(r.wall))
			peakKiB = max(peakKiB, r.maxRSSk)
		}
		rounds = append(rounds, time.Since(roundStart).Seconds())
	}

	rep.set("setup_s", setupS, "s")
	rep.set("wall_s", median(rounds), "s")
	rep.latencies(lat)
	rep.set("peak_rss_mib", float64(peakKiB)/1024, "MiB")
	rep.notef("%d rounds of %d dctl calls in %.1f s", len(rounds), len(plan.calls), time.Since(start).Seconds())
	return rep, nil
}

// moreRounds reports whether a closed loop should start another whole
// round: it stops once the time spent plus half a mean round reaches the
// run's length, so runs end as near that length as whole rounds allow.
func moreRounds(start time.Time, rounds []float64, length time.Duration) bool {
	if len(rounds) == 0 {
		return true
	}
	total := 0.0
	for _, r := range rounds {
		total += r
	}
	return time.Since(start).Seconds()+total/float64(len(rounds))/2 < length.Seconds()
}

// Set-up is repeated: first untimed for warmUpShare of the run, since the
// first second or two of work after the machine idles runs measurably
// slower, then setupRuns times timed; setup_s is the median of those.
const (
	warmUpShare = 0.08
	setupRuns   = 5
)

// repeatSetup warms up with setup for warm, then times it setupRuns times
// and returns the median in seconds. teardown, when non-nil, undoes a
// set-up between repetitions (not after the last one) and is not timed.
func repeatSetup(setup, teardown func() error, warm time.Duration) (float64, error) {
	once := func() (float64, error) {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		return time.Since(start).Seconds(), nil
	}
	undo := func() error {
		if teardown == nil {
			return nil
		}
		if err := teardown(); err != nil {
			return fmt.Errorf("set-up teardown: %w", err)
		}
		return nil
	}
	for start := time.Now(); time.Since(start) < warm; {
		if _, err := once(); err != nil {
			return 0, err
		}
		if err := undo(); err != nil {
			return 0, err
		}
	}
	var ts []float64
	for i := 0; i < setupRuns; i++ {
		t, err := once()
		if err != nil {
			return 0, err
		}
		ts = append(ts, t)
		if i < setupRuns-1 {
			if err := undo(); err != nil {
				return 0, err
			}
		}
	}
	return median(ts), nil
}
