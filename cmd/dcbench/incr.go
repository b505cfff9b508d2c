package main

// The -incr sweep measures incremental re-verification end to end. Each row
// is one scripted edit of an n-process token ring: the editor-loop path
// (diff the revisions, repair the cached transition graphs in place,
// re-check only if the edit reaches the verdict) races the from-scratch
// path (fresh compile, fresh exploration). Verdicts are asserted identical;
// a divergence fails the run. `make bench-incr` records the sweep in
// BENCH_incr.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"detcorr/internal/explore"
	"detcorr/internal/explore/difftest"
	"detcorr/internal/flow"
	"detcorr/internal/serve"
	"detcorr/internal/serve/api"
	"detcorr/internal/state"
)

// incrRow is one benchmark line of BENCH_incr.json. IncrMS is the whole
// incremental lane; CompileMS and ReverdictMS split it into compiling the
// new revision versus the diff/repair/re-verdict pipeline —
// a service with the revision already registered (dcserved /v1/revise)
// pays only the latter. MigrateMS is the part of ReverdictMS that moves
// the cached graphs onto the new revision (explore.MigrateProgram: the
// repairs and rebinds).
type incrRow struct {
	Bench       string   `json:"bench"`
	Edit        string   `json:"edit"`
	Check       string   `json:"check"`
	Affected    []string `json:"affected_preds"`
	Preserved   bool     `json:"preserved"`
	Repaired    int      `json:"graphs_repaired"`
	FullMS      float64  `json:"full_ms"`
	IncrMS      float64  `json:"incr_ms"`
	CompileMS   float64  `json:"compile_ms"`
	ReverdictMS float64  `json:"reverdict_ms"`
	MigrateMS   float64  `json:"migrate_ms"`
	Speedup     float64  `json:"speedup"`
	Verdict     string   `json:"verdict"`
}

// incrBench is one scripted edit: old source, new source, and the verdict
// to measure across the revision.
type incrBench struct {
	bench, edit string
	oldSrc      string
	newSrc      string
	req         api.Request
}

// mustEdit is strings.Replace that fails loudly when the anchor is missing,
// so a source-generator change cannot silently turn an edit into a no-op.
func mustEdit(src, old, new string) (string, error) {
	if !strings.Contains(src, old) {
		return "", fmt.Errorf("edit anchor %q not in source", old)
	}
	return strings.Replace(src, old, new, 1), nil
}

// runIncr sweeps the incremental re-verification benchmarks over the
// n-process, K=n token ring (and its watched variant).
func runIncr(n int) error {
	ring := difftest.RingSource(n, n)
	watched := difftest.RingWatchedSource(n, n)
	corrects := api.Request{Check: api.CheckCorrects, Z: "Legit", X: "Legit"}

	edits := []struct {
		bench, edit, src, old, new string
	}{
		// The headline row: a watchdog-guard tweak lands outside every ring
		// predicate's cone, so the corrector verdict is preserved outright —
		// the incremental path never re-explores.
		{"ring_watched_" + fmt.Sprint(n), "watchdog-guard", watched,
			"action mon.watch :: x0 == 0 & !alarm", "action mon.watch :: x0 == 1 & !alarm"},
		// A single-guard tweak inside the cone: the graph is repaired edge
		// by edge, and the verdict re-decided on the repaired graph.
		{"ring_" + fmt.Sprint(n), "guard-tweak", ring,
			"action move1 :: x1 != x0", "action move1 :: !(!(x1 != x0))"},
		{"ring_" + fmt.Sprint(n), "assign-change", ring,
			"x0 := (x0 + 1)", "x0 := (x0 + 2)"},
		{"ring_" + fmt.Sprint(n), "action-add", ring,
			"\nfault corrupt0",
			fmt.Sprintf("\naction nudge1 :: x1 != x0 -> x1 := x0\n\nfault corrupt0")},
		{"ring_" + fmt.Sprint(n), "action-remove", ring,
			fmt.Sprintf("action move%d :: x%d != x%d -> x%d := x%d\n", n-1, n-1, n-2, n-1, n-2), ""},
	}

	enc := json.NewEncoder(os.Stdout)
	for _, e := range edits {
		newSrc, err := mustEdit(e.src, e.old, e.new)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", e.bench, e.edit, err)
		}
		row, err := incrMeasure(incrBench{e.bench, e.edit, e.src, newSrc, corrects})
		if err != nil {
			return fmt.Errorf("%s/%s: %w", e.bench, e.edit, err)
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

// incrMeasure warms the caches on the old revision, then times the
// incremental pipeline against a from-scratch rebuild of the new revision.
func incrMeasure(b incrBench) (*incrRow, error) {
	ctx := context.Background()

	// Warm state: the old revision has been checked once, as in an editor
	// session or a dcserved registry.
	old, err := serve.LoadSource(b.oldSrc)
	if err != nil {
		return nil, err
	}
	warmReq := b.req
	warmReq.Program = b.oldSrc
	oldResp, err := serve.Eval(ctx, old, warmReq)
	if err != nil {
		return nil, err
	}

	// Incremental path: diff, migrate/repair the cached graphs, preserve or
	// re-check. This is exactly the dctl watch / dcserved /v1/revise
	// pipeline.
	incrReq := b.req
	incrReq.Program = b.newSrc
	start := time.Now()
	f, err := serve.LoadSource(b.newSrc)
	if err != nil {
		return nil, err
	}
	compileDur := time.Since(start)
	plan := flow.PlanRepair(old.AST, f.AST)
	im := flow.AffectedBy(old.AST, f.AST)
	resolve := func(initName string) (state.Predicate, bool) {
		if initName == state.True.String() {
			return state.True, true
		}
		if plan.SamePreds[initName] {
			if p, ok := old.Pred(initName); ok {
				return p, true
			}
		}
		return state.Predicate{}, false
	}
	migrateStart := time.Now()
	st := explore.MigrateProgram(old.Program, f.Program, plan.Graph, resolve)
	migrateDur := time.Since(migrateStart)
	var incrResp *api.Response
	preserved := serve.Preservable(incrReq, oldResp, plan, im, f)
	if preserved {
		incrResp = oldResp
	} else {
		incrResp, err = serve.Eval(ctx, f, incrReq)
		if err != nil {
			return nil, err
		}
	}
	incrDur := time.Since(start)

	// From-scratch path: a fresh compile shares nothing with the warm state
	// (distinct program identity), so this explores from zero.
	start = time.Now()
	ff, err := serve.LoadSource(b.newSrc)
	if err != nil {
		return nil, err
	}
	fullReq := b.req
	fullReq.Program = b.newSrc
	fullResp, err := serve.Eval(ctx, ff, fullReq)
	if err != nil {
		return nil, err
	}
	fullDur := time.Since(start)

	if incrResp.Verdict != fullResp.Verdict {
		return nil, fmt.Errorf("verdicts diverge: incremental %q, from-scratch %q",
			incrResp.Verdict, fullResp.Verdict)
	}

	return &incrRow{
		Bench:       b.bench,
		Edit:        b.edit,
		Check:       b.req.Check,
		Affected:    append([]string{}, im.AffectedPreds...),
		Preserved:   preserved,
		Repaired:    st.Rebound + st.Repaired,
		FullMS:      float64(fullDur.Microseconds()) / 1e3,
		IncrMS:      float64(incrDur.Microseconds()) / 1e3,
		CompileMS:   float64(compileDur.Microseconds()) / 1e3,
		ReverdictMS: float64((incrDur - compileDur).Microseconds()) / 1e3,
		MigrateMS:   float64(migrateDur.Microseconds()) / 1e3,
		Speedup:     float64(fullDur) / float64(incrDur),
		Verdict:     incrResp.Verdict,
	}, nil
}
