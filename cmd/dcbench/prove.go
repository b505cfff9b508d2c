package main

// The -prove sweep records what the exploration-free prover costs on the
// queries the decision ladder and the benchmark workloads ask it: ring
// convergence (the rank synthesis behind `check: prove`), the ladder's
// component attempts on rings of 3 to 8 machines, and the closure, span
// and safeness obligations of the example systems. Every operation starts
// from a fresh prove.System, as a cold dctl call does. Each row runs its
// operation once to warm up, then n times, and prints one JSON line: the
// verdict, time and allocations per operation. Rows run under a deadline;
// one that reaches it reports the verdict "deadline". `make bench-prove`
// records the sweep in BENCH_prove.json.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"detcorr/internal/explore/difftest"
	"detcorr/internal/gcl"
	"detcorr/internal/prove"
	"detcorr/internal/serve/corpus"
)

// proveDeadline bounds every row's operation; the ring-5 to ring-8
// corrector attempts do not finish within it. The ring-5 convergence row
// runs under cancelDeadline instead, timing how promptly a cancelled rank
// synthesis returns.
const (
	proveDeadline  = 2 * time.Second
	cancelDeadline = 50 * time.Millisecond
)

// proveRow is one benchmark line of BENCH_prove.json.
type proveRow struct {
	Name        string  `json:"name"`
	Verdict     string  `json:"verdict"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// proveQuery asks one question of a fresh system and reports its verdict.
type proveQuery func(ctx context.Context, sys *prove.System) (string, error)

type proveBench struct {
	name     string
	src      string
	deadline time.Duration
	query    proveQuery
}

// runProve runs every row n times and prints one JSON line per row.
func runProve(n int) error {
	enc := json.NewEncoder(os.Stdout)
	for _, b := range proveBenches() {
		row, err := proveMeasure(b, n)
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

func proveBenches() []proveBench {
	convergence := func(u, goal string) proveQuery {
		return func(ctx context.Context, sys *prove.System) (string, error) {
			rep, err := prove.ProveConvergenceCtx(ctx, sys, u, goal, nil)
			if err != nil {
				return "", err
			}
			return rep.Verdict.String(), nil
		}
	}
	component := func(kind string) proveQuery {
		return func(ctx context.Context, sys *prove.System) (string, error) {
			ok, err := prove.ProveComponentCtx(ctx, sys, kind, "Legit", "Legit", "true")
			if err != nil || !ok {
				return "not proved", err
			}
			return "proved", nil
		}
	}
	report := func(f func(ctx context.Context, sys *prove.System) (*prove.Report, error)) proveQuery {
		return func(ctx context.Context, sys *prove.System) (string, error) {
			rep, err := f(ctx, sys)
			if err != nil {
				return "", err
			}
			return rep.Verdict.String(), nil
		}
	}
	benches := []proveBench{
		{"ProveConvergenceRing3", difftest.RingSource(3, 3), proveDeadline, convergence("true", "Legit")},
		{"ProveConvergenceRing4", difftest.RingSource(4, 4), proveDeadline, convergence("true", "Legit")},
		{"ProveConvergenceRing5Deadline", difftest.RingSource(5, 5), cancelDeadline, convergence("true", "Legit")},
	}
	for n := 3; n <= 8; n++ {
		benches = append(benches, proveBench{fmt.Sprintf("DetectsRing%d", n), difftest.RingSource(n, n), proveDeadline, component("detector")})
	}
	for n := 3; n <= 8; n++ {
		benches = append(benches, proveBench{fmt.Sprintf("CorrectsRing%d", n), difftest.RingSource(n, n), proveDeadline, component("corrector")})
	}
	return append(benches,
		proveBench{"ClosureRing7", difftest.RingSource(7, 7), proveDeadline, report(func(ctx context.Context, sys *prove.System) (*prove.Report, error) {
			return prove.ProveClosureCtx(ctx, sys, "Legit")
		})},
		proveBench{"SafenessMemaccess", corpus.Memaccess, proveDeadline, report(func(ctx context.Context, sys *prove.System) (*prove.Report, error) {
			return prove.ProveSafenessCtx(ctx, sys, "U1", "Z1p", "X1")
		})},
		proveBench{"SpanInferredMemaccess", corpus.Memaccess, proveDeadline, report(func(ctx context.Context, sys *prove.System) (*prove.Report, error) {
			return prove.ProveSpanClosureCtx(ctx, sys, "S", "")
		})},
		proveBench{"ConvergenceCountdown", corpus.Countdown, proveDeadline, convergence("true", "Zero")},
	)
}

// proveOnce builds a fresh system and asks the row's question under its
// deadline.
func proveOnce(b proveBench, ast *gcl.FileAST) (string, error) {
	sys, err := prove.NewSystem(ast)
	if err != nil {
		return "", err
	}
	ctx, cancel := context.WithTimeout(context.Background(), b.deadline)
	defer cancel()
	verdict, err := b.query(ctx, sys)
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline", nil
	}
	return verdict, err
}

func proveMeasure(b proveBench, runs int) (*proveRow, error) {
	ast, err := gcl.Parse(b.src)
	if err != nil {
		return nil, err
	}
	if _, err := proveOnce(b, ast); err != nil {
		return nil, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	verdict := ""
	for i := 0; i < runs; i++ {
		if verdict, err = proveOnce(b, ast); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return &proveRow{
		Name:        b.name,
		Verdict:     verdict,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(runs),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(runs),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
	}, nil
}
