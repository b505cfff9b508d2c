// Command bench is the repository's benchmark. It builds dctl and dcserved
// from the checkout, drives them through four workloads, checks every
// verdict against the golden catalogue (golden.json), and prints each
// metric by name and unit, then one JSON result line.
//
// Run it from the repository root through the wrapper, which keeps every
// build product and scratch file under .bench_build/:
//
//	bash bench/run.sh -workload oneshot-mix -seed 1 -seconds 25 -trace 0
//
// or from this directory with go run:
//
//	go run . -workload served-mixed -seed 3
//	go run . -trace 1 -trace-out spans -workload edit-loop
//	go run . -verify
//	go run . -runs 5 -workload large-space
//	go run . -out runs/change -runs 10
//	go run . compare runs/parent runs/change
//
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what a run of one workload needs.
type env struct {
	work           string // scratch directory inside the checkout
	dctl, dcserved string // built binaries
	seed           int64
	rng            *rand.Rand
	seconds        time.Duration
	golden         *goldenFile
	traceOut       string // where the traced run writes its spans ("" = nowhere)
}

// scaled is a share of the run's measuring time.
func (e *env) scaled(share float64) time.Duration {
	return time.Duration(share * float64(e.seconds))
}

// workload is one traffic mix; BENCHMARK.json and README.md say why each
// is there. run measures the end-to-end metrics with tracing off; pass is
// one traced in-process replay of the same inputs, for the per-layer
// metrics.
type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*report, error)
	pass func(t *traceRun) error
}

var workloads = []workload{
	{
		name: "oneshot-mix",
		run:  func(ctx context.Context, e *env) (*report, error) { return runCLI(ctx, e, oneshotItems()) },
		pass: func(t *traceRun) error { return t.cliPass(oneshotItems()) },
	},
	{
		name: "large-space",
		run:  func(ctx context.Context, e *env) (*report, error) { return runCLI(ctx, e, largeItems()) },
		pass: func(t *traceRun) error { return t.cliPass(largeItems()) },
	},
	{name: "served-mixed", run: runServed, pass: (*traceRun).servedPass},
	{name: "edit-loop", run: runEditLoop, pass: (*traceRun).editPass},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all four in turn)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed makes the same inputs")
	seconds := fs.Int("seconds", 25, "measuring time of one run, in seconds")
	trace := fs.Int("trace", 0, "1: replay the workload in-process with spans and report the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the recorded spans to this directory")
	verify := fs.Bool("verify", false, "re-derive every golden verdict through the graph-only path")
	runs := fs.Int("runs", 1, "run each selected workload this many times, seeds seed, seed+1, ...; more than one prints the spread")
	outDir := fs.String("out", "", "append each run's result to <dir>/<workload>.jsonl, for compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if fs.NArg() > 0 {
		if fs.Arg(0) == "compare" && fs.NArg() == 3 {
			if err := runCompare(stdout, fs.Arg(1), fs.Arg(2)); err != nil {
				fmt.Fprintln(stderr, "bench compare:", err)
				return 1
			}
			return 0
		}
		fmt.Fprintln(stderr, "usage: bench [flags] | bench compare <parent-dir> <change-dir>")
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}

	if *verify {
		if err := runVerify(ctx, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, err := findRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
			return 2
		}
	}
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	base := &env{
		work:     filepath.Join(root, ".bench_build", "work"),
		dctl:     filepath.Join(root, ".bench_build", "bin", "dctl"),
		dcserved: filepath.Join(root, ".bench_build", "bin", "dcserved"),
		seconds:  time.Duration(*seconds) * time.Second,
		golden:   g,
		traceOut: *traceOut,
	}
	if *trace == 0 {
		took, err := buildBinaries(ctx, root, filepath.Dir(base.dctl))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "bench: built dctl and dcserved in %.1f s\n", took.Seconds())
	}

	ok := true
	for _, w := range selected {
		var results []result
		for i := 0; i < *runs; i++ {
			e := *base
			e.seed = *seed + int64(i)
			e.rng = rand.New(rand.NewSource(e.seed))
			rep, err := runOne(ctx, w, &e, *trace == 1)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", w.name, e.seed, err)
				return 1
			}
			header := fmt.Sprintf("workload %s  seed %d  trace %d", w.name, e.seed, *trace)
			if err := rep.print(stdout, header); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			if *outDir != "" {
				if err := appendRecord(*outDir, w.name, e.seed, rep.result); err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 1
				}
			}
			ok = ok && rep.Correct
			results = append(results, rep.result)
		}
		if *runs > 1 {
			printSpread(stdout, root, w.name, results)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func runOne(ctx context.Context, w workload, e *env, traced bool) (*report, error) {
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return nil, err
	}
	if traced {
		return traceWorkload(ctx, w, e)
	}
	rep, err := w.run(ctx, e)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	return rep, err
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
