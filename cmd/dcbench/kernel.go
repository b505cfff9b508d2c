package main

// The -kernel sweep records what one explored state costs: graph builds,
// deadlock hunts, a predicate sweep and a fair-cycle search over a built
// graph, and the raw kernel step. Each row runs its operation once to warm
// up, then n times, and prints one JSON line: the states (and edges) one
// operation covers, its time and allocations, and states per second. The
// root package's benchmarks of the same names (`go test -bench`) measure
// the same operations. `make bench-kernel` records the sweep in
// BENCH_kernel.json.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"detcorr/internal/byzagree"
	"detcorr/internal/explore"
	"detcorr/internal/explore/difftest"
	"detcorr/internal/fault"
	"detcorr/internal/gcl"
	"detcorr/internal/guarded"
	"detcorr/internal/state"
	"detcorr/internal/tokenring"
)

// kernelRow is one benchmark line of BENCH_kernel.json. Edges counts the
// transitions one operation emits into a graph or a buffer, or, for a
// fair-cycle search, the edges of the graph it searches; it is 0 for a
// SetOf sweep, which emits none, and for a hunt, which builds no graph.
type kernelRow struct {
	Name         string  `json:"name"`
	States       int     `json:"states"`
	Edges        int     `json:"edges"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
	StatesPerSec float64 `json:"states_per_sec"`
}

// kernelOp is one measured operation; it reports the states and edges it
// covered.
type kernelOp func() (states, edges int, err error)

// kernelBench is one row: setup runs once, untimed, and returns the
// operation.
type kernelBench struct {
	name  string
	setup func() (kernelOp, error)
}

// runKernel runs every row n times and prints one JSON line per row.
func runKernel(n int) error {
	enc := json.NewEncoder(os.Stdout)
	for _, b := range kernelBenches() {
		row, err := kernelMeasure(b, n)
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}

func kernelBenches() []kernelBench {
	return []kernelBench{
		{"BuildRing7Seq", func() (kernelOp, error) {
			return buildOp(tokenring.MustNew(7, 7).Ring), nil
		}},
		{"BuildByzMaskingSeq", func() (kernelOp, error) {
			return buildOp(byzagree.MustNew().Masking), nil
		}},
		{"FindDeadlockRing7K8", func() (kernelOp, error) {
			f, err := gcl.ParseAndCompile(difftest.RingSource(7, 8))
			if err != nil {
				return nil, err
			}
			return huntOp(f.Program, nil), nil
		}},
		{"FindDeadlockRing7Faults", func() (kernelOp, error) {
			f, err := gcl.ParseAndCompile(difftest.RingSource(7, 7))
			if err != nil {
				return nil, err
			}
			prog, fair, err := fault.Compose(f.Program, f.Faults)
			if err != nil {
				return nil, err
			}
			return huntOp(prog, fair), nil
		}},
		{"SetOfLegitRing6K8", func() (kernelOp, error) {
			f, err := gcl.ParseAndCompile(difftest.RingSource(6, 8))
			if err != nil {
				return nil, err
			}
			g, err := explore.Build(f.Program, state.True, explore.Options{Parallelism: 1})
			if err != nil {
				return nil, err
			}
			legit := f.Preds["Legit"]
			legit.Name = "" // unnamed, so SetOf sweeps the graph every time
			return func() (int, int, error) {
				g.SetOf(legit)
				return g.NumNodes(), 0, nil
			}, nil
		}},
		{"FairCycleRing6K8", func() (kernelOp, error) {
			f, err := gcl.ParseAndCompile(difftest.RingSource(6, 8))
			if err != nil {
				return nil, err
			}
			g, err := explore.Build(f.Program, state.True, explore.Options{Parallelism: 1})
			if err != nil {
				return nil, err
			}
			ill := g.SetOf(state.Not(f.Preds["Legit"]))
			all := func(int) bool { return true }
			return func() (int, int, error) {
				// A RestrictFair view has the graph's edges and a fresh
				// memo, so every run searches instead of hitting the memo.
				if comp := g.RestrictFair(all).FairCycle(ill); comp != nil {
					return 0, 0, fmt.Errorf("fair cycle outside Legit: %d states", len(comp))
				}
				return g.NumNodes(), g.NumEdges(), nil
			}, nil
		}},
		{"KernelStepRing7Native", func() (kernelOp, error) {
			p := tokenring.MustNew(7, 7).Ring
			sc := guarded.Compile(p).NewScratch()
			total, _ := p.Schema().NumStates()
			var buf []uint64
			return func() (int, int, error) {
				edges := 0
				for idx := uint64(0); idx < total; idx++ {
					buf = sc.Step(idx, buf[:0])
					edges += len(buf)
				}
				return int(total), edges, nil
			}, nil
		}},
	}
}

// buildOp builds the full state space on one worker.
func buildOp(p *guarded.Program) kernelOp {
	return func() (int, int, error) {
		g, err := explore.Build(p, state.True, explore.Options{Parallelism: 1})
		if err != nil {
			return 0, 0, err
		}
		return g.NumNodes(), g.NumEdges(), nil
	}
}

// huntOp hunts a deadlock from every state of a program that has none.
func huntOp(p *guarded.Program, fair []bool) kernelOp {
	total, _ := p.Schema().NumStates()
	return func() (int, int, error) {
		_, found, err := explore.FindDeadlock(p, state.True, explore.ScanOptions{Fair: fair})
		if err != nil {
			return 0, 0, err
		}
		if found {
			return 0, 0, fmt.Errorf("unexpected deadlock")
		}
		return int(total), 0, nil
	}
}

func kernelMeasure(b kernelBench, runs int) (*kernelRow, error) {
	op, err := b.setup()
	if err != nil {
		return nil, err
	}
	if _, _, err := op(); err != nil {
		return nil, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	states, edges := 0, 0
	for i := 0; i < runs; i++ {
		if states, edges, err = op(); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	perOp := float64(elapsed.Nanoseconds()) / float64(runs)
	return &kernelRow{
		Name:         b.name,
		States:       states,
		Edges:        edges,
		NsPerOp:      perOp,
		AllocsPerOp:  float64(after.Mallocs-before.Mallocs) / float64(runs),
		BytesPerOp:   float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
		StatesPerSec: float64(states) / (perOp / 1e9),
	}, nil
}
