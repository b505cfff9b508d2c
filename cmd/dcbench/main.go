// Command dcbench regenerates every experiment table in EXPERIMENTS.md.
//
// Usage:
//
//	dcbench            # run all experiments (E1..E13)
//	dcbench E4 E9      # run selected experiments
//	dcbench -j 0       # explore state spaces with all CPUs
//	dcbench -list      # list experiment ids
//	dcbench -stats     # also print graph-cache and spill counters after the run
//	dcbench -swarm 64  # drive an in-process dcserved with a client swarm
//	dcbench -spill 8   # sweep a spilled scan over the ring-8 state space
//	dcbench -slice 7   # measure cone-of-influence slicing on composed systems
//	dcbench -incr 7    # measure incremental re-verification of scripted edits
//	dcbench -kernel 5  # measure builds, hunts, SetOf and kernel steps, 5 runs each
//
// -swarm N boots the dcserved verdict service on a loopback port and
// replays the deterministic serve corpus from N concurrent clients
// (-swarm-rounds replays each), printing throughput, p50/p99 latency,
// refusal counts, and the graph-cache counters. Every response is checked
// against ground truth; a wrong verdict under load makes the run fail.
//
// -spill n streams the full K^n state space of the n-process token ring
// through explore.Scan at each -spill-budgets memory budget (plus an
// unbudgeted in-RAM baseline unless -spill-baseline=false) and prints one
// JSON line per run: states/sec, peak RSS, bytes spilled, Bloom hit rate.
// `make bench-spill` records the sweep in BENCH_spill.json.
//
// -slice n runs the composed slicing benchmarks — the n-process watched
// token ring and the paired memory-access systems — once full-width and
// once through the cone-of-influence pre-pass, asserting the verdicts are
// identical and printing one JSON line per system with both wall times.
// `make bench-slice` records the sweep in BENCH_slice.json.
//
// -incr n replays scripted edits (watchdog-guard tweak, ring-guard tweak,
// assignment change, action add/remove) against the n-process token ring
// and races the incremental pipeline — revision diff, in-place CSR graph
// repair, verdict preservation — against a from-scratch rebuild, asserting
// identical verdicts and printing one JSON line per edit with both wall
// times. `make bench-incr` records the sweep in BENCH_incr.json.
//
// -kernel n runs the exploration cost rows — ring-7 and Byzantine graph
// builds, deadlock hunts on ring 7 with K = 8 and on ring 7 with its
// faults, SetOf(Legit) over ring 6 with K = 8, and a kernel step sweep of
// ring 7 — once to warm up and then n times each, printing one JSON line
// per row with states, edges, ns/op, allocs/op and states/s. `make
// bench-kernel` records the sweep in BENCH_kernel.json.
//
// -j N sets the worker count for state-space exploration and simulation
// campaigns (0 = all CPUs, default 1 = sequential); the tables are
// identical at any setting.
//
// -stats prints the process-wide exploration cache counters (builds, hits,
// misses, bypasses, evictions, resident graphs/states) after the selected
// experiments complete — the observable proof that graph reuse is cutting
// Build calls.
//
// -cpuprofile f and -memprofile f write pprof profiles of the run, so the
// exploration hot path can be inspected with `go tool pprof` (see
// `make profile`). The CPU profile covers the whole run; the heap profile is
// written after all experiments complete.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"detcorr/internal/experiments"
	"detcorr/internal/explore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dcbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dcbench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list experiment ids and exit")
	jobs := fs.Int("j", 1, "exploration workers; 0 means all CPUs")
	stats := fs.Bool("stats", false, "print graph-cache counters after the run")
	swarm := fs.Int("swarm", 0, "drive an in-process dcserved with this many concurrent clients instead of running experiments")
	swarmRounds := fs.Int("swarm-rounds", 3, "corpus replays per swarm client")
	spill := fs.Int("spill", 0, "sweep a spilled scan over the full state space of an n-process token ring instead of running experiments")
	slice := fs.Int("slice", 0, "measure the cone-of-influence slicing pre-pass on composed systems (n sizes the watched token ring) instead of running experiments")
	incr := fs.Int("incr", 0, "measure incremental re-verification of scripted edits on an n-process token ring instead of running experiments")
	kernel := fs.Int("kernel", 0, "measure exploration cost rows (builds, hunts, SetOf, kernel steps), n runs each, instead of running experiments")
	spillBudgets := fs.String("spill-budgets", "16M,64M,256M", "comma-separated memory budgets for the -spill sweep")
	spillBaseline := fs.Bool("spill-baseline", true, "include the unbudgeted in-RAM scan in the -spill sweep")
	spillDir := fs.String("spill-dir", "", "directory for the -spill sweep's spill files (default: the OS temp directory)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dcbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dcbench: memprofile:", err)
			}
		}()
	}
	if *jobs == 0 {
		*jobs = explore.AutoParallelism()
	}
	explore.SetDefaultParallelism(*jobs)
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}
	if *swarm > 0 {
		return runSwarm(*swarm, *swarmRounds)
	}
	if *spill > 0 {
		return runSpill(*spill, *spillBudgets, *spillDir, *spillBaseline)
	}
	if *slice > 0 {
		return runSlice(*slice)
	}
	if *incr > 0 {
		return runIncr(*incr)
	}
	if *kernel > 0 {
		return runKernel(*kernel)
	}
	ids := fs.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		table, err := experiments.Run(id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(table.Markdown())
		fmt.Printf("(%s completed in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *stats {
		s := explore.CacheStats()
		fmt.Printf("graph cache: %d builds, %d hits, %d misses, %d bypasses, %d evictions, %d graphs resident (%d states)\n",
			s.Builds, s.Hits, s.Misses, s.Bypasses, s.Evictions, s.Resident, s.States)
		sp := explore.SpillCounters()
		fmt.Printf("spill: %d frontier runs, %d bytes spilled, front hit rate %.4f (%d hits, %d misses), %d shard probes, %d merges\n",
			sp.FrontierRuns, sp.BytesSpilled, sp.BloomHitRate(), sp.FrontHits, sp.FrontMisses, sp.ShardProbes, sp.ShardMerges)
	}
	return nil
}
