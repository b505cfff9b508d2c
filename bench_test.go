// Package detcorr's root benchmark harness: one benchmark per experiment in
// EXPERIMENTS.md (BenchmarkE1..BenchmarkE17, regenerating the paper's
// figures and section constructions), plus micro-benchmarks for the checker
// and runtime primitives. Run with:
//
//	go test -bench=. -benchmem
package detcorr

import (
	"strings"
	"testing"

	"detcorr/internal/byzagree"
	"detcorr/internal/core"
	"detcorr/internal/dist"
	"detcorr/internal/experiments"
	"detcorr/internal/explore"
	"detcorr/internal/explore/difftest"
	"detcorr/internal/fault"
	"detcorr/internal/gcl"
	"detcorr/internal/guarded"
	"detcorr/internal/memaccess"
	"detcorr/internal/prove"
	"detcorr/internal/runtime"
	"detcorr/internal/state"
	"detcorr/internal/tokenring"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Run(id)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		for _, row := range table.Rows {
			for _, cell := range row {
				if strings.Contains(cell, "✗") {
					b.Fatalf("%s: verdict diverges from the paper: %v", id, row)
				}
			}
		}
	}
}

func BenchmarkE1Fig1FailSafeMemory(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2Fig2NonmaskingMemory(b *testing.B)  { benchExperiment(b, "E2") }
func BenchmarkE3Fig3MaskingMemory(b *testing.B)     { benchExperiment(b, "E3") }
func BenchmarkE4TMR(b *testing.B)                   { benchExperiment(b, "E4") }
func BenchmarkE5ByzantineAgreement(b *testing.B)    { benchExperiment(b, "E5") }
func BenchmarkE6DetectorTheorems(b *testing.B)      { benchExperiment(b, "E6") }
func BenchmarkE7CorrectorTheorems(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8MaskingTheorems(b *testing.B)       { benchExperiment(b, "E8") }
func BenchmarkE9TokenRing(b *testing.B)             { benchExperiment(b, "E9") }
func BenchmarkE10Synthesis(b *testing.B)            { benchExperiment(b, "E10") }
func BenchmarkE11StateMachine(b *testing.B)         { benchExperiment(b, "E11") }
func BenchmarkE12Simulation(b *testing.B)           { benchExperiment(b, "E12") }
func BenchmarkE13Ablation(b *testing.B)             { benchExperiment(b, "E13") }
func BenchmarkE14TerminationDetection(b *testing.B) { benchExperiment(b, "E14") }
func BenchmarkE15MutualExclusion(b *testing.B)      { benchExperiment(b, "E15") }
func BenchmarkE16Multitolerance(b *testing.B)       { benchExperiment(b, "E16") }
func BenchmarkE17TreeMaintenance(b *testing.B)      { benchExperiment(b, "E17") }
func BenchmarkE18LeaderElection(b *testing.B)       { benchExperiment(b, "E18") }

// --- micro-benchmarks for the library primitives ---

func BenchmarkSpanComputation(b *testing.B) {
	sys := byzagree.MustNew()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		span, err := fault.ComputeSpan(sys.Masking, sys.Faults, sys.ST)
		if err != nil {
			b.Fatal(err)
		}
		if span.Size == 0 {
			b.Fatal("empty span")
		}
	}
}

func BenchmarkMaskingCheckByzantine(b *testing.B) {
	sys := byzagree.MustNew()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := fault.CheckMasking(sys.Masking, sys.Faults, sys.Spec, sys.ST); !rep.OK() {
			b.Fatal(rep.Err)
		}
	}
}

func BenchmarkDetectorCheck(b *testing.B) {
	sys := memaccess.MustNew(2)
	d := core.Detector{D: sys.FailSafe, Z: sys.Z1, X: sys.X1, U: sys.U1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCorrectorCheck(b *testing.B) {
	sys := tokenring.MustNew(4, 4)
	c := sys.AsCorrector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFairCycleDetection searches a fresh memo each iteration: the
// fair decomposition is memoized per graph and `within`, so searching one
// graph again would time a memo hit. A RestrictFair view that keeps every
// action fair has the same edges and a memo of its own.
func BenchmarkFairCycleDetection(b *testing.B) {
	sys := tokenring.MustNew(5, 5)
	g, err := explore.Build(sys.Ring, state.True, explore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ill := g.SetOf(state.Not(sys.Legitimate))
	all := func(int) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if comp := g.RestrictFair(all).FairCycle(ill); comp != nil {
			b.Fatal("ring must not have a fair illegitimate cycle")
		}
	}
}

func BenchmarkGraphBuild(b *testing.B) {
	sys := tokenring.MustNew(5, 5) // 3125 states
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := explore.Build(sys.Ring, state.True, explore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if g.NumNodes() != 3125 {
			b.Fatal("unexpected node count")
		}
	}
}

// --- parallel exploration benchmarks ---
//
// Seq/Par pairs measure the same Build at Parallelism 1 and at all CPUs;
// the graphs are identical by the engine's determinism contract, so the
// pairs differ only in wall-clock. EXPERIMENTS.md records measured ratios.

// parWorkers is the worker count the Par benchmarks use: every CPU, but at
// least two so the worker pool is actually exercised (and its overhead
// measured) even on a single-core machine.
func parWorkers() int {
	if n := explore.AutoParallelism(); n > 2 {
		return n
	}
	return 2
}

func benchBuild(b *testing.B, prog *guarded.Program, workers, wantNodes int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		g, err := explore.Build(prog, state.True, explore.Options{Parallelism: workers})
		if err != nil {
			b.Fatal(err)
		}
		if g.NumNodes() != wantNodes {
			b.Fatalf("unexpected node count %d (want %d)", g.NumNodes(), wantNodes)
		}
	}
}

func BenchmarkBuildRing7Seq(b *testing.B) {
	benchBuild(b, tokenring.MustNew(7, 7).Ring, 1, 823543)
}

func BenchmarkBuildRing7Par(b *testing.B) {
	benchBuild(b, tokenring.MustNew(7, 7).Ring, parWorkers(), 823543)
}

func BenchmarkBuildByzMaskingSeq(b *testing.B) {
	sys := byzagree.MustNew()
	g, err := explore.Build(sys.Masking, state.True, explore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchBuild(b, sys.Masking, 1, g.NumNodes())
}

func BenchmarkBuildByzMaskingPar(b *testing.B) {
	sys := byzagree.MustNew()
	g, err := explore.Build(sys.Masking, state.True, explore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	benchBuild(b, sys.Masking, parWorkers(), g.NumNodes())
}

// benchExperimentParallel reruns a whole experiment with the process-wide
// exploration default raised, the way dcbench -j does.
func benchExperimentParallel(b *testing.B, id string) {
	b.Helper()
	prev := explore.SetDefaultParallelism(parWorkers())
	defer explore.SetDefaultParallelism(prev)
	benchExperiment(b, id)
}

func BenchmarkE5ByzantineAgreementPar(b *testing.B) { benchExperimentParallel(b, "E5") }
func BenchmarkE9TokenRingPar(b *testing.B)          { benchExperimentParallel(b, "E9") }
func BenchmarkE13AblationPar(b *testing.B)          { benchExperimentParallel(b, "E13") }

func BenchmarkSimulationRun(b *testing.B) {
	sys := memaccess.MustNew(2)
	initial, err := state.FromMap(sys.WitnessSchema, map[string]int{"present": 1, "val": 1})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := runtime.New(sys.Masking, runtime.Config{
		Seed: 1, MaxSteps: 200, Faults: sys.PageFaultWitness, FaultBudget: 2,
	}, runtime.NewSafetyMonitor(sys.Spec.Safety))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(initial)
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK() {
			b.Fatal("masking run violated safety")
		}
	}
}

func BenchmarkGCLCompile(b *testing.B) {
	const src = `
program bench
var present : bool
var val     : 0..1
var data    : enum(bot, v0, v1)
var z1      : bool
pred S :: present
action restore :: !present      -> present := true
action detect  :: present & !z1 -> z1 := true
action read0   :: z1 & val == 0 -> data := v0
action read1   :: z1 & val == 1 -> data := v1
fault pageout  :: present & !z1 -> present := false
`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gcl.ParseAndCompile(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOMProtocol(b *testing.B) {
	byz := map[int]bool{0: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dist.RunOM(7, 2, 1, byz, dist.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := res.HonestAgree(byz); !ok {
			b.Fatal("agreement violated")
		}
	}
}

func BenchmarkWeakestDetectionPredicate(b *testing.B) {
	sys := memaccess.MustNew(4)
	sspec := sys.Spec.FailSafeSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sf := core.WeakestDetectionPredicate(sys.Intolerant, 0, sspec)
		if sf.Eval == nil {
			b.Fatal("nil predicate")
		}
	}
}

// --- graph reuse and streaming-scan benchmarks ---
//
// CachedReuse/UncachedCheck pairs measure the same tolerance verdict with
// the process-wide graph cache warm and with it dropped before every
// iteration; the ratio is what the memoized exploration layer buys a
// checker pipeline that asks repeated questions about one system.

func BenchmarkRing7CachedReuse(b *testing.B) {
	c := tokenring.MustNew(7, 7).AsCorrector()
	if err := c.Check(); err != nil { // warm the cache and the per-graph memos
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRing7UncachedCheck(b *testing.B) {
	c := tokenring.MustNew(7, 7).AsCorrector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		explore.ResetCache()
		if err := c.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanEarlyExit measures a failing counterexample hunt on the
// streaming scanner: it stops at the first illegitimate state it visits,
// long before the 823543-state space is enumerated, with no CSR assembly.
// BenchmarkScanFullSweep is the bound: the same scan forced to visit
// everything, still allocation-light compared to a Build.
func BenchmarkScanEarlyExit(b *testing.B) {
	sys := tokenring.MustNew(7, 7)
	bad := state.Not(sys.Legitimate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var witness state.State
		stats, err := explore.Scan(sys.Ring, state.True, explore.ScanOptions{}, explore.Scanner{
			Visit: func(s state.State) bool {
				if bad.Holds(s) {
					witness = sys.Ring.Schema().StateAt(s.Index())
					return false
				}
				return true
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if !stats.Stopped || witness.IsZero() {
			b.Fatal("hunt must stop at an illegitimate state")
		}
	}
}

func BenchmarkScanFullSweep(b *testing.B) {
	sys := tokenring.MustNew(7, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := explore.Scan(sys.Ring, state.True, explore.ScanOptions{}, explore.Scanner{})
		if err != nil {
			b.Fatal(err)
		}
		if stats.States != 823543 {
			b.Fatalf("unexpected state count %d", stats.States)
		}
	}
}

// BenchmarkFindDeadlockRing7K8 is the large-space workload's largest scan:
// a deadlock hunt over Dijkstra's ring with 7 machines and 8 counter
// values. No state of the 8^7 = 2,097,152 is deadlocked, so the hunt
// sweeps them all and records a parent for each.
func BenchmarkFindDeadlockRing7K8(b *testing.B) {
	f, err := gcl.ParseAndCompile(difftest.RingSource(7, 8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := explore.FindDeadlock(f.Program, state.True, explore.ScanOptions{}); err != nil || found {
			b.Fatalf("found=%v err=%v", found, err)
		}
	}
}

// BenchmarkFindDeadlockRing7Faults is the large-space workload's costliest
// question before hunts stopped expanding a fully discovered space: a
// deadlock hunt over ring 7 composed with its corruption faults, from every
// state. No state is deadlocked; seeding alone discovers all 823,543.
func BenchmarkFindDeadlockRing7Faults(b *testing.B) {
	f, err := gcl.ParseAndCompile(difftest.RingSource(7, 7))
	if err != nil {
		b.Fatal(err)
	}
	prog, fair, err := fault.Compose(f.Program, f.Faults)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, found, err := explore.FindDeadlock(prog, state.True, explore.ScanOptions{Fair: fair}); err != nil || found {
			b.Fatalf("found=%v err=%v", found, err)
		}
	}
}

// repairRing6 prepares a save's repair: the graph of ring 6 with K = 6
// from true, and the revision a one-action guard-narrow edit makes of the
// program (the last action's guard g becomes g & !g).
func repairRing6(b *testing.B) (*explore.Graph, *difftest.Revision) {
	b.Helper()
	ed, _ := difftest.StandardEdit("guard-narrow")
	rev, err := difftest.Revise(difftest.RingSource(6, 6), ed)
	if err != nil {
		b.Fatal(err)
	}
	old, err := explore.Build(rev.Old.Program, state.True, explore.Options{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	return old, rev
}

// BenchmarkRepairRing6 repairs the prebuilt graph of ring 6 (K = 6) from
// true onto a one-action guard-narrow edit: the graph surgery an editor
// save of that edit pays, without the checks that follow it.
func BenchmarkRepairRing6(b *testing.B) {
	old, rev := repairRing6(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := explore.Repair(old, rev.New.Program, rev.Plan.Graph, state.True, explore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if g.NumNodes() != old.NumNodes() {
			b.Fatalf("repair left %d of %d states", g.NumNodes(), old.NumNodes())
		}
	}
}

// BenchmarkSetOfLegitRing6K8 sweeps ring 6 K=8's Legit predicate over its
// built 262,144-state graph, the SetOf that large-space's convergence check
// runs. The predicate is unnamed so the per-graph memo never answers.
func BenchmarkSetOfLegitRing6K8(b *testing.B) {
	f, err := gcl.ParseAndCompile(difftest.RingSource(6, 8))
	if err != nil {
		b.Fatal(err)
	}
	g, err := explore.Build(f.Program, state.True, explore.Options{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	legit := f.Preds["Legit"]
	legit.Name = ""
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SetOf(legit)
	}
}

// BenchmarkFairCycleRing6K8 searches ring 6 K=8's states outside Legit for
// a fair cycle, the FairCycle that large-space's convergence check runs.
// Each iteration searches a RestrictFair view that keeps every action fair:
// the same edges with a fresh memo, so no iteration times a memo hit.
func BenchmarkFairCycleRing6K8(b *testing.B) {
	f, err := gcl.ParseAndCompile(difftest.RingSource(6, 8))
	if err != nil {
		b.Fatal(err)
	}
	g, err := explore.Build(f.Program, state.True, explore.Options{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	ill := g.SetOf(state.Not(f.Preds["Legit"]))
	all := func(int) bool { return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if comp := g.RestrictFair(all).FairCycle(ill); comp != nil {
			b.Fatal("ring must not have a fair illegitimate cycle")
		}
	}
}

// BenchmarkProveRing4Convergence is the prover's slowest benchmark query:
// convergence of the 4-machine ring from true to Legit, a rank synthesis
// that finds no candidate strictly decreasing any action and so reports
// unknown after 53 validity queries. Each iteration starts from a fresh
// System, as a cold dctl call does. `dcbench -prove` records it with the
// other prover rows.
func BenchmarkProveRing4Convergence(b *testing.B) {
	ast, err := gcl.Parse(difftest.RingSource(4, 4))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := prove.NewSystem(ast)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := prove.ProveConvergence(sys, "true", "Legit", nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Verdict != prove.Unknown {
			b.Fatalf("verdict %v, want unknown", rep.Verdict)
		}
	}
}

// --- kernel microbenchmarks ---
//
// Step is the exploration hot loop: one call expands one state into its
// successor indices on a reusable scratch. The native variant runs compiled
// bytecode (zero allocations steady-state); the adapter variant strips the
// bytecode and routes through the guard/statement closures, measuring what
// the fallback path costs.

func benchKernelStep(b *testing.B, prog *guarded.Program) {
	b.Helper()
	k := guarded.Compile(prog)
	sc := k.NewScratch()
	n, ok := prog.Schema().NumStates()
	if !ok {
		b.Fatal("schema not indexable")
	}
	buf := make([]uint64, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = sc.Step(uint64(i)%n, buf[:0])
	}
}

func BenchmarkKernelStepRing7Native(b *testing.B) {
	benchKernelStep(b, tokenring.MustNew(7, 7).Ring)
}

func BenchmarkKernelStepRing7Adapter(b *testing.B) {
	benchKernelStep(b, difftest.StripCompiled(tokenring.MustNew(7, 7).Ring))
}

func BenchmarkKernelStepByzMasking(b *testing.B) {
	benchKernelStep(b, byzagree.MustNew().Masking)
}
