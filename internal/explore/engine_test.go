package explore_test

// The engine tests: every cell of the difftest engine matrix — worker
// counts × memory budgets × compiled or closure-only — must build exactly
// the graph of the kept reference engine (reference_test.go), compared
// with difftest.Diff.

import (
	"errors"
	"testing"

	"detcorr/internal/crosscheck"
	"detcorr/internal/explore"
	"detcorr/internal/explore/difftest"
	"detcorr/internal/gcl"
	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// requireMatrix builds the program with the reference engine, requires every
// cell of the engine matrix to build the identical graph, and returns the
// reference graph.
func requireMatrix(t *testing.T, p *guarded.Program, init state.Predicate, opts explore.Options) *explore.Graph {
	t.Helper()
	ref, err := explore.BuildReference(p, init, opts)
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	if err := difftest.Check(ref, p, init, opts); err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestEngineMatchesReferenceOnExamples ties difftest's example suite to the
// reference engine: that suite requires every cell to equal the one-worker
// in-RAM build, and this test requires that build, compiled and
// closure-only, to equal the reference on the same systems.
func TestEngineMatchesReferenceOnExamples(t *testing.T) {
	for _, sys := range difftest.Systems() {
		t.Run(sys.Name, func(t *testing.T) {
			ref, err := explore.BuildReference(sys.Prog, sys.Init, explore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*guarded.Program{sys.Prog, difftest.StripCompiled(sys.Prog)} {
				g, err := explore.Build(p, sys.Init, explore.Options{Parallelism: 1, MemBudget: -1})
				if err != nil {
					t.Fatal(err)
				}
				if err := difftest.Diff(ref, g); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestEngineChunkedArenaMatchesReference builds a graph whose edges fill
// several arena chunks in every cell of the engine matrix and requires the
// reference engine's graph, which keeps every edge in one flat chunk.
func TestEngineChunkedArenaMatchesReference(t *testing.T) {
	f, err := gcl.ParseAndCompile(difftest.RingSource(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	ref := requireMatrix(t, f.Program, state.True, explore.Options{})
	if ref.NumEdges() <= 2*explore.EdgeChunk {
		t.Fatalf("ring 6 has %d edges, want more than two chunks of %d", ref.NumEdges(), explore.EdgeChunk)
	}
}

func TestParallelMatchesSequentialOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p, err := crosscheck.Generate(seed, crosscheck.GenConfig{Vars: 4, Actions: 4})
		if err != nil {
			t.Fatal(err)
		}
		requireMatrix(t, p, state.True, explore.Options{})
	}
}

func TestParallelPartialInit(t *testing.T) {
	p := explore.Counter(t, 64, explore.Inc(64))
	from := state.Pred("x=17", func(s state.State) bool { return s.Get(0) == 17 })
	g := requireMatrix(t, p, from, explore.Options{})
	if g.NumNodes() != 47 { // 17..63
		t.Errorf("nodes = %d, want 47", g.NumNodes())
	}
}

func TestParallelNondeterministicActions(t *testing.T) {
	sch := state.MustSchema(state.IntVar("x", 8), state.IntVar("y", 8))
	scatter := guarded.Choice("scatter", state.True, func(s state.State) []state.State {
		// Several successors per state, in a fixed order.
		return []state.State{
			s.With(0, (s.Get(0)+1)%8),
			s.With(1, (s.Get(1)+3)%8),
			s.With(0, (s.Get(0)+s.Get(1))%8),
		}
	})
	p := guarded.MustProgram("scatter", sch, scatter)
	g := requireMatrix(t, p, state.True, explore.Options{})
	if g.NumNodes() != 64 {
		t.Errorf("nodes = %d, want 64", g.NumNodes())
	}
}

func TestParallelFairMask(t *testing.T) {
	p := explore.Counter(t, 16, explore.Inc(16), explore.Cycle(16))
	requireMatrix(t, p, state.True, explore.Options{Fair: []bool{true, false}})
}

// TestCanonicalNumbering pins the determinism contract: node ids ascend with
// the states' mixed-radix indices, in every cell of the matrix.
func TestCanonicalNumbering(t *testing.T) {
	p := explore.Counter(t, 32, explore.Cycle(32))
	from := state.Pred("x=5", func(s state.State) bool { return s.Get(0) == 5 })
	g := requireMatrix(t, p, from, explore.Options{})
	for i := 1; i < g.NumNodes(); i++ {
		if g.State(i-1).Index() >= g.State(i).Index() {
			t.Fatalf("node ids not in state-index order at %d", i)
		}
	}
}

// TestSparseVisitedFallback forces the in-RAM visited set onto its per-owner
// maps for any real schema.
func TestSparseVisitedFallback(t *testing.T) {
	defer explore.SetDenseVisitedLimit(explore.SetDenseVisitedLimit(1))
	for seed := int64(0); seed < 5; seed++ {
		p, err := crosscheck.Generate(seed, crosscheck.GenConfig{Vars: 5, Actions: 4})
		if err != nil {
			t.Fatal(err)
		}
		requireMatrix(t, p, state.True, explore.Options{})
	}
}

// TestMaxStatesExact verifies the bound is exact in every cell: a build
// whose reachable set fits the bound succeeds, one state over fails.
func TestMaxStatesExact(t *testing.T) {
	const n = 100
	p := explore.Counter(t, n, explore.Inc(n))
	for _, cell := range difftest.Cells(explore.Options{}) {
		cell.MaxStates = n
		g, err := explore.Build(p, state.True, cell)
		if err != nil {
			t.Fatalf("%+v: bound == reachable must succeed: %v", cell, err)
		}
		if g.NumNodes() != n {
			t.Fatalf("%+v: nodes = %d, want %d", cell, g.NumNodes(), n)
		}
		cell.MaxStates = n - 1
		if _, err := explore.Build(p, state.True, cell); !errors.Is(err, explore.ErrStateBound) {
			t.Fatalf("%+v: bound = reachable-1 must fail with ErrStateBound, got %v", cell, err)
		}
	}
}

// TestMaxStatesExactFromInit exercises the bound during frontier expansion
// rather than the initial scan: a single initial state reaching n states.
func TestMaxStatesExactFromInit(t *testing.T) {
	const n = 64
	p := explore.Counter(t, n, explore.Inc(n))
	from := state.Pred("x=0", func(s state.State) bool { return s.Get(0) == 0 })
	for _, cell := range difftest.Cells(explore.Options{}) {
		cell.MaxStates = n
		if g, err := explore.Build(p, from, cell); err != nil || g.NumNodes() != n {
			t.Fatalf("%+v: exact bound from init: nodes=%v err=%v", cell, g, err)
		}
		cell.MaxStates = n / 2
		if _, err := explore.Build(p, from, cell); !errors.Is(err, explore.ErrStateBound) {
			t.Fatalf("%+v: want ErrStateBound, got %v", cell, err)
		}
	}
}

// TestParallelBoundAbortsWorkers checks that a large exploration under a
// small bound aborts promptly with ErrStateBound instead of exploring the
// whole space.
func TestParallelBoundAbortsWorkers(t *testing.T) {
	sch := state.MustSchema(state.IntVar("x", 200000))
	cyc := guarded.Det("cycle", state.True, func(s state.State) state.State {
		return s.With(0, (s.Get(0)+1)%200000)
	})
	p := guarded.MustProgram("big", sch, cyc)
	for _, cell := range difftest.Cells(explore.Options{MaxStates: 500}) {
		if _, err := explore.Build(p, state.True, cell); !errors.Is(err, explore.ErrStateBound) {
			t.Fatalf("%+v: want ErrStateBound, got %v", cell, err)
		}
	}
}

func TestDefaultParallelism(t *testing.T) {
	prev := explore.SetDefaultParallelism(4)
	defer explore.SetDefaultParallelism(prev)
	if explore.DefaultParallelism() != 4 {
		t.Fatalf("DefaultParallelism = %d, want 4", explore.DefaultParallelism())
	}
	p := explore.Counter(t, 20, explore.Inc(20))
	// Parallelism 0 defers to the default (now 4 workers)…
	viaDefault, err := explore.Build(p, state.True, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// …and an explicit 1 still runs one worker.
	one, err := explore.Build(p, state.True, explore.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := difftest.Diff(one, viaDefault); err != nil {
		t.Fatal(err)
	}
	if explore.SetDefaultParallelism(0) != 4 {
		t.Error("SetDefaultParallelism must return the previous value")
	}
	if explore.DefaultParallelism() != 0 {
		t.Error("SetDefaultParallelism(0) must reset to one worker")
	}
	explore.SetDefaultParallelism(4) // restored by the deferred call
}
