package difftest

import (
	"errors"
	"testing"

	"detcorr/internal/explore"
	"detcorr/internal/fault"
	"detcorr/internal/gcl"
	"detcorr/internal/guarded"
	"detcorr/internal/state"
	"detcorr/internal/tokenring"
)

// anchor builds the graph every cell of the engine matrix must equal: one
// worker, in RAM, compiled. The explore package's own engine tests hold
// this cell to the kept reference engine on the same systems.
func anchor(t *testing.T, p *guarded.Program, init state.Predicate, opts explore.Options) *explore.Graph {
	t.Helper()
	opts.Parallelism, opts.MemBudget = 1, -1
	g, err := explore.Build(p, init, opts)
	if err != nil {
		t.Fatalf("one-worker in-RAM build: %v", err)
	}
	return g
}

// budgetCells returns the cells of the engine matrix that run under a
// memory budget (spilled) or in RAM (!spilled). The example suites split
// the matrix along this axis between two tests, so no cell is built twice.
func budgetCells(opts explore.Options, spilled bool) []explore.Options {
	var cells []explore.Options
	for _, cell := range Cells(opts) {
		if (cell.MemBudget > 0) == spilled {
			cells = append(cells, cell)
		}
	}
	return cells
}

// checkSystems runs the given cells of the engine matrix over every example
// system, each anchored on its one-worker in-RAM build.
func checkSystems(t *testing.T, spilled bool) {
	for _, sys := range Systems() {
		t.Run(sys.Name, func(t *testing.T) {
			t.Parallel()
			ref := anchor(t, sys.Prog, sys.Init, explore.Options{})
			if err := CheckCells(ref, sys.Prog, sys.Init, budgetCells(explore.Options{}, spilled)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEnginesAgreeOnExamples is the differential suite: for every example
// system in the repo, every in-RAM cell of the engine matrix — worker
// counts × compiled or closure-only — must build an identical graph (same
// states, ids, edges, in-lists). TestSpilledEngineAgreesOnExamples covers
// the budgeted cells of the same matrix.
func TestEnginesAgreeOnExamples(t *testing.T) { checkSystems(t, false) }

// TestSpilledEngineAgreesOnExamples is the out-of-core half of the suite:
// every example system under the 64 KiB floor budget (everything spills)
// and a budget that fits (nothing should spill), at every worker count,
// must build the graph of the in-RAM one-worker engine. Combined with
// explore's own corruption tests (a torn spill file is a clean error),
// this is the robustness story: spilling can slow a verdict down or fail
// it loudly, but it can never change it.
func TestSpilledEngineAgreesOnExamples(t *testing.T) { checkSystems(t, true) }

// fairRing is the p ‖ F shape: a token ring with alternate actions marked
// unfair, exercising the mask path.
func fairRing() (*guarded.Program, explore.Options) {
	ring := tokenring.MustNew(3, 3)
	fair := make([]bool, ring.Ring.NumActions())
	for i := range fair {
		fair[i] = i%2 == 0
	}
	return ring.Ring, explore.Options{Fair: fair}
}

// TestEnginesAgreeUnderFairMask covers the p ‖ F shape: a program with its
// fault actions marked unfair must explore identically in every in-RAM
// cell. Fairness masks flow through assembly, not exploration, so every
// graph must carry the identical mask.
func TestEnginesAgreeUnderFairMask(t *testing.T) {
	prog, opts := fairRing()
	if err := CheckCells(anchor(t, prog, state.True, opts), prog, state.True, budgetCells(opts, false)); err != nil {
		t.Fatal(err)
	}
}

// TestSpilledEngineAgreesUnderFairMask pins the p ‖ F shape on the spilled
// cells: the spilled graph must carry the identical mask.
func TestSpilledEngineAgreesUnderFairMask(t *testing.T) {
	prog, opts := fairRing()
	if err := CheckCells(anchor(t, prog, state.True, opts), prog, state.True, budgetCells(opts, true)); err != nil {
		t.Fatal(err)
	}
}

// TestEnginesAgreeOnBoundError checks every cell also agrees on the error
// side of the MaxStates contract, with and without kernel bytecode.
func TestEnginesAgreeOnBoundError(t *testing.T) {
	ring := tokenring.MustNew(4, 4)
	for _, prog := range []*guarded.Program{ring.Ring, StripCompiled(ring.Ring)} {
		for _, cell := range Cells(explore.Options{MaxStates: 17}) {
			if _, err := explore.Build(prog, state.True, cell); !errors.Is(err, explore.ErrStateBound) {
				t.Fatalf("%d workers, budget %d: want ErrStateBound, got %v", cell.Parallelism, cell.MemBudget, err)
			}
		}
	}
}

// gclSrcs are small GCL systems whose actions carry compiler-emitted kernel
// bytecode, so Check exercises the native bytecode path (not just the
// hand-lowered example programs): offsets with total mod, wildcards, and
// multi-variable simultaneous assignment.
var gclSrcs = map[string]string{
	"counter": `program counter
var c : 0..6
var dir : bool
pred atend :: c == 0 | c == 6
action up   :: dir & c < 6   -> c := c + 1
action down :: !dir & c > 0  -> c := c - 1
action flip :: c == 0 | c == 6 -> dir := !dir
fault wob :: true -> c := ?
`,
	"modring": `program modring
var a : 2..5
var b : 1..3
action step :: a < 5  -> a := a + 1
action wrap :: a == 5 -> a := 2, b := (a + b) % 3 + 1
fault jolt :: b != 2 -> b := ?
`,
	"pair": `program pair
var x : 0..3
var y : 0..3
pred diag :: x == y
action swap :: x != y -> x := y, y := x
action bump :: x == y & x < 3 -> x := x + 1
fault scramble :: true -> x := ?, y := ?
`,
}

// TestEnginesAgreeOnGCL runs the full engine matrix over GCL-compiled
// programs, plain and fault-composed (with the composition's fair mask
// marking faults unfair), and checks MaxStates parity between the compiled
// and stripped variants.
func TestEnginesAgreeOnGCL(t *testing.T) {
	for name, src := range gclSrcs {
		f, err := gcl.ParseAndCompile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		composed, fair, err := fault.Compose(f.Program, f.Faults)
		if err != nil {
			t.Fatalf("%s: compose: %v", name, err)
		}
		init := state.True
		if p, ok := f.Pred("diag"); ok {
			init = p
		}
		t.Run(name+"/plain", func(t *testing.T) {
			t.Parallel()
			if err := Check(anchor(t, f.Program, init, explore.Options{}), f.Program, init, explore.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(name+"/composed", func(t *testing.T) {
			t.Parallel()
			opts := explore.Options{Fair: fair}
			if err := Check(anchor(t, composed, state.True, opts), composed, state.True, opts); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(name+"/bound", func(t *testing.T) {
			t.Parallel()
			for _, prog := range []*guarded.Program{composed, StripCompiled(composed)} {
				opts := explore.Options{MaxStates: 3, Parallelism: 1}
				if _, err := explore.Build(prog, state.True, opts); !errors.Is(err, explore.ErrStateBound) {
					t.Fatalf("want ErrStateBound, got %v", err)
				}
			}
		})
	}
}
