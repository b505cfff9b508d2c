// Package difftest holds the engine matrix and the graph comparison behind
// the repo's differential suites. Build has one exploration engine, but
// that engine runs with any worker count, in RAM or spilled under a memory
// budget, and on compiled kernel bytecode or the closure adapter; every
// combination must produce the identical graph — same states, node ids,
// out-edges, in-lists, enabledness and fairness — for the same program and
// options. The determinism contract (node ids canonically renumbered by
// state index) is what makes this an exact equality rather than an
// isomorphism check, and it is what keeps goldens and cross-engine
// comparisons byte-stable.
package difftest

import (
	"fmt"
	"runtime"

	"detcorr/internal/explore"
	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// Diff reports the first structural difference between two graphs, or nil
// when they are identical. The comparison is exact: node order, edge order,
// and in-list order all count.
func Diff(a, b *explore.Graph) error {
	if a.NumNodes() != b.NumNodes() {
		return fmt.Errorf("node counts differ: %d vs %d", a.NumNodes(), b.NumNodes())
	}
	if a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for id := 0; id < a.NumNodes(); id++ {
		if !a.State(id).Equal(b.State(id)) {
			return fmt.Errorf("node %d: states differ: %s vs %s", id, a.State(id), b.State(id))
		}
		if err := diffEdges(a.Out(id), b.Out(id)); err != nil {
			return fmt.Errorf("node %d out-edges: %w", id, err)
		}
		if err := diffEdges(a.In(id), b.In(id)); err != nil {
			return fmt.Errorf("node %d in-list: %w", id, err)
		}
	}
	na := a.Program().NumActions()
	if nb := b.Program().NumActions(); na != nb {
		return fmt.Errorf("action counts differ: %d vs %d", na, nb)
	}
	for act := 0; act < na; act++ {
		if a.FairAction(act) != b.FairAction(act) {
			return fmt.Errorf("action %d (%s): fairness differs", act, a.ActionName(act))
		}
	}
	// Enabledness and deadlock are precomputed during assembly — on the
	// kernel path from compiled guard bytecode, on the fallback path from
	// the guard closures — so comparing them node by node is what pins
	// "compiled guards ≡ closure guards" at the graph level.
	for id := 0; id < a.NumNodes(); id++ {
		if a.Deadlocked(id) != b.Deadlocked(id) {
			return fmt.Errorf("node %d: deadlock flags differ: %v vs %v", id, a.Deadlocked(id), b.Deadlocked(id))
		}
		for act := 0; act < na; act++ {
			if a.Enabled(id, act) != b.Enabled(id, act) {
				return fmt.Errorf("node %d action %d (%s): enabledness differs", id, act, a.ActionName(act))
			}
		}
	}
	return nil
}

func diffEdges(ea, eb []explore.Edge) error {
	if len(ea) != len(eb) {
		return fmt.Errorf("lengths differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			return fmt.Errorf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	return nil
}

// StripCompiled returns a copy of the program whose actions carry neither
// kernel bytecode (Compiled) nor the deterministic fast path (Stmt), forcing
// every engine onto the kernel's generic closure adapter. It is the
// reference variant for kernel-vs-closure differential checks; programs
// without bytecode pass through unchanged in behavior.
func StripCompiled(p *guarded.Program) *guarded.Program {
	acts := p.Actions()
	for i := range acts {
		acts[i].Compiled = nil
		acts[i].Stmt = nil
	}
	return guarded.MustProgram(p.Name(), p.Schema(), acts...)
}

// Cells returns opts once per cell of the engine matrix, with Parallelism
// and MemBudget set: worker counts 1, 2, 3 and NumCPU, each under no
// budget (in RAM), the 64 KiB floor, which spills the frontier and, on the
// larger systems, the visited set, and 16 MiB, which every example fits
// under, so it pins "a budget you fit under is a no-op".
func Cells(opts explore.Options) []explore.Options {
	var cells []explore.Options
	for _, budget := range []int64{-1, 64 << 10, 16 << 20} {
		for _, workers := range []int{1, 2, 3, runtime.NumCPU()} {
			opts.MemBudget, opts.Parallelism = budget, workers
			cells = append(cells, opts)
		}
	}
	return cells
}

// Check builds the program in every cell of the engine matrix (Cells),
// both as-is (compiled kernel bytecode, if the program carries any) and
// with the bytecode stripped (pure closure adapter), and returns an error
// describing the first cell whose graph differs from ref.
func Check(ref *explore.Graph, p *guarded.Program, init state.Predicate, opts explore.Options) error {
	return CheckCells(ref, p, init, Cells(opts))
}

// CheckCells is Check over the given cells only, so a suite can split the
// matrix between tests (in RAM and spilled, say) without building any cell
// twice.
func CheckCells(ref *explore.Graph, p *guarded.Program, init state.Predicate, cells []explore.Options) error {
	progs := []struct {
		kind string
		prog *guarded.Program
	}{{"compiled", p}, {"closure-only", StripCompiled(p)}}
	for _, pr := range progs {
		for _, cell := range cells {
			g, err := explore.Build(pr.prog, init, cell)
			if err != nil {
				return fmt.Errorf("%s build (%d workers, budget %d): %w", pr.kind, cell.Parallelism, cell.MemBudget, err)
			}
			if err := Diff(ref, g); err != nil {
				return fmt.Errorf("%s build (%d workers, budget %d) diverges: %w", pr.kind, cell.Parallelism, cell.MemBudget, err)
			}
		}
	}
	return nil
}
