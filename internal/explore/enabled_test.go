package explore_test

// Enabledness is read off the out-edges for every action with a fixed
// fan-out and evaluated from the guard only for closures with a set of
// next states. These tests hold that rule to the guards themselves.

import (
	"fmt"
	"testing"

	"detcorr/internal/explore"
	"detcorr/internal/explore/difftest"
	"detcorr/internal/fault"
	"detcorr/internal/gcl"
	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// TestEnabledClosureWithoutSuccessors builds a program whose set-valued
// closure is enabled where its statement yields no state: the action must
// still be enabled there, and the state not deadlocked.
func TestEnabledClosureWithoutSuccessors(t *testing.T) {
	sch := state.MustSchema(state.IntVar("x", 3))
	even := state.Pred("even", func(s state.State) bool { return s.Get(0)%2 == 0 })
	stall := guarded.Choice("stall", even, func(s state.State) []state.State {
		if s.Get(0) == 0 {
			return nil // enabled, but no transition
		}
		return []state.State{s.With(0, 0)}
	})
	step := guarded.Det("step", state.Pred("one", func(s state.State) bool { return s.Get(0) == 1 }),
		func(s state.State) state.State { return s.With(0, 2) })
	p := guarded.MustProgram("stall", sch, stall, step)
	g, err := explore.Build(p, state.True, explore.Options{Parallelism: 1, MemBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	id, ok := g.NodeOf(sch.StateAt(0))
	if !ok {
		t.Fatal("state x=0 not in the graph")
	}
	if len(g.Out(id)) != 0 {
		t.Fatalf("x=0 has out-edges %v, want none", g.Out(id))
	}
	if !g.Enabled(id, 0) || g.Enabled(id, 1) {
		t.Fatalf("x=0: enabled(stall, step) = (%v, %v), want (true, false)", g.Enabled(id, 0), g.Enabled(id, 1))
	}
	if g.Deadlocked(id) {
		t.Fatal("x=0 is deadlocked, but stall's guard holds there")
	}
	requireGuardEnabledness(t, g)
}

// TestEnabledMatchesGuardsOnExamples compares every example system's
// enabled bitsets and deadlock set, on the compiled kernel, with the
// guards evaluated at every node — plain, and composed with faults: a
// set-valued, unfair corruption closure per variable for the hand-lowered
// systems, and for a GCL ring its own `x := ?` faults, which compile to
// native actions with one transition per value.
func TestEnabledMatchesGuardsOnExamples(t *testing.T) {
	for _, sys := range difftest.Systems() {
		t.Run(sys.Name, func(t *testing.T) {
			requireEnablednessWithFaults(t, sys.Prog, sys.Init, corruption(sys.Prog.Schema()))
		})
	}
	t.Run("gcl/ring4", func(t *testing.T) {
		f, err := gcl.ParseAndCompile(difftest.RingSource(4, 3))
		if err != nil {
			t.Fatal(err)
		}
		requireEnablednessWithFaults(t, f.Program, state.True, f.Faults)
	})
}

// requireEnablednessWithFaults builds p from init, then p composed with
// faults, and holds both graphs to the per-node guard pass.
func requireEnablednessWithFaults(t *testing.T, p *guarded.Program, init state.Predicate, faults fault.Class) {
	t.Helper()
	g, err := explore.Build(p, init, explore.Options{Parallelism: 1, MemBudget: -1})
	if err != nil {
		t.Fatal(err)
	}
	requireGuardEnabledness(t, g)
	composed, fair, err := fault.Compose(p, faults)
	if err != nil {
		t.Fatal(err)
	}
	g, err = explore.Build(composed, init, explore.Options{Parallelism: 1, MemBudget: -1, Fair: fair})
	if err != nil {
		t.Fatal(err)
	}
	requireGuardEnabledness(t, g)
}

// corruption is one fault per variable that sets it to any value.
func corruption(sch *state.Schema) fault.Class {
	acts := make([]guarded.Action, sch.NumVars())
	for i := range acts {
		acts[i] = guarded.Choice(fmt.Sprintf("corrupt_%d", i), state.True, func(s state.State) []state.State {
			out := make([]state.State, sch.DomainSize(i))
			for v := range out {
				out[v] = s.With(i, v)
			}
			return out
		})
	}
	return fault.NewClass("corruption", acts...)
}

// requireGuardEnabledness is the per-node guard pass assembly ran before
// it read enabledness off the edges: every action's guard evaluated at
// every node on the compiled kernel, and a node deadlocked iff no fair
// action is enabled there.
func requireGuardEnabledness(t *testing.T, g *explore.Graph) {
	t.Helper()
	p := g.Program()
	sc := guarded.Compile(p).NewScratch()
	row := make([]int32, p.Schema().NumVars())
	for id := 0; id < g.NumNodes(); id++ {
		g.State(id).CopyVals(row)
		dead := true
		for a := 0; a < p.NumActions(); a++ {
			want := sc.EnabledOnRow(row, a)
			if got := g.Enabled(id, a); got != want {
				t.Fatalf("node %d (%s) action %s: Enabled = %v, guard %v", id, g.State(id), g.ActionName(a), got, want)
			}
			if want && g.FairAction(a) {
				dead = false
			}
		}
		if got := g.Deadlocked(id); got != dead {
			t.Fatalf("node %d (%s): Deadlocked = %v, want %v", id, g.State(id), got, dead)
		}
	}
}
