package explore

import (
	"math/rand"
	"testing"
	"testing/quick"

	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// counter builds the program over x ∈ 0..n-1 with the given actions.
func counter(t *testing.T, n int, actions ...guarded.Action) *guarded.Program {
	t.Helper()
	sch, err := state.NewSchema(state.IntVar("x", n))
	if err != nil {
		t.Fatal(err)
	}
	return guarded.MustProgram("counter", sch, actions...)
}

func inc(n int) guarded.Action {
	return guarded.Det("inc",
		state.Pred("x<max", func(s state.State) bool { return s.Get(0) < n-1 }),
		func(s state.State) state.State { return s.With(0, s.Get(0)+1) })
}

func cycle(n int) guarded.Action {
	return guarded.Det("cycle", state.True,
		func(s state.State) state.State { return s.With(0, (s.Get(0)+1)%n) })
}

func TestBuildFull(t *testing.T) {
	p := counter(t, 5, inc(5))
	g, err := Build(p, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Errorf("nodes=%d edges=%d; want 5, 4", g.NumNodes(), g.NumEdges())
	}
	if !g.Deadlocked(mustNode(t, g, 4)) {
		t.Error("x=4 must be deadlocked")
	}
	if g.Deadlocked(mustNode(t, g, 0)) {
		t.Error("x=0 must not be deadlocked")
	}
}

func mustNode(t *testing.T, g *Graph, x int) int {
	t.Helper()
	id, ok := g.NodeOf(state.MustState(g.Program().Schema(), x))
	if !ok {
		t.Fatalf("state x=%d not explored", x)
	}
	return id
}

func TestBuildFromInit(t *testing.T) {
	p := counter(t, 5, inc(5))
	from2 := state.Pred("x=2", func(s state.State) bool { return s.Get(0) == 2 })
	g, err := Build(p, from2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 { // 2, 3, 4
		t.Errorf("nodes=%d; want 3", g.NumNodes())
	}
	if _, ok := g.NodeOf(state.MustState(p.Schema(), 0)); ok {
		t.Error("x=0 must not be explored from x=2")
	}
}

func TestBuildBound(t *testing.T) {
	p := counter(t, 100, inc(100))
	if _, err := Build(p, state.True, Options{MaxStates: 10}); err == nil {
		t.Error("state bound must be enforced")
	}
}

func TestBuildFairMaskValidation(t *testing.T) {
	p := counter(t, 3, inc(3))
	if _, err := Build(p, state.True, Options{Fair: []bool{true, false}}); err == nil {
		t.Error("wrong-length fairness mask must be rejected")
	}
}

func TestReachAndPath(t *testing.T) {
	p := counter(t, 6, inc(6))
	g, err := Build(p, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	from := NewBitset(g.NumNodes())
	from.Add(mustNode(t, g, 1))
	reach := g.Reach(from, nil)
	if reach.Count() != 5 { // 1..5
		t.Errorf("reach count %d, want 5", reach.Count())
	}
	goal := NewBitset(g.NumNodes())
	goal.Add(mustNode(t, g, 4))
	path, ok := g.PathBetween(from, goal, nil)
	if !ok || len(path) != 4 {
		t.Errorf("path len %d ok=%v, want 4, true", len(path), ok)
	}
	// Avoiding x=3 disconnects 1 from 4.
	within := g.All()
	within.Remove(mustNode(t, g, 3))
	if _, ok := g.PathBetween(from, goal, within); ok {
		t.Error("path should not exist when x=3 is forbidden")
	}
}

func TestSCCsOnCycle(t *testing.T) {
	p := counter(t, 4, cycle(4))
	g, err := Build(p, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	comps := g.SCCs(nil)
	if len(comps) != 1 || len(comps[0]) != 4 {
		t.Errorf("cycle should be one SCC of 4 nodes: %v", comps)
	}
	chain := counter(t, 4, inc(4))
	gc, err := Build(chain, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	comps = gc.SCCs(nil)
	if len(comps) != 4 {
		t.Errorf("chain should have 4 singleton SCCs: %v", comps)
	}
}

func TestFairCycleRequiresEnabledActionToRun(t *testing.T) {
	// Two actions: 'cycle' loops through all states; 'escape' is enabled
	// everywhere and leaves to a sink. A weakly fair run cannot cycle
	// forever (escape would be continuously enabled but never taken), so
	// within the cycle states there is no fair cycle.
	sch := state.MustSchema(state.IntVar("x", 3), state.BoolVar("done"))
	notDone := state.Pred("¬done", func(s state.State) bool { return !s.Bool(1) })
	cyc := guarded.Det("cycle", notDone, func(s state.State) state.State {
		return s.With(0, (s.Get(0)+1)%3)
	})
	escape := guarded.Det("escape", notDone, func(s state.State) state.State {
		return s.WithBool(1, true)
	})
	p := guarded.MustProgram("p", sch, cyc, escape)
	g, err := Build(p, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if comp := g.FairCycle(g.SetOf(notDone)); comp != nil {
		t.Errorf("no fair cycle should exist while escape is enabled: %v", comp)
	}
	// Without escape, the cycle is fair.
	pOnly := guarded.MustProgram("p", sch, cyc)
	g2, err := Build(pOnly, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if comp := g2.FairCycle(g2.SetOf(notDone)); comp == nil {
		t.Error("pure cycle must contain a fair cycle")
	}
}

func TestFairCycleAllocsIndependentOfSCCCount(t *testing.T) {
	// A chain of 4000 states is 4000 singleton SCCs, none of which admits a
	// fair run. The decomposition is memoized after the first call, so the
	// calls measured below allocate only FairCycle's own membership set.
	p := counter(t, 4000, inc(4000))
	g, err := Build(p, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if comp := g.FairCycle(nil); comp != nil {
		t.Fatalf("a chain has no fair cycle, got %v", comp)
	}
	if allocs := testing.AllocsPerRun(10, func() { g.FairCycle(nil) }); allocs > 2 {
		t.Errorf("FairCycle allocated %.0f times over 4000 SCCs; want at most 2", allocs)
	}
}

func TestUnfairActionsCannotSustainCycles(t *testing.T) {
	// The only loop is through an unfair (fault) action: no fair cycle.
	p := counter(t, 3, cycle(3))
	g, err := Build(p, state.True, Options{Fair: []bool{false}})
	if err != nil {
		t.Fatal(err)
	}
	if comp := g.FairCycle(nil); comp != nil {
		t.Error("unfair edges must not sustain a fair cycle")
	}
	// And unfair-only states count as deadlocked (p-maximality).
	if !g.Deadlocked(0) {
		t.Error("states with only unfair actions enabled are p-deadlocked")
	}
}

func TestCheckEventually(t *testing.T) {
	p := counter(t, 5, inc(5))
	g, err := Build(p, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	top := g.SetOf(state.Pred("x=4", func(s state.State) bool { return s.Get(0) == 4 }))
	if v := g.CheckEventually(g.All(), top); v != nil {
		t.Errorf("counter must reach the top: %v", v)
	}
	// Unreachable goal: deadlock violation at the top.
	never := NewBitset(g.NumNodes())
	v := g.CheckEventually(g.All(), never)
	if v == nil || v.Kind != ViolationDeadlock {
		t.Errorf("want deadlock violation, got %v", v)
	}
	// Cycle without escape: livelock violation.
	pc := counter(t, 5, cycle(5))
	gc, err := Build(pc, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v = gc.CheckEventually(gc.All(), never)
	if v == nil || v.Kind != ViolationLivelock || len(v.Cycle) == 0 {
		t.Errorf("want livelock violation with a cycle, got %v", v)
	}
}

func TestCheckEventuallyAlways(t *testing.T) {
	// Goal contains a state that is immediately left again (x=1 under the
	// cycle): EventuallyAlways must use the closed core of the goal.
	p := counter(t, 4, inc(4))
	g, err := Build(p, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	goal := g.SetOf(state.Pred("x≥1", func(s state.State) bool { return s.Get(0) >= 1 }))
	if v := g.CheckEventuallyAlways(g.All(), goal); v != nil {
		t.Errorf("x≥1 is eventually permanent: %v", v)
	}
	flaky := g.SetOf(state.Pred("x=1", func(s state.State) bool { return s.Get(0) == 1 }))
	if v := g.CheckEventuallyAlways(g.All(), flaky); v == nil {
		t.Error("x=1 is not permanent under inc")
	}
}

func TestLargestClosedSubset(t *testing.T) {
	p := counter(t, 5, inc(5))
	g, err := Build(p, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	set := g.SetOf(state.Pred("x≥2", func(s state.State) bool { return s.Get(0) >= 2 }))
	closed := g.LargestClosedSubset(set)
	if !closed.SubsetOf(set) || closed.Count() != 3 {
		t.Errorf("closed subset of x≥2 should be itself (3 states), got %d", closed.Count())
	}
	set2 := g.SetOf(state.Pred("x∈{1,3}", func(s state.State) bool { return s.Get(0) == 1 || s.Get(0) == 3 }))
	closed2 := g.LargestClosedSubset(set2)
	if closed2.Count() != 0 {
		t.Errorf("x∈{1,3} has empty closed core, got %d states", closed2.Count())
	}
}

func TestFilterEdgesAndRestrictFair(t *testing.T) {
	p := counter(t, 4, cycle(4))
	g, err := Build(p, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noEdges := g.FilterEdges(func(int, Edge) bool { return false })
	if noEdges.NumEdges() != 0 {
		t.Error("filtered graph should have no edges")
	}
	if noEdges.Deadlocked(0) {
		t.Error("filtering edges must not change enabledness/deadlock")
	}
	unfair := g.RestrictFair(func(int) bool { return false })
	if unfair.FairAction(0) {
		t.Error("RestrictFair should demote the action")
	}
}

func TestBitsetProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		n := 1 + rng.Intn(200)
		a, b := NewBitset(n), NewBitset(n)
		for i := 0; i < n/2; i++ {
			a.Add(rng.Intn(n))
			b.Add(rng.Intn(n))
		}
		union := a.Clone()
		union.Union(b)
		inter := a.Clone()
		inter.Intersect(b)
		// |A∪B| + |A∩B| = |A| + |B|
		if union.Count()+inter.Count() != a.Count()+b.Count() {
			return false
		}
		// A ⊆ A∪B and A∩B ⊆ A
		if !a.SubsetOf(union) || !inter.SubsetOf(a) {
			return false
		}
		// Complement: |A| + |¬A| = n
		if a.Count()+a.Complement().Count() != n {
			return false
		}
		// Subtract: A \ B disjoint from B
		diff := a.Clone()
		diff.Subtract(b)
		check := diff.Clone()
		check.Intersect(b)
		return check.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(70)
	b.Add(0)
	b.Add(63)
	b.Add(64)
	b.Add(69)
	if b.Count() != 4 || !b.Has(64) || b.Has(1) {
		t.Error("bitset add/has wrong across word boundary")
	}
	if got := b.Slice(); len(got) != 4 || got[3] != 69 {
		t.Errorf("Slice = %v", got)
	}
	if b.Any() != 0 {
		t.Errorf("Any = %d", b.Any())
	}
	b.Remove(0)
	if b.Has(0) || b.Count() != 3 {
		t.Error("remove failed")
	}
	empty := NewBitset(70)
	if !empty.Empty() || empty.Any() != -1 {
		t.Error("empty bitset misbehaves")
	}
	comp := empty.Complement()
	if comp.Count() != 70 {
		t.Errorf("complement of empty has %d elements, want 70", comp.Count())
	}
}

// TestPathBetweenEdgeCases pins the corner cases of the BFS: an empty (or
// fully out-of-within) source set must report no path without touching the
// parent arrays, and a goal node already inside `from` must yield the
// single-state path.
func TestPathBetweenEdgeCases(t *testing.T) {
	p := counter(t, 6, inc(6))
	g, err := Build(p, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	goal := NewBitset(g.NumNodes())
	goal.Add(mustNode(t, g, 4))

	empty := NewBitset(g.NumNodes())
	if path, ok := g.PathBetween(empty, goal, nil); ok || path != nil {
		t.Errorf("empty from: got path %v ok=%v, want nil,false", path, ok)
	}

	// An empty goal needs no search: a deadlock-free graph's deadlock
	// question, from every node, allocates nothing.
	if path, ok := g.PathBetween(g.All(), empty, nil); ok || path != nil {
		t.Errorf("empty goal: got path %v ok=%v, want nil,false", path, ok)
	}
	all := g.All()
	if allocs := testing.AllocsPerRun(10, func() { g.PathBetween(all, empty, nil) }); allocs != 0 {
		t.Errorf("empty goal: PathBetween allocated %.0f times, want 0", allocs)
	}

	// from nonempty but entirely outside within — same early exit.
	from := NewBitset(g.NumNodes())
	from.Add(mustNode(t, g, 1))
	within := NewBitset(g.NumNodes())
	within.Add(mustNode(t, g, 4))
	if path, ok := g.PathBetween(from, goal, within); ok || path != nil {
		t.Errorf("from outside within: got path %v ok=%v, want nil,false", path, ok)
	}

	// goal ⊆ from: the path is the goal state itself, length 1, no steps.
	both := NewBitset(g.NumNodes())
	both.Add(mustNode(t, g, 2))
	both.Add(mustNode(t, g, 4))
	path, ok := g.PathBetween(both, goal, nil)
	if !ok || len(path) != 1 {
		t.Fatalf("goal inside from: path len %d ok=%v, want 1,true", len(path), ok)
	}
	if path[0].Get(0) != 4 {
		t.Errorf("goal inside from: path ends at x=%d, want 4", path[0].Get(0))
	}
}
