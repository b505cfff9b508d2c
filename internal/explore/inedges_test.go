package explore

import (
	"slices"
	"sync"
	"testing"

	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// mixer is a two-variable program whose states have many and uneven
// in-degrees: x absorbs y, y counts, and a reset funnels half the states
// into x = 0.
func mixer(t *testing.T) *guarded.Program {
	t.Helper()
	sch, err := state.NewSchema(state.IntVar("x", 8), state.IntVar("y", 8))
	if err != nil {
		t.Fatal(err)
	}
	return guarded.MustProgram("mixer", sch,
		guarded.Det("step", state.True, func(s state.State) state.State {
			return s.With(0, (s.Get(0)+s.Get(1))%8)
		}),
		guarded.Det("bump", state.True, func(s state.State) state.State {
			return s.With(1, (s.Get(1)+1)%8)
		}),
		guarded.Det("zero", state.Pred("x>3", func(s state.State) bool { return s.Get(0) > 3 }),
			func(s state.State) state.State { return s.With(0, 0) }))
}

// referenceIn is the in-edge construction that assembly used to run on
// every graph: a counting pass over sources in ascending id order. It is
// the oracle for the CSR that In builds on first use.
func referenceIn(g *Graph) ([]uint32, []Edge) {
	off := make([]uint32, g.n+1)
	for i := range g.outEdges {
		off[g.outEdges[i].To+1]++
	}
	for i := 0; i < g.n; i++ {
		off[i+1] += off[i]
	}
	edges := make([]Edge, len(g.outEdges))
	cursor := make([]uint32, g.n)
	copy(cursor, off[:g.n])
	for v := 0; v < g.n; v++ {
		for _, e := range g.Out(v) {
			edges[cursor[e.To]] = Edge{Action: e.Action, To: v}
			cursor[e.To]++
		}
	}
	return off, edges
}

// requireIn checks every in-list of g against the reference construction.
func requireIn(t *testing.T, name string, g *Graph) {
	t.Helper()
	off, edges := referenceIn(g)
	for id := 0; id < g.NumNodes(); id++ {
		if got, want := g.In(id), edges[off[id]:off[id+1]]; !slices.Equal(got, want) {
			t.Fatalf("%s: In(%d) = %v, want %v", name, id, got, want)
		}
	}
}

// TestInEdgesFirstUseConcurrent: eight goroutines make the first In calls
// on one cached graph at once, as concurrent checks sharing a graph do.
// The in-CSR is built exactly once (the race detector watches the build)
// and every in-list matches the reference construction.
func TestInEdgesFirstUseConcurrent(t *testing.T) {
	p := mixer(t)
	g, err := Shared(p, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer EvictProgram(p)
	if g.in.off != nil {
		t.Fatal("the build assembled the in-edge CSR before any In call")
	}
	off, edges := referenceIn(g)
	n := g.NumNodes()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for k := 0; k < n; k++ {
				id := (k + w*n/8) % n
				if got, want := g.In(id), edges[off[id]:off[id+1]]; !slices.Equal(got, want) {
					t.Errorf("goroutine %d: In(%d) = %v, want %v", w, id, got, want)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
}

// TestInEdgesSharedByViews: views with the parent's edges — a rebind and a
// RestrictFair view — share its in-CSR, so one build serves all of them; a
// FilterEdges view has other edges and builds its own.
func TestInEdgesSharedByViews(t *testing.T) {
	p := mixer(t)
	g, err := Build(p, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rebound, err := Repair(g, mixer(t), identityPlan(p.NumActions()), state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	restricted := g.RestrictFair(func(a int) bool { return a != 0 })
	filtered := g.FilterEdges(func(_ int, e Edge) bool { return e.Action != 1 })
	if rebound.in != g.in || restricted.in != g.in {
		t.Fatal("a rebind and a RestrictFair view must share the parent's in-edge CSR")
	}
	if filtered.in == g.in {
		t.Fatal("a FilterEdges view must build its own in-edge CSR")
	}
	requireIn(t, "restricted", restricted)
	if g.in.off == nil || rebound.in.off == nil {
		t.Error("an In call on a sharing view did not build the shared CSR")
	}
	if filtered.in.off != nil {
		t.Error("an In call on the parent built the filtered view's CSR")
	}
	requireIn(t, "filtered", filtered)
	requireIn(t, "parent", g)
	requireIn(t, "rebound", rebound)
}
