package explore

import (
	"context"
	"errors"
	"testing"

	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// The hunt rule: a hunt stops enumerating transitions once its visited set
// holds the whole state space. These tests pin that it engages (from true
// at seeding, from a smaller init mid-run), that witnesses still equal the
// graph path in RAM and spilled, that MaxStates stays exact, and that a
// plain Scan keeps enumerating every edge.

// glitchRecovery deadlocks only through its unfair fault, and the fault
// completes the state space mid-run from !c:
//
//	action step    :: !c -> x := (x + 1) % 6
//	action recover :: c & x > 0 -> x := x - 1
//	fault glitch   :: !c & x == 5 -> c := true, x := ?
//
// The deadlocks are c & x = 0.
func glitchRecovery() (*guarded.Program, []bool) {
	sch := state.MustSchema(state.IntVar("x", 6), state.BoolVar("c"))
	step := guarded.Det("step", state.Pred("!c", func(s state.State) bool { return !s.Bool(1) }),
		func(s state.State) state.State { return s.With(0, (s.Get(0)+1)%6) })
	undo := guarded.Det("recover", state.Pred("c & x>0", func(s state.State) bool { return s.Bool(1) && s.Get(0) > 0 }),
		func(s state.State) state.State { return s.With(0, s.Get(0)-1) })
	glitch := guarded.Choice("glitch", state.Pred("!c & x=5", func(s state.State) bool { return !s.Bool(1) && s.Get(0) == 5 }),
		func(s state.State) []state.State {
			out := make([]state.State, 6)
			for x := range out {
				out[x] = s.WithBool(1, true).With(0, x)
			}
			return out
		})
	return guarded.MustProgram("glitch-recovery", sch, step, undo, glitch), []bool{true, true, false}
}

// allBut holds everywhere except at the state with index idx.
func allBut(idx uint64) state.Predicate {
	return state.Pred("not-the-one", func(s state.State) bool { return s.Index() != idx })
}

// huntEdges runs the hunt behind FindDeadlock with a never-firing deadlock
// visitor and returns its stats: how many transitions it enumerated.
func huntEdges(t *testing.T, p *guarded.Program, init state.Predicate, opts ScanOptions) ScanStats {
	t.Helper()
	st, err := openStore(opts.MemBudget, opts.SpillDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.finish()
	log := st.newParentLog(int(st.budget / 4))
	defer log.close()
	stats, err := scan(context.Background(), st, p, init, opts,
		Scanner{Deadlock: func(state.State) bool { return true }}, log.record)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestHuntRuleEngages(t *testing.T) {
	p := counter(t, 9, inc(9), cycle(9))
	g, err := Build(p, state.True, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// From true, seeding discovers everything: no transition is enumerated.
	if stats := huntEdges(t, p, state.True, ScanOptions{}); stats.Edges != 0 || stats.States != 9 {
		t.Errorf("hunt from true: %d states, %d edges; want 9 states, 0 edges", stats.States, stats.Edges)
	}
	// From all but x = 4, the expansion of x = 3 completes the space: the
	// hunt enumerates the transitions of x = 0..3 and no more.
	if stats := huntEdges(t, p, allBut(4), ScanOptions{}); stats.Edges != 8 || stats.States != 9 {
		t.Errorf("hunt from all but x=4: %d states, %d edges; want 9 states, 8 edges", stats.States, stats.Edges)
	}
	// A plain scan keeps enumerating: every edge, with or without visitors.
	for name, v := range map[string]Scanner{
		"empty":    {},
		"deadlock": {Deadlock: func(state.State) bool { return true }},
	} {
		stats, err := Scan(p, state.True, ScanOptions{}, v)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Edges != g.NumEdges() {
			t.Errorf("%s scan: %d edges, the graph has %d", name, stats.Edges, g.NumEdges())
		}
	}
}

func TestHuntRuleWitnessesMatchGraphPath(t *testing.T) {
	glitch, glitchFair := glitchRecovery()
	chain := counter(t, 9, inc(9))
	cases := []struct {
		name string
		prog *guarded.Program
		init state.Predicate
		fair []bool
	}{
		{"chain/true", chain, state.True, nil},
		{"chain/all-but-top", chain, allBut(8), nil},
		{"glitch/true", glitch, state.True, glitchFair},
		{"glitch/through-the-fault", glitch, state.Pred("!c", func(s state.State) bool { return !s.Bool(1) }), glitchFair},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := Build(tc.prog, tc.init, Options{Fair: tc.fair})
			if err != nil {
				t.Fatal(err)
			}
			want, ok := g.PathBetween(g.SetOf(tc.init), g.DeadlockSet(), nil)
			if !ok {
				t.Fatal("the graph has no path to a deadlock")
			}
			for _, opts := range []ScanOptions{
				{Fair: tc.fair, MemBudget: -1},
				{Fair: tc.fair, MemBudget: spillMinBudget, SpillDir: t.TempDir()},
			} {
				trace, found, err := FindDeadlock(tc.prog, tc.init, opts)
				if err != nil || !found {
					t.Fatalf("budget %d: found=%v err=%v", opts.MemBudget, found, err)
				}
				if len(trace) != len(want) {
					t.Fatalf("budget %d: witness has %d states, graph path %d", opts.MemBudget, len(trace), len(want))
				}
				for i := range want {
					if !trace[i].Equal(want[i]) {
						t.Fatalf("budget %d: witness[%d] = %s, graph path has %s", opts.MemBudget, i, trace[i], want[i])
					}
				}
			}
		})
	}
	// The fault is the only way to the deadlocks: from !c the witness is
	// the glitch itself, and it completes the space mid-run.
	trace, _, _ := FindDeadlock(glitch, state.Pred("!c", func(s state.State) bool { return !s.Bool(1) }), ScanOptions{Fair: glitchFair})
	if len(trace) != 2 || trace[0].Get(0) != 5 || trace[0].Bool(1) || trace[1].Get(0) != 0 || !trace[1].Bool(1) {
		t.Errorf("through-the-fault witness = %v, want (x=5, !c) then (x=0, c)", trace)
	}
	if stats := huntEdges(t, glitch, state.Pred("!c", func(s state.State) bool { return !s.Bool(1) }), ScanOptions{Fair: glitchFair}); stats.Edges != 12 {
		t.Errorf("hunt through the fault enumerated %d edges, want the 6 seeds' 12", stats.Edges)
	}
}

func TestHuntRuleMaxStatesExact(t *testing.T) {
	// No deadlock, so every hunt runs to the end: it must fail iff the
	// space exceeds the bound, whether seeding or a transition completes it.
	p := counter(t, 9, cycle(9))
	for _, init := range []state.Predicate{state.True, allBut(4)} {
		for _, budget := range []int64{-1, spillMinBudget} {
			opts := ScanOptions{MaxStates: 8, MemBudget: budget}
			if budget > 0 {
				opts.SpillDir = t.TempDir()
			}
			if _, _, err := FindDeadlock(p, init, opts); !errors.Is(err, ErrStateBound) {
				t.Errorf("%s, budget %d, bound 8: want ErrStateBound, got %v", init, budget, err)
			}
			opts.MaxStates = 9
			if _, found, err := FindDeadlock(p, init, opts); err != nil || found {
				t.Errorf("%s, budget %d, bound 9: found=%v err=%v", init, budget, found, err)
			}
		}
	}
}

func TestHuntRejectsEdgeVisitor(t *testing.T) {
	p := counter(t, 3, inc(3))
	_, _, err := Hunt(context.Background(), p, state.True, ScanOptions{}, Scanner{
		Edge: func(from, to state.State, action int, fresh bool) bool { return true },
	})
	if err == nil {
		t.Error("a hunt with an Edge visitor must be refused")
	}
}
