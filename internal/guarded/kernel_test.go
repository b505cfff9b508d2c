package guarded

import (
	"testing"

	"detcorr/internal/state"
)

// closureProgram is a small program whose actions carry only closures — no
// Stmt fast path beyond what Det provides and no Compiled bytecode — so the
// kernel must route every transition through the generic adapter.
func closureProgram(t *testing.T) *Program {
	t.Helper()
	sch, err := state.NewSchema(state.IntVar("x", 4), state.IntVar("y", 3), state.BoolVar("f"))
	if err != nil {
		t.Fatal(err)
	}
	acts := []Action{
		Det("step",
			state.Pred("x<3", func(s state.State) bool { return s.Get(0) < 3 }),
			func(s state.State) state.State { return s.With(0, s.Get(0)+1) },
		),
		Det("wrap",
			state.Pred("x=3", func(s state.State) bool { return s.Get(0) == 3 }),
			func(s state.State) state.State { return s.With(0, 0).With(2, 1) },
		),
		Choice("branch", state.Pred("f", func(s state.State) bool { return s.Bool(2) }),
			func(s state.State) []state.State {
				out := make([]state.State, 0, 3)
				for v := 0; v < 3; v++ {
					out = append(out, s.With(1, v).With(2, 0))
				}
				return out
			},
		),
	}
	return MustProgram("closures", sch, acts...)
}

// TestKernelAdapterMatchesSuccessors pins the generic closure adapter to the
// Program.Successors contract over the full state space: same targets, same
// action attribution, same order.
func TestKernelAdapterMatchesSuccessors(t *testing.T) {
	p := closureProgram(t)
	k := Compile(p)
	for a := 0; a < k.NumActions(); a++ {
		if k.Native(a) {
			t.Fatalf("action %d unexpectedly native — this test wants the adapter path", a)
		}
	}
	sc := k.NewScratch()
	n, _ := p.Schema().NumStates()
	var succ []Succ
	for idx := uint64(0); idx < n; idx++ {
		succ = sc.Transitions(idx, succ[:0])
		s := p.Schema().StateAt(idx)
		want := p.Successors(s)
		if len(succ) != len(want) {
			t.Fatalf("state %d: %d kernel transitions, %d closure successors", idx, len(succ), len(want))
		}
		for i, tr := range want {
			if int(succ[i].Action) != tr.Action || succ[i].To != tr.To.Index() {
				t.Fatalf("state %d transition %d: kernel (%d,%d) vs closure (%d,%d)",
					idx, i, succ[i].Action, succ[i].To, tr.Action, tr.To.Index())
			}
		}
	}
}

// TestKernelAdapterAllocCeiling is the companion regression gate to the GCL
// zero-alloc test: the closure adapter cannot be allocation-free (each
// closure call builds fresh State values), but its per-batch allocation count
// must stay bounded by a small constant — if a change makes it scale with
// anything other than the emitted successors, this trips.
func TestKernelAdapterAllocCeiling(t *testing.T) {
	p := closureProgram(t)
	k := Compile(p)
	sc := k.NewScratch()
	n, _ := p.Schema().NumStates()
	idxBuf := make([]uint64, 0, 16)
	for idx := uint64(0); idx < n; idx++ { // warm internal buffers
		idxBuf = sc.Step(idx, idxBuf[:0])
	}
	var idx uint64
	allocs := testing.AllocsPerRun(500, func() {
		idxBuf = sc.Step(idx%n, idxBuf[:0])
		idx++
	})
	// The worst state has 1 Det successor (2 allocs via With) plus 3 Choice
	// successors (slice + 6 With copies + adapter view). 32 is a generous
	// ceiling — the point is catching accidental O(states)·large regressions,
	// not pinning the exact constant.
	if allocs > 32 {
		t.Errorf("closure adapter: %v allocs per step batch, ceiling 32", allocs)
	}
}

// handBuilt is a program over x : 0..3, y : 0..2 and a boolean z with one
// action carrying hand-written bytecode next to its closures:
//
//	action a :: x < y -> z := (x == 0), x := x + inc
//
// Its key — x and y read, x and z written — spans 4·3·2 = 24 points. The
// guard keeps x ≤ 1, so with inc = 1 every write stays in x's domain; with
// inc = 3 the write leaves it where x = 1 (x becomes 4).
func handBuilt(t *testing.T, inc int) *Program {
	t.Helper()
	sch := state.MustSchema(state.IntVar("x", 4), state.IntVar("y", 3), state.BoolVar("z"))
	a := Det("a",
		state.Pred("x<y", func(s state.State) bool { return s.Get(0) < s.Get(1) }),
		func(s state.State) state.State {
			return s.WithBool(2, s.Get(0) == 0).With(0, s.Get(0)+inc)
		})
	a.Compiled = &CompiledAction{
		Guard: []Op{{Code: OpVar, A: 0}, {Code: OpVar, A: 1}, {Code: OpLt}},
		Assigns: []CompiledAssign{
			{Var: 2, Expr: []Op{{Code: OpVar, A: 0}, {Code: OpConst, A: 0}, {Code: OpEq}}},
			{Var: 0, Expr: []Op{{Code: OpVar, A: 0}, {Code: OpConst, A: int32(inc)}, {Code: OpAdd}}},
		},
	}
	return MustProgram("handbuilt", sch, a)
}

// TestKernelTableLimit moves the table limit across the action's key size:
// at 24 points the action is tabulated, at 23 it runs its bytecode, and both
// emit exactly Program.Successors' transitions.
func TestKernelTableLimit(t *testing.T) {
	p := handBuilt(t, 1)
	n, _ := p.Schema().NumStates()
	for _, tc := range []struct {
		limit int
		tab   bool
	}{{24, true}, {23, false}, {tableLimit, true}, {0, false}} {
		k := compile(p, tc.limit)
		if got := k.acts[0].tab != nil; got != tc.tab {
			t.Fatalf("limit %d: tabulated=%v, want %v", tc.limit, got, tc.tab)
		}
		sc := k.NewScratch()
		var succ []Succ
		for idx := uint64(0); idx < n; idx++ {
			succ = sc.Transitions(idx, succ[:0])
			want := p.Successors(p.Schema().StateAt(idx))
			if len(succ) != len(want) {
				t.Fatalf("limit %d, state %d: %d transitions, closures %d", tc.limit, idx, len(succ), len(want))
			}
			for i, tr := range want {
				if int(succ[i].Action) != tr.Action || succ[i].To != tr.To.Index() {
					t.Fatalf("limit %d, state %d: kernel (%d,%d), closures (%d,%d)",
						tc.limit, idx, succ[i].Action, succ[i].To, tr.Action, tr.To.Index())
				}
			}
		}
	}
}

// TestKernelTabulatedEscapePanics reaches a table entry whose write leaves
// its domain: every stepping entry point must panic with the bytecode
// path's domain message, and only at that entry.
func TestKernelTabulatedEscapePanics(t *testing.T) {
	p := handBuilt(t, 3)
	sch := p.Schema()
	escaping := state.MustState(sch, 1, 2, 0).Index() // x = 1 → 4
	safe := state.MustState(sch, 0, 2, 0).Index()     // x = 0 → 3
	panicOf := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	byteSc := CompileBytecode(p).NewScratch()
	want := panicOf(func() { byteSc.Transitions(escaping, nil) })
	if want != `guarded: kernel write of 4 out of domain for variable "x" (size 4)` {
		t.Fatalf("bytecode path panicked with %v", want)
	}
	k := Compile(p)
	if k.acts[0].tab == nil {
		t.Fatal("the action is not tabulated")
	}
	sc := k.NewScratch()
	if msg := panicOf(func() { sc.Transitions(safe, nil) }); msg != nil {
		t.Fatalf("in-domain entry panicked: %v", msg)
	}
	for name, step := range map[string]func(){
		"Transitions":   func() { sc.Transitions(escaping, nil) },
		"TransitionsOf": func() { sc.TransitionsOf(escaping, 0, nil) },
		"Step":          func() { sc.Step(escaping, nil) },
	} {
		if msg := panicOf(step); msg != want {
			t.Errorf("%s panicked with %v, want %v", name, msg, want)
		}
	}
	// The guard itself is fine at the escaping entry.
	sc.Load(escaping)
	if !sc.Enabled(0) {
		t.Error("the escaping entry's guard holds")
	}
}

// TestKernelFanout: wherever an action is enabled it emits exactly Fanout
// transitions — one per valuation of a compiled action's '?' variables,
// tabulated or not, and one for a deterministic closure — while a closure
// with a set of next states reports -1.
func TestKernelFanout(t *testing.T) {
	sch := state.MustSchema(state.IntVar("x", 4), state.IntVar("y", 3), state.BoolVar("z"))
	xLtY := state.Pred("x<y", func(s state.State) bool { return s.Get(0) < s.Get(1) })
	det := Det("det", xLtY, func(s state.State) state.State { return s.With(0, s.Get(0)+1) })
	wild := Choice("wild", xLtY, func(s state.State) []state.State {
		var out []state.State
		for y := 0; y < 3; y++ {
			out = append(out, s.With(1, y).WithBool(2, false), s.With(1, y).WithBool(2, true))
		}
		return out
	})
	wild.Compiled = &CompiledAction{
		Guard:   []Op{{Code: OpVar, A: 0}, {Code: OpVar, A: 1}, {Code: OpLt}},
		Assigns: []CompiledAssign{{Var: 1, Wild: true}, {Var: 2, Wild: true}},
	}
	some := Choice("some", xLtY, func(s state.State) []state.State {
		var out []state.State
		for x := 0; x <= s.Get(0); x++ {
			out = append(out, s.With(0, x))
		}
		return out
	})
	p := MustProgram("fanout", sch, det, wild, some)
	want := []int{1, 6, -1}
	n, _ := sch.NumStates()
	for _, k := range []*Kernel{Compile(p), CompileBytecode(p)} {
		sc := k.NewScratch()
		var succ []Succ
		for a, w := range want {
			if got := k.Fanout(a); got != w {
				t.Errorf("%s: Fanout = %d, want %d", p.Action(a).Name, got, w)
			}
			enabled := 0
			for idx := uint64(0); idx < n && w >= 0; idx++ {
				if succ = sc.TransitionsOf(idx, a, succ[:0]); len(succ) > 0 {
					enabled++
					if len(succ) != w {
						t.Fatalf("%s at state %d: %d transitions, Fanout %d", p.Action(a).Name, idx, len(succ), w)
					}
				}
			}
			if w >= 0 && enabled == 0 {
				t.Errorf("%s is enabled nowhere", p.Action(a).Name)
			}
		}
	}
}
