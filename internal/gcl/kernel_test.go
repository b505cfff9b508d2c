package gcl

import (
	"testing"

	"detcorr/internal/fault"
	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// kernelSrcs are GCL programs chosen to cover every lowering path: booleans,
// ranges with offsets, enums, total modulo, deterministic simultaneous
// assignment, and single/multiple '?' wildcards.
var kernelSrcs = map[string]string{
	"memaccess": memaccessSrc,
	"offsets": `
program offsets
var a : 2..5
var b : 1..3
action up   :: a < 5            -> a := a + 1
action mix  :: a == 5 & b < 3   -> a := 2, b := b + 1
action mod  :: b == 3           -> b := (a + b) % 3 + 1
`,
	"wild": `
program wild
var x : 0..2
var y : bool
var z : 0..1
action scramble :: x == 0 -> x := ?, z := ?
action swapwild :: x > 0  -> y := ?, x := x - 1
action settle   :: y      -> y := false, z := x % 2
`,
	"simul": `
program simul
var x : 0..3
var y : 0..3
action swap :: x != y -> x := y, y := x
action wrap :: x == y -> x := (x + 1) % 4
`,
}

// kernelForms are the two ways a native action runs: from its table, and
// from its bytecode alone.
var kernelForms = []struct {
	name    string
	compile func(*guarded.Program) *guarded.Kernel
}{
	{"tabulated", guarded.Compile},
	{"bytecode", guarded.CompileBytecode},
}

// TestKernelMatchesSuccessors checks, state by state over the full space,
// that the compiled kernel emits exactly the transitions Program.Successors
// does — same targets, same actions, same order — for the plain program, the
// fault-composed program, and a restricted composition (which exercises the
// hybrid closure-guard/native-statement path). It runs each kernel form:
// tabulated and bytecode only.
func TestKernelMatchesSuccessors(t *testing.T) {
	for name, src := range kernelSrcs {
		t.Run(name, func(t *testing.T) {
			for _, form := range kernelForms {
				t.Run(form.name, func(t *testing.T) {
					checkKernelOnSource(t, src, form.compile)
				})
			}
		})
	}
}

// checkKernelOnSource compiles src and checks the kernel form against the
// closures on the program, its fault composition and a restriction.
func checkKernelOnSource(t *testing.T, src string, compile func(*guarded.Program) *guarded.Kernel) {
	t.Helper()
	f, err := ParseAndCompile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	progs := []*guarded.Program{f.Program}
	if !f.Faults.Empty() {
		comp, _, err := fault.Compose(f.Program, f.Faults)
		if err != nil {
			t.Fatalf("compose: %v", err)
		}
		progs = append(progs, comp)
	}
	notAll := state.Pred("notTop", func(s state.State) bool {
		return s.Get(0) != s.Schema().Var(0).Domain.Size-1
	})
	progs = append(progs, guarded.Restrict(notAll, f.Program))
	for _, p := range progs {
		checkKernelAgainstProgram(t, compile(p), p)
	}
}

func checkKernelAgainstProgram(t *testing.T, k *guarded.Kernel, p *guarded.Program) {
	t.Helper()
	sc := k.NewScratch()
	var succ []guarded.Succ
	err := p.Schema().ForEachState(func(s state.State) bool {
		idx := s.Index()
		succ = sc.Transitions(idx, succ[:0])
		want := p.Successors(s)
		if len(succ) != len(want) {
			t.Errorf("%s: state %s: kernel %d transitions, closures %d", p.Name(), s, len(succ), len(want))
			return false
		}
		for i, tr := range want {
			if int(succ[i].Action) != tr.Action || succ[i].To != tr.To.Index() {
				t.Errorf("%s: state %s: transition %d: kernel (%d,%d), closures (%d,%d)",
					p.Name(), s, i, succ[i].Action, succ[i].To, tr.Action, tr.To.Index())
				return false
			}
		}
		// Step must agree with Transitions stripped of actions, and the
		// per-action Enabled probe with the guard closures.
		steps := sc.Step(idx, nil)
		for i := range steps {
			if steps[i] != succ[i].To {
				t.Errorf("%s: state %s: Step[%d]=%d, Transitions=%d", p.Name(), s, i, steps[i], succ[i].To)
				return false
			}
		}
		sc.Load(idx)
		for a := 0; a < p.NumActions(); a++ {
			if got, want := sc.Enabled(a), p.Action(a).Enabled(s); got != want {
				t.Errorf("%s: state %s: action %d enabled: kernel %v, closure %v", p.Name(), s, a, got, want)
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatalf("%s: enumerate: %v", p.Name(), err)
	}
}

// TestKernelNative ensures the GCL compiler actually produces native
// bytecode for ordinary programs — otherwise the allocation guarantees test
// a path nobody runs.
func TestKernelNative(t *testing.T) {
	f, err := ParseAndCompile(memaccessSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k := guarded.Compile(f.Program)
	for a := 0; a < k.NumActions(); a++ {
		if !k.Native(a) {
			t.Errorf("action %d (%s) not native", a, f.Program.Action(a).Name)
		}
	}
	// Restriction keeps the statement native but demotes the guard.
	restricted := guarded.Restrict(state.Pred("z", func(state.State) bool { return true }), f.Program)
	rk := guarded.Compile(restricted)
	for a := 0; a < rk.NumActions(); a++ {
		if rk.Native(a) {
			t.Errorf("restricted action %d unexpectedly fully native", a)
		}
		if restricted.Action(a).Compiled == nil {
			t.Errorf("restricted action %d lost its compiled statement", a)
		}
	}
}

// TestKernelStepZeroAllocs is the allocation-regression gate for the
// tentpole: on a mid-size GCL program (token-ring style, three counters mod
// 5 plus wildcards) the native kernel path must do zero heap allocations per
// transition batch once buffers are warm.
func TestKernelStepZeroAllocs(t *testing.T) {
	f, err := ParseAndCompile(`
program ring3
var c0 : 0..4
var c1 : 0..4
var c2 : 0..4
action t0 :: c0 == c2      -> c0 := (c2 + 1) % 5
action t1 :: c1 != c0      -> c1 := c0
action t2 :: c2 != c1      -> c2 := c1
fault  scramble :: true    -> c1 := ?
`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	p, _, err := fault.Compose(f.Program, f.Faults)
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	n, ok := p.Schema().NumStates()
	if !ok {
		t.Fatal("schema not indexable")
	}
	for _, form := range kernelForms {
		sc := form.compile(p).NewScratch()
		idxBuf := make([]uint64, 0, 64)
		succBuf := make([]guarded.Succ, 0, 64)
		row := make([]int32, p.Schema().NumVars())
		// Warm the scratch (succBuf inside Step grows once).
		for idx := uint64(0); idx < n; idx++ {
			idxBuf = sc.Step(idx, idxBuf[:0])
			succBuf = sc.Transitions(idx, succBuf[:0])
		}
		var idx uint64
		allocs := testing.AllocsPerRun(1000, func() {
			idxBuf = sc.Step(idx%n, idxBuf[:0])
			succBuf = sc.Transitions(idx%n, succBuf[:0])
			succBuf = sc.TransitionsOf(idx%n, int(idx%uint64(p.NumActions())), succBuf[:0])
			_ = sc.EnabledOnRow(row, int(idx%uint64(p.NumActions())))
			idx++
		})
		if allocs != 0 {
			t.Errorf("%s kernel path: %v allocs per step batch, want 0", form.name, allocs)
		}
	}
}
