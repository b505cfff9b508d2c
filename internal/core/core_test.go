package core_test

import (
	"strings"
	"testing"

	"detcorr/internal/core"
	"detcorr/internal/explore"
	"detcorr/internal/fault"
	"detcorr/internal/gcl"
	"detcorr/internal/guarded"
	"detcorr/internal/memaccess"
	"detcorr/internal/state"
)

// restoreTemplate is the generic recovery action used by the synthesis
// tests: re-establish the page.
func restoreTemplate(sch *state.Schema) guarded.Action {
	return guarded.Det("recover-page",
		state.Pred("¬present", func(s state.State) bool { return s.GetName("present") == 0 }),
		func(s state.State) state.State { return s.WithName("present", 1) },
	)
}

func TestWeakestDetectionPredicateMemaccess(t *testing.T) {
	sys := memaccess.MustNew(2)
	sf := core.WeakestDetectionPredicate(sys.Intolerant, 0, sys.Spec.FailSafeSpec())
	// For V=2 the weakest detection predicate of the read action is:
	// the address is present, or data already holds the only wrong value
	// (re-writing it is not a "set to an incorrect value").
	err := sys.BaseSchema.ForEachState(func(s state.State) bool {
		want := s.GetName("present") != 0 || s.GetName("data") == (1-s.GetName("val"))+1
		if got := sf.Holds(s); got != want {
			t.Errorf("sf(%s) = %v, want %v", s, got, want)
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAddFailSafeMemaccess(t *testing.T) {
	sys := memaccess.MustNew(2)
	synth := core.AddFailSafe(sys.Intolerant, sys.Spec.FailSafeSpec())
	rep := fault.CheckFailSafe(synth, sys.PageFaultBase, sys.Spec, sys.S)
	if !rep.OK() {
		t.Errorf("synthesized fail-safe program should be fail-safe tolerant: %v", rep.Err)
	}
	// And it genuinely lost masking (it can block after a fault).
	if rep := fault.CheckMasking(synth, sys.PageFaultBase, sys.Spec, sys.S); rep.OK() {
		t.Error("synthesized fail-safe program must not be masking tolerant")
	}
}

func TestAddNonmaskingMemaccess(t *testing.T) {
	sys := memaccess.MustNew(2)
	synth, err := core.AddNonmasking(sys.Intolerant, sys.PageFaultBase, sys.S, []guarded.Action{restoreTemplate(sys.BaseSchema)})
	if err != nil {
		t.Fatal(err)
	}
	rep := fault.CheckNonmasking(synth, sys.PageFaultBase, sys.Spec, sys.S, sys.S)
	if !rep.OK() {
		t.Errorf("synthesized nonmasking program should be nonmasking tolerant: %v", rep.Err)
	}
}

func TestAddMaskingMemaccess(t *testing.T) {
	sys := memaccess.MustNew(2)
	synth, err := core.AddMasking(sys.Intolerant, sys.PageFaultBase, sys.Spec, sys.S, []guarded.Action{restoreTemplate(sys.BaseSchema)})
	if err != nil {
		t.Fatal(err)
	}
	rep := fault.CheckMasking(synth, sys.PageFaultBase, sys.Spec, sys.S)
	if !rep.OK() {
		t.Errorf("synthesized masking program should be masking tolerant: %v", rep.Err)
	}
}

func TestSynthesisMatchesHandwritten(t *testing.T) {
	// The synthesized programs land in the same tolerance classes as the
	// paper's hand-written pf/pn/pm (E10).
	sys := memaccess.MustNew(3)
	synthFS := core.AddFailSafe(sys.Intolerant, sys.Spec.FailSafeSpec())
	synthNM, err := core.AddNonmasking(sys.Intolerant, sys.PageFaultBase, sys.S, []guarded.Action{restoreTemplate(sys.BaseSchema)})
	if err != nil {
		t.Fatal(err)
	}
	synthM, err := core.AddMasking(sys.Intolerant, sys.PageFaultBase, sys.Spec, sys.S, []guarded.Action{restoreTemplate(sys.BaseSchema)})
	if err != nil {
		t.Fatal(err)
	}
	type verdicts struct{ fs, nm, m bool }
	classify := func(p *guarded.Program, f fault.Class) verdicts {
		return verdicts{
			fs: fault.CheckFailSafe(p, f, sys.Spec, sys.S).OK(),
			nm: fault.CheckNonmasking(p, f, sys.Spec, sys.S, sys.S).OK(),
			m:  fault.CheckMasking(p, f, sys.Spec, sys.S).OK(),
		}
	}
	handFS := classify(sys.FailSafe, sys.PageFaultWitness)
	handNM := classify(sys.Nonmasking, sys.PageFaultBase)
	handM := classify(sys.Masking, sys.PageFaultWitness)
	gotFS := classify(synthFS, sys.PageFaultBase)
	gotNM := classify(synthNM, sys.PageFaultBase)
	gotM := classify(synthM, sys.PageFaultBase)
	if gotFS != handFS {
		t.Errorf("fail-safe verdicts differ: synthesized %+v, handwritten %+v", gotFS, handFS)
	}
	if gotNM != handNM {
		t.Errorf("nonmasking verdicts differ: synthesized %+v, handwritten %+v", gotNM, handNM)
	}
	if gotM != handM {
		t.Errorf("masking verdicts differ: synthesized %+v, handwritten %+v", gotM, handM)
	}
}

func TestSynthesizeCorrectorReportsUnreachable(t *testing.T) {
	sys := memaccess.MustNew(2)
	// A useless recovery template (it cannot re-establish the page).
	noop := guarded.Skip("noop", state.Pred("¬present", func(s state.State) bool {
		return s.GetName("present") == 0
	}))
	_, _, err := core.SynthesizeCorrector("broken", sys.BaseSchema, state.True, sys.S, []guarded.Action{noop})
	if err == nil || !strings.Contains(err.Error(), "cannot reach the target") {
		t.Errorf("expected unreachable-states error, got %v", err)
	}
}

func TestComputeRanking(t *testing.T) {
	sys := memaccess.MustNew(2)
	recovery := guarded.MustProgram("rec", sys.BaseSchema, restoreTemplate(sys.BaseSchema))
	rank, err := core.ComputeRanking(recovery, state.True, sys.S)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.BaseSchema.ForEachState(func(s state.State) bool {
		d, ok := rank.Rank(s)
		if !ok {
			t.Errorf("state %s should be ranked", s)
			return false
		}
		want := 0
		if s.GetName("present") == 0 {
			want = 1
		}
		if d != want {
			t.Errorf("rank(%s) = %d, want %d", s, d, want)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTheorem3_4OnFailSafeMemaccess(t *testing.T) {
	sys := memaccess.MustNew(2)
	res := core.Theorem3_4(sys.Intolerant, sys.FailSafe, sys.Spec.FailSafeSpec(), sys.S)
	if !res.OK() {
		t.Fatalf("Theorem 3.4 instance: %v", res.Err)
	}
	if len(res.Detectors) != 1 {
		t.Errorf("want one detector, got %d", len(res.Detectors))
	}
}

func TestTheoremHypothesisFailureIsReported(t *testing.T) {
	// Feeding the *intolerant* program as its own refinement with a fault
	// class it cannot tolerate must fail on a hypothesis, not panic.
	sys := memaccess.MustNew(2)
	res := core.Theorem3_6(sys.Intolerant, sys.Nonmasking, sys.Spec, sys.PageFaultBase, sys.S, sys.S)
	if res.OK() {
		t.Fatal("pn is not fail-safe tolerant; Theorem 3.6 hypothesis or conclusion must fail")
	}
	if !strings.Contains(res.Err.Error(), "hypothesis") && !strings.Contains(res.Err.Error(), "conclusion") {
		t.Errorf("failure should name the failed obligation: %v", res.Err)
	}
}

func TestDetectorConditionFailures(t *testing.T) {
	// A two-bit program where Z can hold without X: Safeness must fail.
	sch := state.MustSchema(state.BoolVar("z"), state.BoolVar("x"))
	setZ := guarded.Det("setZ", state.Pred("¬z", func(s state.State) bool { return !s.Bool(0) }),
		func(s state.State) state.State { return s.WithBool(0, true) })
	p := guarded.MustProgram("bad", sch, setZ)
	d := core.Detector{
		D: p,
		Z: state.VarTrue(sch, "z"),
		X: state.VarTrue(sch, "x"),
		U: state.True,
	}
	err := d.Check()
	var cerr *core.ConditionError
	if !asCondition(err, &cerr) || cerr.Condition != "Safeness" {
		t.Fatalf("want Safeness violation, got %v", err)
	}

	// A program that truthifies Z only from x, then falsifies Z while X
	// stays true: Stability must fail.
	reset := guarded.Det("resetZ", state.Pred("z ∧ x", func(s state.State) bool { return s.Bool(0) && s.Bool(1) }),
		func(s state.State) state.State { return s.WithBool(0, false) })
	setZfromX := guarded.Det("setZ", state.Pred("x ∧ ¬z", func(s state.State) bool { return s.Bool(1) && !s.Bool(0) }),
		func(s state.State) state.State { return s.WithBool(0, true) })
	p2 := guarded.MustProgram("unstable", sch, setZfromX, reset)
	d2 := core.Detector{D: p2, Z: state.VarTrue(sch, "z"), X: state.VarTrue(sch, "x"),
		U: state.Pred("z ⇒ x", func(s state.State) bool { return !s.Bool(0) || s.Bool(1) })}
	err = d2.Check()
	if !asCondition(err, &cerr) || cerr.Condition != "Stability" {
		t.Fatalf("want Stability violation, got %v", err)
	}

	// A program that never truthifies Z while X holds forever: Progress
	// must fail (deadlock outside the goal).
	p3 := guarded.MustProgram("silent", sch)
	d3 := core.Detector{D: p3, Z: state.VarTrue(sch, "z"), X: state.VarTrue(sch, "x"),
		U: state.Pred("¬z", func(s state.State) bool { return !s.Bool(0) })}
	err = d3.Check()
	if !asCondition(err, &cerr) || cerr.Condition != "Progress" {
		t.Fatalf("want Progress violation, got %v", err)
	}
}

func TestCorrectorConvergenceFailure(t *testing.T) {
	// X is reachable but can be abandoned: Convergence must fail on the
	// X-falsifying step.
	sch := state.MustSchema(state.BoolVar("x"))
	flip := guarded.Det("flip", state.True, func(s state.State) state.State {
		return s.WithBool(0, !s.Bool(0))
	})
	p := guarded.MustProgram("flipper", sch, flip)
	c := core.Corrector{C: p, Z: state.VarTrue(sch, "x"), X: state.VarTrue(sch, "x"), U: state.True}
	err := c.Check()
	var cerr *core.ConditionError
	if !asCondition(err, &cerr) || cerr.Condition != "Convergence" {
		t.Fatalf("want Convergence violation, got %v", err)
	}
}

// TestCorrectorToleranceFailuresNameTheCorrector holds a corrector's
// fail-safe and masking failures over the fault span to the corrector's
// name, as its fault-free failures are, and its fail-safe X-closure failure
// to the action that falsifies X, as the masking one does.
func TestCorrectorToleranceFailuresNameTheCorrector(t *testing.T) {
	load := func(src string) *gcl.File {
		t.Helper()
		f, err := gcl.ParseAndCompile(src)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// The fault makes Z ∧ ¬X reachable: Safeness fails over the span.
	lab := load(`program lab
var z : bool
var x : bool
pred Z :: z
pred X :: x
pred U :: z & x
action hold :: z & x -> z := true
fault drop :: z & x -> x := false
`)
	c := core.Corrector{Name: lab.Name, C: lab.Program, Z: lab.Preds["Z"], X: lab.Preds["X"], U: lab.Preds["U"]}
	for _, kind := range []fault.Kind{fault.FailSafe, fault.Masking} {
		err := c.CheckFTolerant(lab.Faults, kind)
		var cerr *core.ConditionError
		if !asCondition(err, &cerr) || cerr.Condition != "Safeness" || cerr.Component != c.String() {
			t.Errorf("%v: want the corrector's Safeness violation, got %v", kind, err)
		}
	}
	// The fault leads to a state where a program action falsifies X.
	drift := load(`program drift
var x : bool
var y : bool
pred X :: x
pred U :: x & y
action slip :: x & !y -> x := false
fault knock :: x & y -> y := false
`)
	c = core.Corrector{Name: drift.Name, C: drift.Program, Z: drift.Preds["X"], X: drift.Preds["X"], U: drift.Preds["U"]}
	for _, kind := range []fault.Kind{fault.FailSafe, fault.Masking} {
		err := c.CheckFTolerant(drift.Faults, kind)
		var cerr *core.ConditionError
		if !asCondition(err, &cerr) || cerr.Condition != "Convergence" || cerr.Component != c.String() ||
			!strings.Contains(err.Error(), "(action slip) falsifies X") {
			t.Errorf("%v: want the corrector's X-closure violation by slip, got %v", kind, err)
		}
	}
}

func TestExtensionalPredicate(t *testing.T) {
	sys := memaccess.MustNew(2)
	g, err := explore.Build(sys.Intolerant, state.True, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	set := g.SetOf(sys.S)
	pred := core.ExtensionalPredicate("S-ext", g, set)
	err = sys.BaseSchema.ForEachState(func(s state.State) bool {
		if pred.Holds(s) != sys.S.Holds(s) {
			t.Errorf("extensional predicate disagrees at %s", s)
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func asCondition(err error, target **core.ConditionError) bool {
	if err == nil {
		return false
	}
	c, ok := err.(*core.ConditionError)
	if ok {
		*target = c
	}
	return ok
}

func TestPrevalidateRejectsBadWrites(t *testing.T) {
	sys := memaccess.MustNew(2)
	bad := guarded.Action{
		Name:   "miswired",
		Guard:  state.True,
		Next:   func(s state.State) []state.State { return []state.State{s} },
		Writes: []string{"no-such-var"},
	}
	prog, err := guarded.NewProgram("bad", sys.BaseSchema, bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.AddNonmasking(prog, sys.PageFaultBase, sys.S, nil); err == nil {
		t.Fatal("AddNonmasking should reject an action declaring a write to an unknown variable")
	} else if !strings.Contains(err.Error(), "no-such-var") {
		t.Errorf("error should name the unknown variable: %v", err)
	}
	if _, _, err := core.SynthesizeCorrector("c", sys.BaseSchema, state.True, sys.S, []guarded.Action{bad}); err == nil {
		t.Fatal("SynthesizeCorrector should reject a miswired recovery template")
	}
}
