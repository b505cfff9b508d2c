package difftest

import (
	"context"
	"testing"

	"detcorr/internal/core"
	"detcorr/internal/fault"
	"detcorr/internal/gcl"
	"detcorr/internal/prove"
	"detcorr/internal/serve/api"
	"detcorr/internal/spec"
	"detcorr/internal/state"
	"detcorr/internal/verify"
)

// compileAndProve compiles src twice over: the graph checks get the
// compiled program, the prover gets the parsed AST. Nothing is certified,
// so the graph checks below really do enumerate — the agreement is between
// two independent engines, not between the prover and itself.
func compileAndProve(t *testing.T, src string) (*gcl.File, *prove.System) {
	t.Helper()
	f, err := gcl.ParseAndCompile(src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := prove.NewSystem(f.AST)
	if err != nil {
		t.Fatal(err)
	}
	return f, sys
}

// TestProverGraphClosureAgreement cross-checks the exploration-free DC100
// verdicts against spec.CheckClosed over every example system. Closure is
// the one obligation where both engines quantify over the same set (all
// states satisfying the predicate), so agreement is two-way: Proved must
// mean the graph check passes AND Disproved must mean it fails.
func TestProverGraphClosureAgreement(t *testing.T) {
	cases := []struct {
		name, src, pred string
		want            prove.Verdict
	}{
		{"memaccess_pm/S", MemaccessPM, "S", prove.Proved},
		{"memaccess_pm/U1", MemaccessPM, "U1", prove.Proved},
		{"memaccess_pm/X1", MemaccessPM, "X1", prove.Proved},
		{"memaccess_pm/NotZ1", MemaccessPM, "NotZ1", prove.Disproved},
		{"memaccess_pf/S", MemaccessPF, "S", prove.Proved},
		{"memaccess_pf/U1", MemaccessPF, "U1", prove.Proved},
		{"memaccess_pn/S", MemaccessPN, "S", prove.Proved},
		{"memaccess_pn/X1", MemaccessPN, "X1", prove.Proved},
		{"tmr/S", TMRSource, "S", prove.Proved},
		{"tmr/T", TMRSource, "T", prove.Proved},
		{"tmr/Wit", TMRSource, "Wit", prove.Proved},
		{"tmr/OutCorrect", TMRSource, "OutCorrect", prove.Proved},
		{"byzagree/S", ByzAgreeSource, "S", prove.Proved},
		{"byzagree/Done", ByzAgreeSource, "Done", prove.Proved},
		{"byzagree/P0", ByzAgreeSource, "P0", prove.Disproved},
		{"ring4/Legit", RingSource(4, 4), "Legit", prove.Proved},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, sys := compileAndProve(t, tc.src)
			rep, err := prove.ProveClosure(sys, tc.pred)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict != tc.want {
				t.Fatalf("prover verdict = %v, want %v\n%s", rep.Verdict, tc.want, rep)
			}
			p, ok := f.Pred(tc.pred)
			if !ok {
				t.Fatalf("compiled file lost predicate %q", tc.pred)
			}
			graphErr := spec.CheckClosed(f.Program, p)
			switch rep.Verdict {
			case prove.Proved:
				if graphErr != nil {
					t.Fatalf("prover says closed but enumeration disagrees: %v", graphErr)
				}
			case prove.Disproved:
				if graphErr == nil {
					t.Fatalf("prover refutes closure but enumeration finds no violation:\n%s", rep)
				}
			}
		})
	}
}

// TestProverGraphSpanAgreement cross-checks DC101 with the span set to the
// invariant itself: the report's verdict then coincides with closure of the
// predicate in the fault-composed program, which CheckClosed decides by
// enumeration.
func TestProverGraphSpanAgreement(t *testing.T) {
	cases := []struct {
		name, src, pred string
		want            prove.Verdict
	}{
		{"memaccess_pm/U1", MemaccessPM, "U1", prove.Proved},
		{"memaccess_pm/S", MemaccessPM, "S", prove.Disproved},
		{"tmr/T", TMRSource, "T", prove.Proved},
		{"tmr/S", TMRSource, "S", prove.Disproved},
		{"byzagree/Done", ByzAgreeSource, "Done", prove.Proved},
		{"byzagree/S", ByzAgreeSource, "S", prove.Disproved},
		{"ring4/Legit", RingSource(4, 4), "Legit", prove.Disproved},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, sys := compileAndProve(t, tc.src)
			rep, err := prove.ProveSpanClosure(sys, tc.pred, tc.pred)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Verdict != tc.want {
				t.Fatalf("prover verdict = %v, want %v\n%s", rep.Verdict, tc.want, rep)
			}
			composed, _, err := fault.Compose(f.Program, f.Faults)
			if err != nil {
				t.Fatal(err)
			}
			p, ok := f.Pred(tc.pred)
			if !ok {
				t.Fatalf("compiled file lost predicate %q", tc.pred)
			}
			graphErr := spec.CheckClosed(composed, p)
			switch rep.Verdict {
			case prove.Proved:
				if graphErr != nil {
					t.Fatalf("prover says fault-closed but enumeration disagrees: %v", graphErr)
				}
			case prove.Disproved:
				if graphErr == nil {
					t.Fatalf("prover refutes fault closure but enumeration finds no violation:\n%s", rep)
				}
			}
		})
	}
}

// TestProverGraphComponentAgreement cross-checks the full detector and
// corrector bundles. Here agreement is one-way: the prover quantifies over
// all U-states, the graph checks over reachable ones only, so Proved must
// transfer but a prover fallback (false) asserts nothing.
func TestProverGraphComponentAgreement(t *testing.T) {
	cases := []struct {
		name, src, kind, z, x, u string
		wantProved               bool
	}{
		{"memaccess_pm/detector", MemaccessPM, "detector", "Z1p", "X1", "U1", true},
		{"memaccess_pm/corrector", MemaccessPM, "corrector", "X1", "X1", "U1", true},
		{"memaccess_pf/detector", MemaccessPF, "detector", "Z1p", "X1", "U1", true},
		{"memaccess_pn/corrector", MemaccessPN, "corrector", "X1", "X1", "true", true},
		{"byzagree/corrector", ByzAgreeSource, "corrector", "Done", "Done", "S", true},
		// Dijkstra's ring converges from everywhere, but the proof needs a
		// genuinely global variant function the greedy synthesis cannot
		// find: the prover must decline (never disprove) and the graph
		// check must still succeed on its own.
		{"ring3/corrector-fallback", RingSource(3, 3), "corrector", "Legit", "Legit", "true", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, sys := compileAndProve(t, tc.src)
			got := prove.ProveComponent(sys, tc.kind, tc.z, tc.x, tc.u)
			if got != tc.wantProved {
				t.Fatalf("ProveComponent(%s) = %v, want %v", tc.kind, got, tc.wantProved)
			}
			z := mustPred(t, f, tc.z)
			x := mustPred(t, f, tc.x)
			u := mustPred(t, f, tc.u)
			var graphErr error
			if tc.kind == "detector" {
				graphErr = core.Detector{D: f.Program, Z: z, X: x, U: u}.Check()
			} else {
				graphErr = core.Corrector{C: f.Program, Z: z, X: x, U: u}.Check()
			}
			if graphErr != nil && got {
				t.Fatalf("prover certified the %s but the graph check fails: %v", tc.kind, graphErr)
			}
			if graphErr != nil {
				t.Fatalf("graph check should hold for every listed component: %v", graphErr)
			}
		})
	}
}

func mustPred(t *testing.T, f *gcl.File, name string) state.Predicate {
	t.Helper()
	if name == "true" {
		return state.True
	}
	p, ok := f.Pred(name)
	if !ok {
		t.Fatalf("predicate %q not in compiled file", name)
	}
	return p
}

// TestCertifiedFastPathSoundness drives the prover rung of the decision
// ladder end to end: closure decided through verify.Decide must return the
// verdict enumeration returns — from the prover for proved obligations —
// and the fault-composed program, which no ladder value covers, must still
// fail by enumeration.
func TestCertifiedFastPathSoundness(t *testing.T) {
	src := RingSource(4, 4)
	f, err := gcl.ParseAndCompile(src)
	if err != nil {
		t.Fatal(err)
	}
	v := verify.New(f, nil)
	resp, rung, err := verify.Decide(context.Background(), v, api.Request{Program: src, Check: api.CheckClosure, Invariant: "Legit"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != api.VerdictHolds {
		t.Fatalf("closure of Legit through the ladder: %s %s", resp.Verdict, resp.Detail)
	}
	if rung != verify.RungProve {
		t.Errorf("closure of Legit decided by %q, want the prover", rung)
	}
	legit, _ := f.Pred("Legit")
	if err := spec.CheckClosed(f.Program, legit); err != nil {
		t.Fatalf("enumeration disagrees with the prover: %v", err)
	}
	composed, _, err := fault.Compose(f.Program, f.Faults)
	if err != nil {
		t.Fatal(err)
	}
	// The composed program is a different *guarded.Program: enumeration
	// must still find the corruption violation.
	if err := spec.CheckClosed(composed, legit); err == nil {
		t.Fatal("fault-composed closure must still fail")
	}
}
