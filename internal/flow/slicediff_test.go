package flow_test

import (
	"context"
	"sort"
	"testing"

	"detcorr/internal/core"
	"detcorr/internal/explore/difftest"
	"detcorr/internal/flow"
	"detcorr/internal/gcl"
	"detcorr/internal/serve/api"
	"detcorr/internal/spec"
	"detcorr/internal/state"
	"detcorr/internal/verify"
)

// The slice difftest: for every example system and every declared
// predicate, the verdicts the decision ladder reaches on a file whose
// slice rung is armed must be byte-identical — verdict AND witness — to
// the verdicts of the plain graph checks on a fresh compile of the same
// source, which no ladder value covers. The sweep deliberately includes
// failing verdicts: those exercise the fall-through path where a sliced
// violation is discarded and the full-space check re-derives the witness.
// (internal/verify's TestLadderOrdersAgree forces every rung order; this
// test pins the order the tools run.)

var sliceDiffSources = []struct {
	name string
	src  string
}{
	{"ring3", difftest.RingSource(3, 3)},
	{"ring_watched", difftest.RingWatchedSource(3, 3)},
	{"memaccess_pm", difftest.MemaccessPM},
	{"memaccess_pf", difftest.MemaccessPF},
	{"memaccess_pn", difftest.MemaccessPN},
	{"memaccess_pair", difftest.MemaccessPairSource},
	{"tmr", difftest.TMRSource},
	{"byzagree", difftest.ByzAgreeSource},
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func predNames(f *gcl.File) []string {
	names := make([]string, 0, len(f.Preds))
	for name := range f.Preds {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func TestSliceDifftest(t *testing.T) {
	for _, tc := range sliceDiffSources {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// Reference: a fresh compile checked by the graph checks alone,
			// so every check runs full-width.
			ref, err := gcl.ParseAndCompile(tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			// Subject: an independently compiled copy, decided on the
			// ladder with the slice rung armed.
			sub, err := gcl.ParseAndCompile(tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			v := verify.New(sub, nil)
			decide := func(req api.Request) string {
				req.Program = tc.src
				resp, _, err := verify.Decide(context.Background(), v, req)
				if err != nil {
					return "error: " + err.Error()
				}
				if resp.Verdict == api.VerdictHolds {
					return errString(nil)
				}
				return resp.Detail
			}
			for _, pname := range predNames(ref) {
				rp, _ := ref.Pred(pname)
				diffOne(t, "closed("+pname+")",
					spec.CheckClosed(ref.Program, rp),
					decide(api.Request{Check: api.CheckClosure, Invariant: pname}))
				diffOne(t, "converges("+pname+")",
					spec.CheckConverges(ref.Program, state.True, rp),
					decide(api.Request{Check: api.CheckConvergence, Invariant: "true", Goal: pname}))
				// Component checks with Z = X = U = the predicate: Safeness
				// is trivially satisfiable, Stability and Progress are not,
				// so the sweep hits both verdict polarities.
				diffOne(t, "detects("+pname+")",
					core.Detector{Name: ref.Name, D: ref.Program, Z: rp, X: rp, U: rp}.Check(),
					decide(api.Request{Check: api.CheckDetects, Z: pname, X: pname, From: pname}))
				diffOne(t, "corrects("+pname+")",
					core.Corrector{Name: ref.Name, C: ref.Program, Z: rp, X: rp, U: rp}.Check(),
					decide(api.Request{Check: api.CheckCorrects, Z: pname, X: pname, From: pname}))
			}
		})
	}
}

func diffOne(t *testing.T, what string, refErr error, sub string) {
	t.Helper()
	if errString(refErr) != sub {
		t.Errorf("%s: verdicts diverge\n  full:   %s\n  ladder: %s",
			what, errString(refErr), sub)
	}
}

// TestSliceDifftestDirect pins the sliced fast path itself: for cones that
// genuinely shrink the program, the directly computed sliced verdict's
// nil-ness must agree with the full-width reference — this is the half the
// public path cannot distinguish from a fall-through.
func TestSliceDifftestDirect(t *testing.T) {
	for _, tc := range sliceDiffSources {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ref, err := gcl.ParseAndCompile(tc.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			in := flow.Analyze(ref.AST)
			for _, pname := range predNames(ref) {
				cone, err := in.Cone(pname)
				if err != nil || len(cone.Vars) == 0 || len(cone.Vars) == len(in.Vars) {
					continue // slicing would not apply
				}
				sl, err := flow.SliceFile(ref, pname)
				if err != nil {
					t.Fatalf("slice %s: %v", pname, err)
				}
				rp, _ := ref.Pred(pname)
				sp, ok := sl.File.Pred(pname)
				if !ok {
					t.Fatalf("slice %s lost its target", pname)
				}
				refErr := spec.CheckClosed(ref.Program, rp)
				subErr := spec.CheckClosed(sl.File.Program, sp)
				if (refErr == nil) != (subErr == nil) {
					t.Errorf("closed(%s): full %v, sliced %v", pname, refErr, subErr)
				}
				refErr = spec.CheckConverges(ref.Program, state.True, rp)
				subErr = spec.CheckConverges(sl.File.Program, state.True, sp)
				if (refErr == nil) != (subErr == nil) {
					t.Errorf("converges(%s): full %v, sliced %v", pname, refErr, subErr)
				}
			}
		})
	}
}
