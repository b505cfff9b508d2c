package spec_test

import (
	"fmt"
	"testing"

	"detcorr/internal/explore"
	"detcorr/internal/explore/difftest"
	"detcorr/internal/guarded"
	"detcorr/internal/spec"
	"detcorr/internal/state"
)

// TestScanBadStateMatchesCheckSafety hunts bad states on the difftest
// example systems and requires the streaming witness to be byte-identical
// to CheckSafety's graph path: the same error text and the same trace,
// state for state, in RAM and under a 64 KiB spill budget. Each system is
// hunted from its init predicate and from its first init state alone (so
// witnesses are long), for two targets: the graph's last node and its
// middle one.
func TestScanBadStateMatchesCheckSafety(t *testing.T) {
	for _, sys := range difftest.Systems() {
		t.Run(sys.Name, func(t *testing.T) {
			inits := []state.Predicate{sys.Init}
			if first, ok := firstState(sys.Prog, sys.Init); ok {
				inits = append(inits, state.Pred(fmt.Sprintf("index=%d", first),
					func(s state.State) bool { return s.Index() == first }))
			}
			for _, init := range inits {
				g, err := explore.Build(sys.Prog, init, explore.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range []int{g.NumNodes() - 1, g.NumNodes() / 2} {
					target := g.State(id).Index()
					sp := spec.NeverState(fmt.Sprintf("never-%d", target),
						state.Pred("target", func(s state.State) bool { return s.Index() == target }))
					want := spec.CheckSafety(g, g.SetOf(init), sp)
					if want == nil {
						t.Fatalf("%s: node %d is in the graph but no path reaches it", init, id)
					}
					requireSameViolation(t, sys.Prog, init, sp, want, "in RAM")
					func() {
						prevBudget, prevDir := explore.SetDefaultSpill(64<<10, t.TempDir())
						defer explore.SetDefaultSpill(prevBudget, prevDir)
						requireSameViolation(t, sys.Prog, init, sp, want, "under 64 KiB")
					}()
				}
			}
		})
	}
}

func requireSameViolation(t *testing.T, p *guarded.Program, init state.Predicate, sp spec.Safety, want *spec.SafetyViolation, mode string) {
	t.Helper()
	got, err := spec.ScanBadState(p, init, sp)
	if err != nil {
		t.Fatalf("%s from %s: %v", mode, init, err)
	}
	if got == nil {
		t.Fatalf("%s from %s: the hunt found no bad state, the graph path %v", mode, init, want)
	}
	if got.Error() != want.Error() {
		t.Fatalf("%s from %s: hunt %q, graph %q", mode, init, got.Error(), want.Error())
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s from %s: hunt trace %d states, graph %d", mode, init, len(got.Trace), len(want.Trace))
	}
	for i := range want.Trace {
		if !got.Trace[i].Equal(want.Trace[i]) {
			t.Fatalf("%s from %s: trace[%d] = %s, graph %s", mode, init, i, got.Trace[i], want.Trace[i])
		}
	}
}

// firstState returns the lowest index satisfying init.
func firstState(p *guarded.Program, init state.Predicate) (uint64, bool) {
	var idx uint64
	found := false
	p.Schema().ForEachState(func(s state.State) bool {
		if init.Holds(s) {
			idx, found = s.Index(), true
			return false
		}
		return true
	})
	return idx, found
}
