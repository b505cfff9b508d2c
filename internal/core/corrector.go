package core

import (
	"context"
	"fmt"

	"detcorr/internal/explore"
	"detcorr/internal/fault"
	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// Corrector asserts "Z corrects X in C from U" (Section 4.1): component C,
// witness predicate Z, correction predicate X, and the predicate U the
// corrects relation is refined from. When Z equals X the definition reduces
// to Arora & Gouda's closure-and-convergence (the paper's remark in
// Section 4.1).
type Corrector struct {
	Name    string
	C       *guarded.Program
	Z, X, U state.Predicate
}

func (c Corrector) String() string {
	name := c.Name
	if name == "" {
		name = c.C.Name()
	}
	return fmt.Sprintf("corrector %s: %s corrects %s from %s", name, c.Z, c.X, c.U)
}

// detectorView reuses the detector checks for the three shared conditions.
func (c Corrector) detectorView() Detector {
	return Detector{Name: c.Name, D: c.C, Z: c.Z, X: c.X, U: c.U}
}

// Check decides whether C refines 'Z corrects X' from U: the detector
// conditions Safeness, Progress, Stability, plus Convergence — every fair
// maximal computation from U reaches the correction predicate X, and X is
// never falsified once established (along any reachable computation).
func (c Corrector) Check() error {
	return c.CheckCtx(context.Background())
}

// CheckCtx is Check under a context: cancellation aborts the graph build
// (and the closure scan on the error path) with ctx.Err().
func (c Corrector) CheckCtx(ctx context.Context) error {
	g, reach, err := graphFrom(ctx, c.C, c.U, c.String())
	if err != nil {
		return err
	}
	return c.checkOn(g, reach, true)
}

// checkOn verifies the corrector conditions on a prebuilt graph restricted
// to the given reachable set: the detector conditions, then Convergence —
// (a) no reachable step falsifies X (X is closed along every computation),
// and (b) every fair maximal computation reaches X. When live is false only
// the safety conditions (Safeness, Stability, and (a)) are checked — the
// fail-safe tolerance specification of 'Z corrects X'. Every failure names
// the corrector.
func (c Corrector) checkOn(g *explore.Graph, reach *explore.Bitset, live bool) error {
	if err := c.detectorView().checkOn(g, reach, live); err != nil {
		cerr := err.(*ConditionError)
		cerr.Component = c.String()
		return cerr
	}
	xSet := g.SetOf(c.X)
	xReach := xSet.Clone()
	xReach.Intersect(reach)
	var stepErr error
	eachStep(g, xReach, xSet.Complement(), func(id int, e explore.Edge) bool {
		stepErr = fmt.Errorf("step %s -> %s (action %s) falsifies X",
			g.State(id), g.State(e.To), g.ActionName(e.Action))
		return false
	})
	if stepErr != nil {
		return &ConditionError{Component: c.String(), Condition: "Convergence", Cause: stepErr}
	}
	if !live {
		return nil
	}
	if v := g.CheckEventually(reach, xReach); v != nil {
		return &ConditionError{Component: c.String(), Condition: "Convergence", Cause: v}
	}
	return nil
}

// CheckFTolerant decides whether C is a nonmasking (respectively fail-safe
// or masking) F-tolerant corrector (Section 4.1, "tolerant corrector",
// combined with Section 2.4):
//
//   - fault.Nonmasking: computations of C ‖ F have a suffix in
//     'Z corrects X'. Under Assumption 2 this holds iff after faults stop C
//     converges from the fault span back to the region from which the
//     fault-free corrector specification holds (the paper's Theorem 4.3 and
//     Theorem 5.5 Part 4 use exactly this argument: Stability and
//     Convergence may be violated by fault actions but never by program
//     actions).
//   - fault.FailSafe: under faults the safety part (Safeness, Stability, and
//     the closure half of Convergence) holds over the span.
//   - fault.Masking: under faults the full corrector specification holds
//     over the span.
func (c Corrector) CheckFTolerant(f fault.Class, kind fault.Kind) error {
	return c.CheckFTolerantCtx(context.Background(), f, kind)
}

// CheckFTolerantCtx is CheckFTolerant under a context; cancellation aborts
// the fault-free check, the span exploration, and the convergence build
// with ctx.Err().
func (c Corrector) CheckFTolerantCtx(ctx context.Context, f fault.Class, kind fault.Kind) error {
	if err := c.CheckCtx(ctx); err != nil {
		return err
	}
	return c.CheckToleranceCtx(ctx, f, kind)
}

// CheckToleranceCtx is the fault half of CheckFTolerantCtx: the tolerance
// conditions over the fault span, for a corrector whose fault-free check
// already holds (it is not decided again). It builds the span's graph, not
// the graph of C from U.
func (c Corrector) CheckToleranceCtx(ctx context.Context, f fault.Class, kind fault.Kind) error {
	span, err := fault.ComputeSpanCtx(ctx, c.C, f, c.U)
	if err != nil {
		return err
	}
	switch kind {
	case fault.FailSafe, fault.Masking:
		return c.checkOn(span.Graph, span.Reachable, kind == fault.Masking)
	case fault.Nonmasking:
		return convergesToGood(ctx, c.C, span, c.String(), "corrector", c.GoodRegion)
	default:
		return fmt.Errorf("core: unknown tolerance kind %d", int(kind))
	}
}

// GoodRegion computes the largest set of nodes from which every computation
// of C satisfies the full corrector specification: the largest live subset,
// with target X, of the detector good region less the sources of
// X-falsifying steps.
func (c Corrector) GoodRegion(g *explore.Graph) *explore.Bitset {
	region := c.detectorView().GoodRegion(g)
	xSet := g.SetOf(c.X)
	eachStep(g, xSet, xSet.Complement(), func(id int, _ explore.Edge) bool {
		region.Remove(id)
		return true
	})
	return g.LargestLiveSubset(region, xSet)
}
