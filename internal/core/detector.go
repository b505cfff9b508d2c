package core

import (
	"context"
	"fmt"

	"detcorr/internal/explore"
	"detcorr/internal/fault"
	"detcorr/internal/guarded"
	"detcorr/internal/spec"
	"detcorr/internal/state"
)

// Detector asserts "Z detects X in D from U" (Section 3.1): component D,
// witness predicate Z, detection predicate X, and the predicate U the
// detects relation is refined from. D may be the whole composed program —
// per the paper's remark after Theorem 3.4, showing that a program contains
// a detector is done by showing the program itself refines the detector
// specification.
type Detector struct {
	Name    string
	D       *guarded.Program
	Z, X, U state.Predicate
}

// ConditionError reports which of the detector/corrector conditions failed.
type ConditionError struct {
	Component string
	Condition string // "Safeness", "Progress", "Stability", "Convergence", or "Closure"
	Cause     error
}

// Error implements the error interface.
func (e *ConditionError) Error() string {
	return fmt.Sprintf("%s: %s violated: %v", e.Component, e.Condition, e.Cause)
}

// Unwrap returns the underlying cause.
func (e *ConditionError) Unwrap() error { return e.Cause }

func (d Detector) String() string {
	name := d.Name
	if name == "" {
		name = d.D.Name()
	}
	return fmt.Sprintf("detector %s: %s detects %s from %s", name, d.Z, d.X, d.U)
}

// Check decides whether D refines 'Z detects X' from U. Refinement from U
// requires U closed in D; Safeness, Progress and Stability are then checked
// over the states reachable from U, on the graph of D from U (built once
// through the shared cache). The prover and slicer rungs that may decide
// the check without this graph live in internal/verify.
func (d Detector) Check() error {
	return d.CheckCtx(context.Background())
}

// CheckCtx is Check under a context: cancellation aborts the graph build
// (and the closure scan on the error path) with ctx.Err(). The condition
// checks on the built graph are not interruptible — they are linear set
// operations on an already-paid-for graph.
func (d Detector) CheckCtx(ctx context.Context) error {
	g, err := explore.SharedCtx(ctx, d.D, d.U, explore.Options{})
	if err != nil {
		// A cancelled build is the caller walking away, not a verdict; do
		// not mask it with the closure re-check below.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		// Preserve the historical error precedence: a closure problem (or
		// the enumeration error explaining why neither scan nor build can
		// run) is reported before the build failure.
		if cerr := spec.CheckClosedCtx(ctx, d.D, d.U); cerr != nil {
			return &ConditionError{Component: d.String(), Condition: "Closure", Cause: cerr}
		}
		return err
	}
	if cerr := spec.CheckClosedOn(g, d.U); cerr != nil {
		return &ConditionError{Component: d.String(), Condition: "Closure", Cause: cerr}
	}
	reach := g.Reach(g.SetOf(d.U), nil)
	return d.checkOn(g, reach, true)
}

// checkOn verifies the detector conditions on a prebuilt graph restricted to
// the given reachable set. When progress is false only the safety conditions
// (Safeness, Stability) are checked — that is the fail-safe tolerance
// specification of 'Z detects X'. All three conditions run on the graph's
// memoized predicate bitsets: repeated checks on one graph cost word-level
// set operations plus one memoized liveness query, not per-state predicate
// evaluations.
func (d Detector) checkOn(g *explore.Graph, reach *explore.Bitset, progress bool) error {
	zSet := g.SetOf(d.Z)
	xSet := g.SetOf(d.X)
	// Safeness: Z ⇒ X at every reachable state. The witness is the lowest-id
	// violating state, exactly as the previous per-state sweep reported.
	viol := zSet.Clone()
	viol.Subtract(xSet)
	viol.Intersect(reach)
	if id := viol.Any(); id >= 0 {
		return &ConditionError{Component: d.String(), Condition: "Safeness",
			Cause: fmt.Errorf("Z ∧ ¬X at %s", g.State(id))}
	}
	// Stability: every reachable step from a Z-state satisfies Z ∨ ¬X at
	// the target.
	var stabErr error
	zReach := zSet.Clone()
	zReach.Intersect(reach)
	zReach.ForEach(func(id int) bool {
		for _, e := range g.Out(id) {
			if !zSet.Has(e.To) && xSet.Has(e.To) {
				stabErr = fmt.Errorf("step %s -> %s (action %s) falsifies Z while X holds",
					g.State(id), g.State(e.To), g.ActionName(e.Action))
				return false
			}
		}
		return true
	})
	if stabErr != nil {
		return &ConditionError{Component: d.String(), Condition: "Stability", Cause: stabErr}
	}
	if !progress {
		return nil
	}
	// Progress: from every reachable X ∧ ¬Z state, every fair maximal
	// computation reaches Z ∨ ¬X.
	start := xSet.Clone()
	start.Subtract(zSet)
	start.Intersect(reach)
	goal := xSet.Complement()
	goal.Union(zSet)
	if v := g.CheckEventually(start, goal); v != nil {
		return &ConditionError{Component: d.String(), Condition: "Progress", Cause: v}
	}
	return nil
}

// CheckFTolerant decides whether D is a fail-safe (respectively masking)
// F-tolerant detector: D refines 'Z detects X' from U, and D ‖ F refines the
// corresponding tolerance specification of 'Z detects X' from the fault span
// of U (Section 3.1, "tolerant detector", combined with Section 2.4).
//
//   - fault.FailSafe: under faults only Safeness and Stability must hold.
//   - fault.Masking: under faults all three conditions must hold (Progress
//     is checked with fault actions unfair — faults occur finitely often).
//   - fault.Nonmasking: computations under faults must have a suffix
//     satisfying the detector specification; under Assumption 2 this is
//     checked as convergence of D alone from the span to a region where the
//     fault-free conditions hold (see GoodRegion).
func (d Detector) CheckFTolerant(f fault.Class, kind fault.Kind) error {
	return d.CheckFTolerantCtx(context.Background(), f, kind)
}

// CheckFTolerantCtx is CheckFTolerant under a context; cancellation aborts
// the fault-free check, the span exploration, and the convergence build
// with ctx.Err().
func (d Detector) CheckFTolerantCtx(ctx context.Context, f fault.Class, kind fault.Kind) error {
	if err := d.CheckCtx(ctx); err != nil {
		return err
	}
	return d.CheckToleranceCtx(ctx, f, kind)
}

// CheckToleranceCtx is the fault half of CheckFTolerantCtx: the tolerance
// conditions over the fault span, for a detector whose fault-free check
// already holds (it is not decided again). It builds the span's graph, not
// the graph of D from U.
func (d Detector) CheckToleranceCtx(ctx context.Context, f fault.Class, kind fault.Kind) error {
	span, err := fault.ComputeSpanCtx(ctx, d.D, f, d.U)
	if err != nil {
		return err
	}
	switch kind {
	case fault.FailSafe:
		return d.checkOn(span.Graph, span.Reachable, false)
	case fault.Masking:
		return d.checkOn(span.Graph, span.Reachable, true)
	case fault.Nonmasking:
		return d.checkNonmaskingTolerant(ctx, span)
	default:
		return fmt.Errorf("core: unknown tolerance kind %d", int(kind))
	}
}

func (d Detector) checkNonmaskingTolerant(ctx context.Context, span *fault.Span) error {
	g, err := explore.SharedCtx(ctx, d.D, span.Predicate, explore.Options{})
	if err != nil {
		return err
	}
	good := d.GoodRegion(g)
	from := g.SetOf(span.Predicate)
	if v := g.CheckEventually(from, good); v != nil {
		return &ConditionError{Component: d.String(), Condition: "Convergence",
			Cause: fmt.Errorf("no suffix satisfying the detector specification: %w", v)}
	}
	return nil
}

// GoodRegion computes the largest set of nodes G such that every computation
// of D confined to G satisfies Safeness and Stability, G is closed under
// D's transitions, and Progress holds from every state of G. A computation
// with a suffix entering G satisfies the detector specification from that
// point on.
func (d Detector) GoodRegion(g *explore.Graph) *explore.Bitset {
	zSet := g.SetOf(d.Z)
	xSet := g.SetOf(d.X)
	// Locally safe states: Safeness holds (¬Z ∨ X).
	safe := zSet.Clone()
	safe.Subtract(xSet)
	safe = safe.Complement()
	// Remove sources of stability-violating steps, then close.
	badTarget := xSet.Clone()
	badTarget.Subtract(zSet) // ¬Z ∧ X
	stabSrc := zSet.Clone()
	stabSrc.Intersect(safe)
	stabSrc.ForEach(func(id int) bool {
		for _, e := range g.Out(id) {
			if badTarget.Has(e.To) {
				safe.Remove(id)
				break
			}
		}
		return true
	})
	region := g.LargestClosedSubset(safe)
	// Prune states where Progress fails, iterating to a fixpoint (removing
	// a state can only shrink the closed region further).
	for {
		goal := xSet.Complement()
		goal.Union(zSet)
		goal.Intersect(region)
		violating := -1
		cand := xSet.Clone()
		cand.Subtract(zSet)
		cand.Intersect(region)
		cand.ForEach(func(id int) bool {
			single := explore.NewBitset(g.NumNodes())
			single.Add(id)
			if v := g.CheckEventually(single, goal); v != nil {
				violating = id
				return false
			}
			return true
		})
		if violating < 0 {
			return region
		}
		region.Remove(violating)
		region = g.LargestClosedSubset(region)
	}
}
