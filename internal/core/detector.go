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
	g, reach, err := graphFrom(ctx, d.D, d.U, d.String())
	if err != nil {
		return err
	}
	return d.checkOn(g, reach, true)
}

// graphFrom builds the graph of p from u (once, through the shared cache)
// and checks u closed in it, labelling a Closure failure with component. It
// returns the graph and the states reachable from u.
func graphFrom(ctx context.Context, p *guarded.Program, u state.Predicate, component string) (*explore.Graph, *explore.Bitset, error) {
	g, err := explore.SharedCtx(ctx, p, u, explore.Options{})
	if err != nil {
		// A cancelled build is the caller walking away, not a verdict; do
		// not mask it with the closure re-check below.
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, cerr
		}
		// Preserve the historical error precedence: a closure problem (or
		// the enumeration error explaining why neither scan nor build can
		// run) is reported before the build failure.
		if cerr := spec.CheckClosedCtx(ctx, p, u); cerr != nil {
			return nil, nil, &ConditionError{Component: component, Condition: "Closure", Cause: cerr}
		}
		return nil, nil, err
	}
	if cerr := spec.CheckClosedOn(g, u); cerr != nil {
		return nil, nil, &ConditionError{Component: component, Condition: "Closure", Cause: cerr}
	}
	return g, g.Reach(g.SetOf(u), nil), nil
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
	// Stability: every reachable step from a Z-state satisfies Z ∨ ¬X
	// (done) at the target, not X ∧ ¬Z (pending).
	done := xSet.Complement()
	done.Union(zSet)
	pending := done.Complement()
	var stabErr error
	zReach := zSet.Clone()
	zReach.Intersect(reach)
	eachStep(g, zReach, pending, func(id int, e explore.Edge) bool {
		stabErr = fmt.Errorf("step %s -> %s (action %s) falsifies Z while X holds",
			g.State(id), g.State(e.To), g.ActionName(e.Action))
		return false
	})
	if stabErr != nil {
		return &ConditionError{Component: d.String(), Condition: "Stability", Cause: stabErr}
	}
	if !progress {
		return nil
	}
	// Progress: from every reachable X ∧ ¬Z state, every fair maximal
	// computation reaches Z ∨ ¬X.
	pending.Intersect(reach)
	if v := g.CheckEventually(pending, done); v != nil {
		return &ConditionError{Component: d.String(), Condition: "Progress", Cause: v}
	}
	return nil
}

// eachStep calls fn with each edge from a node of from into a node of into,
// in ascending source order, until fn returns false.
func eachStep(g *explore.Graph, from, into *explore.Bitset, fn func(id int, e explore.Edge) bool) {
	from.ForEach(func(id int) bool {
		for _, e := range g.Out(id) {
			if into.Has(e.To) && !fn(id, e) {
				return false
			}
		}
		return true
	})
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
	case fault.FailSafe, fault.Masking:
		return d.checkOn(span.Graph, span.Reachable, kind == fault.Masking)
	case fault.Nonmasking:
		return convergesToGood(ctx, d.D, span, d.String(), "detector", d.GoodRegion)
	default:
		return fmt.Errorf("core: unknown tolerance kind %d", int(kind))
	}
}

// convergesToGood decides nonmasking tolerance under Assumption 2: p alone,
// started anywhere in the fault span, converges to the good region of a
// component on p's graph from the span. component names it in a failure,
// and what is the kind of specification the region satisfies ("detector"
// or "corrector").
func convergesToGood(ctx context.Context, p *guarded.Program, span *fault.Span, component, what string, goodRegion func(*explore.Graph) *explore.Bitset) error {
	g, err := explore.SharedCtx(ctx, p, span.Predicate, explore.Options{})
	if err != nil {
		return err
	}
	good := goodRegion(g)
	if v := g.CheckEventually(g.SetOf(span.Predicate), good); v != nil {
		return &ConditionError{Component: component, Condition: "Convergence",
			Cause: fmt.Errorf("no suffix satisfying the %s specification: %w", what, v)}
	}
	return nil
}

// GoodRegion computes the largest set of nodes G such that every computation
// of D confined to G satisfies Safeness and Stability, G is closed under
// D's transitions, and Progress holds from every state of G. A computation
// with a suffix entering G satisfies the detector specification from that
// point on. G is the largest live subset (explore.Graph.LargestLiveSubset),
// with target Z ∨ ¬X, of the Safeness states ¬Z ∨ X less the sources of
// Stability-violating steps.
func (d Detector) GoodRegion(g *explore.Graph) *explore.Bitset {
	zSet := g.SetOf(d.Z)
	xSet := g.SetOf(d.X)
	done := xSet.Complement() // Z ∨ ¬X: Progress is discharged
	done.Union(zSet)
	pending := done.Complement()
	// Safeness holds at ¬Z ∨ X; Stability fails at a Z-state with a step
	// into X ∧ ¬Z.
	safe := zSet.Clone()
	safe.Subtract(xSet)
	safe = safe.Complement()
	eachStep(g, zSet, pending, func(id int, _ explore.Edge) bool {
		safe.Remove(id)
		return true
	})
	return g.LargestLiveSubset(safe, done)
}
