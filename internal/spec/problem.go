package spec

import (
	"context"
	"fmt"

	"detcorr/internal/explore"
	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// Problem is a problem specification (Section 2.2) in its
// safety/liveness decomposition (Alpern & Schneider): a suffix- and
// fusion-closed safety part plus a conjunction of leads-to liveness
// obligations. The safety part is the smallest safety specification
// containing the problem specification, which is exactly the fail-safe
// tolerance specification of Section 2.4.
type Problem struct {
	Name   string
	Safety Safety
	Live   []LeadsTo
}

// FailSafeSpec returns the fail-safe tolerance specification of the problem
// (Section 2.4): the smallest safety specification containing it.
func (pr Problem) FailSafeSpec() Safety { return pr.Safety }

// String returns the specification name.
func (pr Problem) String() string {
	if pr.Name == "" {
		return "<problem>"
	}
	return pr.Name
}

// CheckRefinesFrom verifies "p refines SPEC from S" (Section 2.2.1) for the
// problem specification: S is closed in p, every computation from S
// satisfies the safety part, and every computation from S satisfies each
// liveness obligation. The graph comes from the process-wide cache; purely
// state-characterized safety problems with no liveness part and no cached
// graph are decided by a streaming scan instead — a counterexample hunt that
// stops at the first bad state without assembling a graph at all.
func (pr Problem) CheckRefinesFrom(p *guarded.Program, s state.Predicate) error {
	if err := CheckClosed(p, s); err != nil {
		return fmt.Errorf("%s: invariant not closed: %w", pr, err)
	}
	if len(pr.Live) == 0 && pr.Safety.BadStep == nil && p.Schema().Indexable() == nil {
		if _, cached := explore.Peek(p, s, explore.Options{}); !cached {
			v, err := scanBadState(p, s, pr.Safety)
			if err != nil {
				return err
			}
			if v != nil {
				return fmt.Errorf("%s: %w", pr, v)
			}
			return nil
		}
	}
	g, err := explore.Shared(p, s, explore.Options{})
	if err != nil {
		return err
	}
	from := g.SetOf(s)
	if v := CheckSafety(g, from, pr.Safety); v != nil {
		return fmt.Errorf("%s: %w", pr, v)
	}
	for _, lt := range pr.Live {
		if err := CheckLeadsTo(g, from, lt); err != nil {
			return fmt.Errorf("%s: %w", pr, err)
		}
	}
	return nil
}

// scanBadState hunts for a reachable state forbidden by a state-only safety
// specification, streaming over the compiled kernel with early exit. The
// hunt (explore.Hunt) uses the same tie-breaking as CheckSafety's
// PathBetween extraction (ascending seeds, FIFO frontier, transitions in
// action order, first discoverer as parent), so the returned trace is the
// identical witness; its parents live on the exploration store, so a
// memory budget bounds them too.
func scanBadState(p *guarded.Program, s state.Predicate, sp Safety) (*SafetyViolation, error) {
	if sp.BadState == nil {
		// Nothing is forbidden; any reachable set satisfies the spec.
		return nil, nil
	}
	trace, found, err := explore.Hunt(context.Background(), p, s, explore.ScanOptions{}, explore.Scanner{
		Visit: func(st state.State) bool { return !sp.BadState(st) },
	})
	if err != nil || !found {
		return nil, err
	}
	return &SafetyViolation{Spec: sp.Name, Trace: trace}, nil
}

// Violates reports "p violates SPEC from S" (Section 2.2.1): the negation of
// CheckRefinesFrom, returned as the underlying cause.
func (pr Problem) Violates(p *guarded.Program, s state.Predicate) (bool, error) {
	err := pr.CheckRefinesFrom(p, s)
	return err != nil, err
}

// InvariantOK reports whether S is an invariant of p for the problem
// specification (Section 2.2.1, "Invariant"): p refines SPEC from S.
func (pr Problem) InvariantOK(p *guarded.Program, s state.Predicate) bool {
	return pr.CheckRefinesFrom(p, s) == nil
}
