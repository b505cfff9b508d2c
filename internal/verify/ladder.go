package verify

import (
	"context"

	"detcorr/internal/core"
	"detcorr/internal/explore"
	"detcorr/internal/guarded"
	"detcorr/internal/prove"
	"detcorr/internal/spec"
	"detcorr/internal/state"
)

// The rungs of each check, cheapest first. Every rung either decides the
// verdict exactly as the full-width graph check would, or declines:
//
//   - the prover reports only full proofs, and its obligations quantify
//     over a superset of the states the graph checks inspect;
//   - a slice's PASS is the full program's PASS (DESIGN.md §3i), while a
//     sliced violation is discarded and re-derived full-width, so witness
//     states always carry every variable.
//
// So a verdict, witness and all, never depends on which rung decided it.

// closed decides "S is closed in p": prove, cached graph, slice, scan. The
// prover wins closure at every size measured, so it always goes first.
func (v *Program) closed(ctx context.Context, s state.Predicate) (Rung, error) {
	ok, err := v.attempt(ctx, "closure:"+s.String(), func(sys *prove.System) (bool, error) {
		rep, err := prove.ProveClosureCtx(ctx, sys, s.String())
		if err != nil {
			return false, ctx.Err()
		}
		return rep.Verdict == prove.Proved, nil
	})
	if err != nil {
		return RungProve, err
	}
	if ok {
		return RungProve, nil
	}
	if g, ok := spec.ClosureGraph(v.f.Program, s); ok {
		return RungCached, spec.CheckClosedOn(g, s)
	}
	if sl := v.slice(s); sl != nil {
		if sp, ok := sl.pred(s); ok {
			if _, err := sl.closed(ctx, sp); err == nil {
				return RungSlice, nil
			}
		}
	}
	return RungScan, spec.CheckClosedCtx(ctx, v.f.Program, s)
}

// closedFunc adapts closed to the closure obligations of CheckConverges.
func (v *Program) closedFunc(ctx context.Context, _ *guarded.Program, s state.Predicate) error {
	_, err := v.closed(ctx, s)
	return err
}

// converges decides "S converges to R": slice, the two closures, build,
// then the liveness query. The slice goes first because the liveness
// obligation needs a graph either way, and the slice's graph is smaller.
func (v *Program) converges(ctx context.Context, s, r state.Predicate) (Rung, error) {
	_, cached := explore.Peek(v.f.Program, s, explore.Options{})
	if !cached {
		if sl := v.slice(s, r); sl != nil {
			ss, ok1 := sl.pred(s)
			sr, ok2 := sl.pred(r)
			if ok1 && ok2 {
				if _, err := sl.converges(ctx, ss, sr); err == nil {
					return RungSlice, nil
				}
			}
		}
	}
	rung := RungBuild
	if cached {
		rung = RungCached
	}
	return rung, spec.CheckConvergesUsing(ctx, v.f.Program, s, r, v.closedFunc)
}

// Component kinds, as the prover's obligation bundles name them.
const (
	detector  = "detector"
	corrector = "corrector"
)

// component decides the fault-free 'Z detects X' or 'Z corrects X' from U:
//
//  1. a cached graph of the program from U;
//  2. exploration, when the program's product space is at most the
//     threshold, or when its slice for Z, X and U is;
//  3. the prover, under ctx;
//  4. the slice;
//  5. the build.
//
// A slice that fails skips the prover, which is sound and so cannot prove
// the check; the full build then reports the full-width witness.
func (v *Program) component(ctx context.Context, kind string, z, x, u state.Predicate) (Rung, error) {
	if _, ok := explore.Peek(v.f.Program, u, explore.Options{}); ok {
		return RungCached, v.checkComponent(ctx, kind, z, x, u)
	}
	if v.small() {
		return RungBuild, v.checkComponent(ctx, kind, z, x, u)
	}
	sl := v.slice(z, x, u)
	if sl != nil && sl.small() {
		if v.slicedComponent(ctx, sl, kind, z, x, u) {
			return RungSlice, nil
		}
		return RungBuild, v.checkComponent(ctx, kind, z, x, u)
	}
	key := kind + ":" + z.String() + "|" + x.String() + "|" + u.String()
	ok, err := v.attempt(ctx, key, func(sys *prove.System) (bool, error) {
		return prove.ProveComponentCtx(ctx, sys, kind, z.String(), x.String(), u.String())
	})
	if err != nil {
		return RungProve, err
	}
	if ok {
		return RungProve, nil
	}
	if sl != nil && v.slicedComponent(ctx, sl, kind, z, x, u) {
		return RungSlice, nil
	}
	return RungBuild, v.checkComponent(ctx, kind, z, x, u)
}

// slicedComponent reports whether the slice decides the component check
// as passing, on the slice's own ladder.
func (v *Program) slicedComponent(ctx context.Context, sl *Program, kind string, z, x, u state.Predicate) bool {
	sz, ok1 := sl.pred(z)
	sx, ok2 := sl.pred(x)
	su, ok3 := sl.pred(u)
	if !ok1 || !ok2 || !ok3 {
		return false
	}
	_, err := sl.component(ctx, kind, sz, sx, su)
	return err == nil
}

// checkComponent is the graph rung: the condition checks on the graph of
// the program from U, built through the shared cache.
func (v *Program) checkComponent(ctx context.Context, kind string, z, x, u state.Predicate) error {
	if kind == detector {
		return core.Detector{Name: v.f.Name, D: v.f.Program, Z: z, X: x, U: u}.CheckCtx(ctx)
	}
	return core.Corrector{Name: v.f.Name, C: v.f.Program, Z: z, X: x, U: u}.CheckCtx(ctx)
}
