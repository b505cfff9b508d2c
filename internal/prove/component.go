package prove

import (
	"context"

	"detcorr/internal/gcl"
)

// ProveComponent reports whether the full detector ("detector") or
// corrector ("corrector") specification "Z kind X from U" is provable for
// the system without exploration. False means "fall back to the graph
// checks", never "the component fails".
func ProveComponent(sys *System, kind, z, x, u string) bool {
	ok, _ := ProveComponentCtx(context.Background(), sys, kind, z, x, u)
	return ok
}

// ProveComponentCtx is ProveComponent under a context. A cancelled attempt
// returns ctx.Err(): it proved nothing, and it refuted nothing either.
func ProveComponentCtx(ctx context.Context, sys *System, kind, z, x, u string) (bool, error) {
	return sys.proveComponent(ctx, kind, z, x, u)
}

// proveComponent discharges the full detector (or corrector) specification
// by proof: closure of U, safeness and stability of Z => X within U,
// progress (convergence of the region U ∧ X ∧ ¬Z to Z ∨ ¬X), and for
// correctors additionally the closure of X along U-steps and convergence
// of U to X. Every obligation quantifies over all U-states — a superset of
// the reachable states the graph checks inspect — so Proved transfers; any
// weaker verdict reports false and the caller falls back.
func (sys *System) proveComponent(ctx context.Context, kind, z, x, u string) (bool, error) {
	U, err := sys.needPred(u)
	if err != nil {
		return false, nil
	}
	Z, err := sys.needPred(z)
	if err != nil {
		return false, nil
	}
	X, err := sys.needPred(x)
	if err != nil {
		return false, nil
	}
	if rep, err := sys.proveClosureExpr(ctx, CodeClosure, "closure", U, sys.actions); err != nil || rep.Verdict != Proved {
		return false, err
	}
	if rep, err := ProveSafenessCtx(ctx, sys, u, z, x); err != nil || rep.Verdict != Proved {
		return false, err
	}
	// Progress: from U ∧ X ∧ ¬Z every computation reaches Z ∨ ¬X. Closure
	// of U is already discharged above.
	if rep, err := sys.proveConvergenceExpr(ctx, "progress", U, disj(Z, neg(X)), nil, nil, false); err != nil || rep.Verdict != Proved {
		return false, err
	}
	if kind != "corrector" {
		return kind == "detector", nil
	}
	// Convergence, closure half: no U-step falsifies X.
	for i := range sys.actions {
		res, err := sys.proveAction(ctx, &sys.actions[i], []gcl.Expr{U, X}, X)
		if err != nil || res.Verdict != Proved {
			return false, err
		}
	}
	// Convergence, liveness half: U converges to X.
	rep, err := sys.proveConvergenceExpr(ctx, "convergence", U, X, nil, nil, false)
	if err != nil {
		return false, err
	}
	return rep.Verdict == Proved, nil
}
