package verify

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"detcorr/internal/core"
	"detcorr/internal/explore"
	"detcorr/internal/fault"
	"detcorr/internal/gcl"
	"detcorr/internal/prove"
	"detcorr/internal/serve/api"
	"detcorr/internal/spec"
	"detcorr/internal/state"
)

// UsageError marks a request that is well-formed JSON but asks a malformed
// question: an unknown check, a missing required field, a predicate name
// the program does not declare. It maps to HTTP 400 and dctl exit code 2.
type UsageError struct{ Err error }

func (e *UsageError) Error() string { return e.Err.Error() }
func (e *UsageError) Unwrap() error { return e.Err }

func usagef(format string, args ...any) error {
	return &UsageError{Err: fmt.Errorf(format, args...)}
}

// Decide computes the verdict for req on the value v and reports the rung
// that decided it. The returned error is nil whenever a verdict was
// reached — a failing property is a verdict (api.VerdictFails), not an
// error. Non-nil errors are either *UsageError (the request asks a
// malformed question), a context cancellation (the caller walked away),
// or an exploration failure such as explore.ErrStateBound.
//
// The rung of a -tolerant request is its fault-free half's; the tolerant
// half always explores the fault span. A deadlock question is answered
// from its graph when that graph is resident and hunted by a scan
// otherwise, and prove requests are the prover.
func Decide(ctx context.Context, v *Program, req api.Request) (*api.Response, Rung, error) {
	if err := req.Validate(); err != nil {
		return nil, "", &UsageError{Err: err}
	}
	resp := &api.Response{Check: req.Check, Program: v.f.Name}
	switch req.Check {
	case api.CheckClosure:
		return v.decideClosure(ctx, req, resp)
	case api.CheckDetects, api.CheckCorrects:
		return v.decideComponent(ctx, req, resp)
	case api.CheckConvergence:
		return v.decideConvergence(ctx, req, resp)
	case api.CheckDeadlock:
		return decideDeadlock(ctx, v.f, req, resp)
	case api.CheckProve:
		resp, err := decideProve(ctx, v.f, req, resp)
		return resp, RungProve, err
	}
	return nil, "", usagef("check: unknown check %q", req.Check)
}

// pred resolves a predicate by declared name; empty and "true" mean the
// constant true predicate, mirroring the dctl flag convention.
func pred(f *gcl.File, name, field string) (state.Predicate, error) {
	if name == "" || name == "true" {
		return state.True, nil
	}
	p, ok := f.Pred(name)
	if !ok {
		return state.Predicate{}, usagef("%s: no predicate %q declared in the program", field, name)
	}
	return p, nil
}

func parseKind(s string) (fault.Kind, error) {
	switch s {
	case "failsafe", "fail-safe":
		return fault.FailSafe, nil
	case "nonmasking":
		return fault.Nonmasking, nil
	case "masking":
		return fault.Masking, nil
	default:
		return 0, usagef("tolerant: unknown tolerance kind %q (want failsafe, nonmasking, or masking)", s)
	}
}

// verdict turns a check's outcome into the response: nil holds, a
// property violation fails (unless ctx ended, which is never a verdict),
// and anything else is an operational error no verdict can be built from.
func verdict(ctx context.Context, resp *api.Response, err error) (*api.Response, error) {
	if err == nil {
		resp.Verdict = api.VerdictHolds
		return resp, nil
	}
	if !isVerdictErr(err) {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	resp.Verdict = api.VerdictFails
	resp.Detail = err.Error()
	return resp, nil
}

// isVerdictErr distinguishes a property violation — which is a fails
// verdict, evidence and all — from an operational failure (state bound
// exceeded, unindexable schema, cancellation).
func isVerdictErr(err error) bool {
	var cv *spec.ClosureViolation
	var lv *explore.LivenessViolation
	var ce *core.ConditionError
	return errors.As(err, &cv) || errors.As(err, &lv) || errors.As(err, &ce)
}

func (v *Program) decideClosure(ctx context.Context, req api.Request, resp *api.Response) (*api.Response, Rung, error) {
	s, err := pred(v.f, req.Invariant, "invariant")
	if err != nil {
		return nil, "", err
	}
	rung, err := v.closed(ctx, s)
	resp, err = verdict(ctx, resp, err)
	return resp, rung, err
}

func (v *Program) decideConvergence(ctx context.Context, req api.Request, resp *api.Response) (*api.Response, Rung, error) {
	s, err := pred(v.f, req.Invariant, "invariant")
	if err != nil {
		return nil, "", err
	}
	r, err := pred(v.f, req.Goal, "goal")
	if err != nil {
		return nil, "", err
	}
	rung, err := v.converges(ctx, s, r)
	resp, err = verdict(ctx, resp, err)
	return resp, rung, err
}

func (v *Program) decideComponent(ctx context.Context, req api.Request, resp *api.Response) (*api.Response, Rung, error) {
	z, err := pred(v.f, req.Z, "z")
	if err != nil {
		return nil, "", err
	}
	x, err := pred(v.f, req.X, "x")
	if err != nil {
		return nil, "", err
	}
	u, err := pred(v.f, req.From, "from")
	if err != nil {
		return nil, "", err
	}
	kind := detector
	if req.Check == api.CheckCorrects {
		kind = corrector
	}
	rung, err := v.component(ctx, kind, z, x, u)
	if err != nil || req.Tolerant == "" {
		resp, err = verdict(ctx, resp, err)
		return resp, rung, err
	}
	tol, err := parseKind(req.Tolerant)
	if err != nil {
		return nil, rung, err
	}
	if kind == detector {
		err = core.Detector{Name: v.f.Name, D: v.f.Program, Z: z, X: x, U: u}.CheckToleranceCtx(ctx, v.f.Faults, tol)
	} else {
		err = core.Corrector{Name: v.f.Name, C: v.f.Program, Z: z, X: x, U: u}.CheckToleranceCtx(ctx, v.f.Faults, tol)
	}
	if err != nil && isVerdictErr(err) {
		err = fmt.Errorf("%s-tolerant: %w", tol, err)
	}
	resp, err = verdict(ctx, resp, err)
	return resp, rung, err
}

// decideDeadlock hunts for a reachable deadlock: from the graph of the
// (composed) program from U when it is resident — the hunt's BFS order and
// tie-breaking are PathBetween's, so the witness is the same — and by a
// scan otherwise.
func decideDeadlock(ctx context.Context, f *gcl.File, req api.Request, resp *api.Response) (*api.Response, Rung, error) {
	from, err := pred(f, req.From, "from")
	if err != nil {
		return nil, "", err
	}
	prog := f.Program
	var fairMask []bool
	if req.Faults && !f.Faults.Empty() {
		if prog, fairMask, err = fault.Compose(f.Program, f.Faults); err != nil {
			return nil, "", err
		}
	}
	var trace []state.State
	found := false
	rung := RungScan
	if g, ok := explore.Peek(prog, from, explore.Options{Fair: fairMask, MaxStates: req.MaxStates}); ok {
		trace, found = g.PathBetween(g.SetOf(from), g.DeadlockSet(), nil)
		rung = RungCached
	} else if trace, found, err = explore.FindDeadlockCtx(ctx, prog, from, explore.ScanOptions{Fair: fairMask, MaxStates: req.MaxStates}); err != nil {
		return nil, "", err
	}
	if !found {
		resp.Verdict = api.VerdictDeadlockFree
		return resp, rung, nil
	}
	resp.Verdict = api.VerdictDeadlock
	resp.Detail = fmt.Sprintf("deadlock reached in %d steps", len(trace)-1)
	for _, s := range trace {
		resp.Witness = append(resp.Witness, s.String())
	}
	return resp, rung, nil
}

func decideProve(ctx context.Context, f *gcl.File, req api.Request, resp *api.Response) (*api.Response, error) {
	if f.AST == nil {
		return nil, usagef("prove: the compiled file carries no AST")
	}
	// A fresh System per request: System is not safe for concurrent use,
	// and deriving one is an AST walk — far cheaper than serializing every
	// prove request behind the value's shared instance.
	sys, err := prove.NewSystem(f.AST)
	if err != nil {
		return nil, usagef("prove: %v", err)
	}
	u := req.From
	if u == "" {
		u = "true"
	}
	var reports []*prove.Report
	if req.Invariant != "" {
		rep, err := prove.ProveClosureCtx(ctx, sys, req.Invariant)
		if err != nil {
			return nil, proveErr(err)
		}
		reports = append(reports, rep)
		if req.Span != "" {
			span := req.Span
			if span == "auto" {
				span = ""
			}
			rep, err := prove.ProveSpanClosureCtx(ctx, sys, req.Invariant, span)
			if err != nil {
				return nil, proveErr(err)
			}
			reports = append(reports, rep)
		}
	}
	if req.Z != "" {
		rep, err := prove.ProveSafenessCtx(ctx, sys, u, req.Z, req.X)
		if err != nil {
			return nil, proveErr(err)
		}
		reports = append(reports, rep)
	}
	if req.Goal != "" {
		var rank []gcl.Expr
		if req.Rank != "" {
			for _, part := range strings.Split(req.Rank, ",") {
				e, err := gcl.ParseExpr(strings.TrimSpace(part))
				if err != nil {
					return nil, usagef("rank: %v", err)
				}
				rank = append(rank, e)
			}
		}
		rep, err := prove.ProveConvergenceCtx(ctx, sys, u, req.Goal, rank)
		if err != nil {
			return nil, proveErr(err)
		}
		reports = append(reports, rep)
	}
	resp.Reports = reports
	worst := prove.Proved
	for _, rep := range reports {
		if rep.Verdict == prove.Disproved {
			worst = prove.Disproved
			break
		}
		if rep.Verdict == prove.Unknown {
			worst = prove.Unknown
		}
	}
	switch worst {
	case prove.Disproved:
		resp.Verdict = api.VerdictDisproved
	case prove.Unknown:
		resp.Verdict = api.VerdictUnknown
	default:
		resp.Verdict = api.VerdictProved
	}
	return resp, nil
}

// proveErr classifies an error from a prover entry point: cancellation
// passes through, anything else (an unknown predicate name, a bad rank
// component) is the requester's usage error.
func proveErr(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &UsageError{Err: err}
}
