package prove

import (
	"context"
	"fmt"
	"strings"

	"detcorr/internal/absdom"
	"detcorr/internal/gcl"
)

// This file assembles the four provers from the refutation engine. Each
// prover reduces its property to a set of per-action Hoare obligations
// {hyps ∧ guard} assignment {post} — validity of hyps ∧ guard ⇒ wp(a, post)
// over the finite domains — and reports the aggregate verdict.

// proveAction discharges one Hoare obligation {hyps ∧ guard} a {post}.
func (sys *System) proveAction(ctx context.Context, a *gcl.ActionDecl, hyps []gcl.Expr, post gcl.Expr) (ActionResult, error) {
	extra := map[string]*VarDom{}
	sigma := sys.wp(a, extra)
	all := append(append([]gcl.Expr{}, hyps...), a.Guard)
	out, err := sys.valid(ctx, all, subst(post, sigma), extra)
	if err != nil {
		return ActionResult{}, err
	}
	return sys.actionResult(a.Name, out), nil
}

// validResult runs one validity query and reports it as a named result.
func (sys *System) validResult(ctx context.Context, name string, hyps []gcl.Expr, concl gcl.Expr) (ActionResult, error) {
	out, err := sys.valid(ctx, hyps, concl, nil)
	if err != nil {
		return ActionResult{}, err
	}
	return sys.actionResult(name, out), nil
}

func (sys *System) actionResult(name string, out Outcome) ActionResult {
	res := ActionResult{Action: name, Verdict: out.Verdict}
	if out.Verdict == Disproved {
		res.Counterexample = sys.envString(out.Cex)
	}
	if len(out.Notes) > 0 {
		res.Note = strings.Join(out.Notes, "; ")
	}
	return res
}

// aggregate folds per-obligation verdicts: one disproof disproves the
// aggregate (some obligation has a concrete violation), otherwise one
// unknown makes it unknown.
func aggregate(results []ActionResult) Verdict {
	v := Proved
	for _, r := range results {
		switch r.Verdict {
		case Disproved:
			return Disproved
		case Unknown:
			v = Unknown
		}
	}
	return v
}

func (sys *System) needPred(name string) (gcl.Expr, error) {
	if name == "true" {
		return &gcl.BoolLit{Value: true}, nil
	}
	e, ok := sys.preds[name]
	if !ok {
		return nil, fmt.Errorf("prove: no predicate %q (file declares: %s)",
			name, strings.Join(sys.PredNames(), ", "))
	}
	return e, nil
}

// proveClosureExpr discharges {inv ∧ g} a {inv} for every action in acts.
// Cancellation is polled inside every obligation (see valid).
func (sys *System) proveClosureExpr(ctx context.Context, code, subject string, inv gcl.Expr, acts []gcl.ActionDecl) (*Report, error) {
	rep := &Report{Code: code, Subject: subject}
	for i := range acts {
		res, err := sys.proveAction(ctx, &acts[i], []gcl.Expr{inv}, inv)
		if err != nil {
			return nil, err
		}
		rep.Actions = append(rep.Actions, res)
	}
	rep.Verdict = aggregate(rep.Actions)
	return rep, nil
}

// ProveClosure (DC100) proves that the named predicate is closed under the
// program actions: {S ∧ g} a {S} for every action a. Closure quantifies
// over every S-state, exactly like spec.CheckClosed, so Proved and
// Disproved both agree with the graph-based check.
func ProveClosure(sys *System, inv string) (*Report, error) {
	return ProveClosureCtx(context.Background(), sys, inv)
}

// ProveClosureCtx is ProveClosure under a context; cancellation returns
// ctx.Err().
func ProveClosureCtx(ctx context.Context, sys *System, inv string) (*Report, error) {
	S, err := sys.needPred(inv)
	if err != nil {
		return nil, err
	}
	return sys.proveClosureExpr(ctx, CodeClosure,
		fmt.Sprintf("closure of %s under the program actions", inv), S, sys.actions)
}

// ProveSpanClosure (DC101) proves that a fault span — the named span
// predicate, or one inferred from the invariant when span is empty — both
// contains the invariant and is closed under the program and fault actions
// together, the defining property of a fault span in the paper.
func ProveSpanClosure(sys *System, inv, span string) (*Report, error) {
	return ProveSpanClosureCtx(context.Background(), sys, inv, span)
}

// ProveSpanClosureCtx is ProveSpanClosure under a context; cancellation
// returns ctx.Err().
func ProveSpanClosureCtx(ctx context.Context, sys *System, inv, span string) (*Report, error) {
	S, err := sys.needPred(inv)
	if err != nil {
		return nil, err
	}
	all := append(append([]gcl.ActionDecl{}, sys.actions...), sys.faults...)
	var rep *Report
	var T gcl.Expr
	if span != "" {
		if T, err = sys.needPred(span); err != nil {
			return nil, err
		}
		rep, err = sys.proveClosureExpr(ctx, CodeSpanClosure,
			fmt.Sprintf("closure of span %s under program and fault actions", span), T, all)
		if err != nil {
			return nil, err
		}
	} else {
		box, err := sys.inferSpan(ctx, S)
		if err != nil {
			return nil, err
		}
		T = sys.boxExpr(box)
		rep, err = sys.proveClosureExpr(ctx, CodeSpanClosure,
			fmt.Sprintf("closure of the inferred span of %s under program and fault actions", inv), T, all)
		if err != nil {
			return nil, err
		}
		rep.Span = sys.boxStrings(box)
	}
	contains, err := sys.validResult(ctx, fmt.Sprintf("(span contains %s)", inv), []gcl.Expr{S}, T)
	if err != nil {
		return nil, err
	}
	rep.Actions = append(rep.Actions, contains)
	rep.Verdict = aggregate(rep.Actions)
	return rep, nil
}

// ProveSafeness (DC102) proves detector safeness and stability within U:
// U ∧ Z ⇒ X, and per action {U ∧ Z ∧ g} a {Z ∨ ¬X}. Note the obligations
// quantify over all U-states while the graph-based detector check inspects
// only reachable ones, so only Proved transfers to the graph verdict;
// a disproof may rest on an unreachable witness.
func ProveSafeness(sys *System, u, z, x string) (*Report, error) {
	return ProveSafenessCtx(context.Background(), sys, u, z, x)
}

// ProveSafenessCtx is ProveSafeness under a context; cancellation returns
// ctx.Err().
func ProveSafenessCtx(ctx context.Context, sys *System, u, z, x string) (*Report, error) {
	U, err := sys.needPred(u)
	if err != nil {
		return nil, err
	}
	Z, err := sys.needPred(z)
	if err != nil {
		return nil, err
	}
	X, err := sys.needPred(x)
	if err != nil {
		return nil, err
	}
	rep := &Report{Code: CodeSafeness,
		Subject: fmt.Sprintf("detector safeness and stability of %s => %s within %s", z, x, u)}
	safe, err := sys.validResult(ctx, fmt.Sprintf("(safeness: %s & %s => %s)", u, z, x), []gcl.Expr{U, Z}, X)
	if err != nil {
		return nil, err
	}
	rep.Actions = append(rep.Actions, safe)
	post := disj(Z, neg(X))
	for i := range sys.actions {
		res, err := sys.proveAction(ctx, &sys.actions[i], []gcl.Expr{U, Z}, post)
		if err != nil {
			return nil, err
		}
		res.Action += " (stability)"
		rep.Actions = append(rep.Actions, res)
	}
	rep.Verdict = aggregate(rep.Actions)
	return rep, nil
}

// ProveConvergence (DC103) proves that every computation of the program
// from a state in U reaches the goal predicate. rank, when non-empty, is a
// user-supplied lexicographic ranking function (integer-valued components,
// most significant first); when empty one is synthesized.
func ProveConvergence(sys *System, u, goal string, rank []gcl.Expr) (*Report, error) {
	return ProveConvergenceCtx(context.Background(), sys, u, goal, rank)
}

// ProveConvergenceCtx is ProveConvergence under a context; cancellation
// returns ctx.Err(), also from inside one obligation's refutation or one
// rank-synthesis candidate.
func ProveConvergenceCtx(ctx context.Context, sys *System, u, goal string, rank []gcl.Expr) (*Report, error) {
	U, err := sys.needPred(u)
	if err != nil {
		return nil, err
	}
	G, err := sys.needPred(goal)
	if err != nil {
		return nil, err
	}
	inlined := make([]gcl.Expr, len(rank))
	desc := make([]string, len(rank))
	for i, e := range rank {
		if inlined[i], err = sys.Inline(e); err != nil {
			return nil, fmt.Errorf("prove: rank component %d: %w", i+1, err)
		}
		desc[i] = exprString(e)
	}
	return sys.proveConvergenceExpr(ctx,
		fmt.Sprintf("convergence from %s to %s", u, goal), U, G, inlined, desc, true)
}

// proveConvergenceExpr proves convergence from U to goal: closure of U
// (unless the caller already discharged it), absence of deadlock in
// U ∧ ¬goal, and per-action strict descent of a lexicographic ranking
// function. The region argument of every computation step is U ∧ ¬goal:
// closure keeps steps in U, and a step that stays outside the goal is back
// in the region, so a ranking function that strictly decreases on every
// region step bounds the computation length. Strict per-action decrease
// needs no fairness assumption. A disproof of closure or deadlock-freedom
// is genuine; a failed descent only faults the ranking function, so it
// downgrades to Unknown.
func (sys *System) proveConvergenceExpr(ctx context.Context, subject string, U, G gcl.Expr, rank []gcl.Expr, rankDesc []string, withClosure bool) (*Report, error) {
	rep := &Report{Code: CodeConvergence, Subject: subject}
	if withClosure {
		for i := range sys.actions {
			res, err := sys.proveAction(ctx, &sys.actions[i], []gcl.Expr{U}, U)
			if err != nil {
				return nil, err
			}
			res.Action += " (closure)"
			rep.Actions = append(rep.Actions, res)
		}
	}
	var guards []gcl.Expr
	for i := range sys.actions {
		guards = append(guards, sys.actions[i].Guard)
	}
	live, err := sys.validResult(ctx, "(no deadlock outside the goal)", []gcl.Expr{U, neg(G)}, disj(guards...))
	if err != nil {
		return nil, err
	}
	rep.Actions = append(rep.Actions, live)
	if aggregate(rep.Actions) == Disproved {
		rep.Verdict = Disproved
		return rep, nil
	}
	if len(rank) == 0 {
		synth, sdesc, results, ok, err := sys.synthesizeRank(ctx, U, G)
		if err != nil {
			return nil, err
		}
		if !ok {
			rep.Notes = append(rep.Notes,
				"no lexicographic ranking function found over predicate indicators and variable values; supply one or fall back to exploration")
			rep.Verdict = Unknown
			return rep, nil
		}
		rank, rankDesc = synth, sdesc
		rep.Actions = append(rep.Actions, results...)
	} else {
		for i := range sys.actions {
			a := &sys.actions[i]
			extra := map[string]*VarDom{}
			sigma := sys.wp(a, extra)
			post := disj(subst(G, sigma), lexDec(rank, sigma))
			out, err := sys.valid(ctx, []gcl.Expr{U, neg(G), a.Guard}, post, extra)
			if err != nil {
				return nil, err
			}
			res := sys.actionResult(a.Name+" (descent)", out)
			if res.Verdict == Disproved {
				res.Verdict = Unknown
				res.Note = strings.TrimSpace(strings.TrimSuffix(
					"the ranking function does not decrease on this step; "+res.Note, "; "))
			}
			rep.Actions = append(rep.Actions, res)
		}
	}
	rep.Rank = rankDesc
	rep.Verdict = aggregate(rep.Actions)
	return rep, nil
}

// lexDec builds the strict lexicographic-decrease predicate
// ∨_i (∧_{j<i} rank_j[σ] == rank_j) ∧ rank_i[σ] < rank_i.
func lexDec(rank []gcl.Expr, sigma map[string]gcl.Expr) gcl.Expr {
	var cases []gcl.Expr
	for i := range rank {
		var cs []gcl.Expr
		for j := 0; j < i; j++ {
			cs = append(cs, &gcl.Binary{Op: gcl.EQ, L: subst(rank[j], sigma), R: rank[j]})
		}
		cs = append(cs, &gcl.Binary{Op: gcl.LT, L: subst(rank[i], sigma), R: rank[i]})
		cases = append(cases, conj(cs...))
	}
	return disj(cases...)
}

// synthesizeRank greedily builds a lexicographic ranking function for the
// region U ∧ ¬G, Bradley–Manna–Sipma style. Candidates are predicate
// indicators (a predicate is 1 when true), boolean variables, and integer
// variables in both directions. Each level picks the candidate that is
// non-increasing under every remaining action (or the action enters the
// goal) and strictly decreases the most; decreased actions are removed and
// the search recurses on the rest. An action removed at level k satisfies
// the lexicographic-decrease obligation outright: levels before k are
// non-increasing, so the first level that moves on any step is a strict
// decrease at or before k. Failure to cover every action yields no rank —
// the caller reports Unknown, never Disproved, since candidate exhaustion
// says nothing about convergence itself.
func (sys *System) synthesizeRank(ctx context.Context, U, G gcl.Expr) ([]gcl.Expr, []string, []ActionResult, bool, error) {
	type cand struct {
		e    gcl.Expr
		desc string
	}
	var cands []cand
	for _, name := range sys.PredNames() {
		body := sys.preds[name]
		cands = append(cands, cand{body, name}, cand{neg(body), "!" + name})
	}
	for _, name := range sys.order {
		v := sys.vars[name]
		ref := &gcl.Ref{Name: name}
		if v.Bool {
			cands = append(cands, cand{ref, name}, cand{neg(ref), "!" + name})
			continue
		}
		cands = append(cands,
			cand{ref, name},
			cand{&gcl.Binary{Op: gcl.MINUS, L: &gcl.IntLit{Value: v.Hi}, R: ref}, fmt.Sprintf("%d-%s", v.Hi, name)})
	}
	remaining := make([]int, 0, len(sys.actions))
	for i := range sys.actions {
		remaining = append(remaining, i)
	}
	var rank []gcl.Expr
	var desc []string
	results := map[int]ActionResult{}
	used := map[int]bool{}
	for len(remaining) > 0 {
		bestCand, bestDec := -1, []int(nil)
		for ci := range cands {
			if used[ci] {
				continue
			}
			c := cands[ci]
			ok := true
			var dec []int
			for _, ai := range remaining {
				a := &sys.actions[ai]
				extra := map[string]*VarDom{}
				sigma := sys.wp(a, extra)
				after := subst(c.e, sigma)
				nonInc, err := sys.valid(ctx, []gcl.Expr{U, neg(G), a.Guard},
					disj(subst(G, sigma), &gcl.Binary{Op: gcl.LE, L: after, R: c.e}), extra)
				if err != nil {
					return nil, nil, nil, false, err
				}
				if nonInc.Verdict != Proved {
					ok = false
					break
				}
				strict, err := sys.valid(ctx, []gcl.Expr{U, neg(G), a.Guard},
					disj(subst(G, sigma), &gcl.Binary{Op: gcl.LT, L: after, R: c.e}), extra)
				if err != nil {
					return nil, nil, nil, false, err
				}
				if strict.Verdict == Proved {
					dec = append(dec, ai)
				}
			}
			if ok && len(dec) > len(bestDec) {
				bestCand, bestDec = ci, dec
			}
		}
		if bestCand < 0 || len(bestDec) == 0 {
			return nil, nil, nil, false, nil
		}
		level := len(rank)
		rank = append(rank, cands[bestCand].e)
		desc = append(desc, cands[bestCand].desc)
		used[bestCand] = true
		decSet := map[int]bool{}
		for _, ai := range bestDec {
			decSet[ai] = true
			results[ai] = ActionResult{
				Action:  sys.actions[ai].Name + " (descent)",
				Verdict: Proved,
				Note:    fmt.Sprintf("strictly decreases rank level %d (%s)", level+1, cands[bestCand].desc),
			}
		}
		kept := remaining[:0]
		for _, ai := range remaining {
			if !decSet[ai] {
				kept = append(kept, ai)
			}
		}
		remaining = kept
	}
	ordered := make([]ActionResult, 0, len(results))
	for i := range sys.actions {
		if r, ok := results[i]; ok {
			ordered = append(ordered, r)
		}
	}
	return rank, desc, ordered, true, nil
}

// inferSpan computes a Cartesian over-approximation of the states reachable
// from inv under the program and fault actions: the least fixpoint of a
// per-variable value-set environment under the abstract post of every
// action. The induced box predicate contains inv and is closed under the
// actions by construction (modulo the abstraction), which makes it a fault
// span candidate in the sense of the paper — the closure proof then
// re-checks it independently. The context is polled like a validity
// query's, and before each action's abstract post; a cancelled inference
// returns ctx.Err().
func (sys *System) inferSpan(ctx context.Context, inv gcl.Expr) (map[string]absdom.Set, error) {
	r := newRefuter(ctx, sys, nil)
	store := absdom.NewStore()
	for _, n := range sys.order {
		v := sys.vars[n]
		store.Define(n, absdom.FullSet(v.Lo, v.Hi))
	}
	box := map[string]absdom.Set{}
	var lits, ors []gcl.Expr
	flatten([]gcl.Expr{nnf(inv, false)}, &lits, &ors)
	// A cancelled propagation may have cut an enumeration short, so every
	// propagation checks the latch before its result.
	ok := r.propagate(lits, store)
	if r.err != nil {
		return nil, r.err
	}
	if !ok {
		for _, n := range sys.order {
			box[n] = absdom.EmptySet()
		}
		return box, nil
	}
	// Refine the initial box with the disjunctive structure: a variable's
	// set under a clause is the union of its narrowings over the disjuncts.
	for _, clause := range ors {
		union := map[string]absdom.Set{}
		for _, n := range sys.order {
			union[n] = absdom.EmptySet()
		}
		feasible := false
		for _, d := range appendDisjuncts(nil, clause) {
			probe := store.Clone()
			var dl, dors []gcl.Expr
			flatten([]gcl.Expr{d}, &dl, &dors)
			ok := r.propagate(dl, probe)
			if r.err != nil {
				return nil, r.err
			}
			if !ok {
				continue
			}
			feasible = true
			for _, n := range sys.order {
				if s, ok := probe.SetOf(n); ok {
					union[n] = absdom.Union(union[n], s)
				}
			}
		}
		if feasible {
			for _, n := range sys.order {
				store.Narrow(n, union[n])
			}
		}
	}
	for _, n := range sys.order {
		s, _ := store.SetOf(n)
		box[n] = s
	}
	// Least fixpoint of the abstract post: evaluate each action's
	// assignments over the guard-narrowed box and union the results in.
	all := append(append([]gcl.ActionDecl{}, sys.actions...), sys.faults...)
	for changed := true; changed; {
		changed = false
		for i := range all {
			if r.stopped() { // the abstract post below does not poll
				return nil, r.err
			}
			a := &all[i]
			st := absdom.NewStore()
			for _, n := range sys.order {
				st.Define(n, box[n])
			}
			var gl, gors []gcl.Expr
			flatten([]gcl.Expr{nnf(a.Guard, false)}, &gl, &gors)
			_ = gors // or-clauses are ignored: over-approximates enabledness, still sound
			ok := r.propagate(gl, st)
			if r.err != nil {
				return nil, r.err
			}
			if !ok {
				continue // guard unsatisfiable anywhere in the box
			}
			for _, as := range a.Assigns {
				dom := sys.vars[as.Var]
				var ns absdom.Set
				if as.Expr == nil {
					ns = absdom.FullSet(dom.Lo, dom.Hi) // wildcard: anything in the domain
				} else {
					ns = absdom.Intersect(sys.absEvalSet(st, as.Expr), absdom.FullSet(dom.Lo, dom.Hi))
				}
				merged := absdom.Union(box[as.Var], ns)
				if !absdom.Equal(merged, box[as.Var]) {
					box[as.Var] = merged
					changed = true
				}
			}
		}
	}
	return box, nil
}

// absEvalSet over-approximates the value set of an expression over the
// per-variable sets in a store: exact enumeration when the operand sets
// are small, interval arithmetic (or the full boolean range) beyond.
func (sys *System) absEvalSet(st *absdom.Store, e gcl.Expr) absdom.Set {
	boolSet := func() absdom.Set { return absdom.FullSet(0, 1) }
	switch n := e.(type) {
	case *gcl.BoolLit:
		if n.Value {
			return absdom.SingleSet(1)
		}
		return absdom.SingleSet(0)
	case *gcl.IntLit:
		return absdom.SingleSet(n.Value)
	case *gcl.Ref:
		if s, ok := st.SetOf(n.Name); ok {
			return s
		}
		return boolSet()
	case *gcl.Unary:
		s := sys.absEvalSet(st, n.X)
		if s.IsEmpty() {
			return s
		}
		if s.Exact() && s.Count() <= 64 {
			out := absdom.EmptySet()
			s.ForEach(func(v int) bool {
				if n.Op == gcl.NOT {
					v = 1 - v
				} else {
					v = -v
				}
				out = absdom.Union(out, absdom.SingleSet(v))
				return true
			})
			return out
		}
		if n.Op == gcl.NOT {
			return boolSet()
		}
		return absdom.FullSet(-s.IV.Hi, -s.IV.Lo)
	case *gcl.Binary:
		l := sys.absEvalSet(st, n.L)
		r := sys.absEvalSet(st, n.R)
		if l.IsEmpty() || r.IsEmpty() {
			return absdom.EmptySet()
		}
		if l.Exact() && r.Exact() && l.Count()*r.Count() <= miniBudget {
			out := absdom.EmptySet()
			l.ForEach(func(a int) bool {
				r.ForEach(func(b int) bool {
					out = absdom.Union(out, absdom.SingleSet(absdom.EvalBinary(n.Op, a, b)))
					return true
				})
				return true
			})
			return out
		}
		switch n.Op {
		case gcl.PLUS, gcl.MINUS, gcl.STAR, gcl.PERCENT:
			v := absdom.Binary(n.Op, absdom.IntVal(l.IV.Lo, l.IV.Hi), absdom.IntVal(r.IV.Lo, r.IV.Hi))
			return absdom.FullSet(v.IV.Lo, v.IV.Hi)
		}
		return boolSet()
	}
	return boolSet()
}

// boxExpr renders a box as a predicate: the conjunction of per-variable
// membership constraints, omitting variables that may take any value.
func (sys *System) boxExpr(box map[string]absdom.Set) gcl.Expr {
	var cs []gcl.Expr
	for _, name := range sys.order {
		v := sys.vars[name]
		s := box[name]
		if absdom.Equal(s, absdom.FullSet(v.Lo, v.Hi)) {
			continue
		}
		if s.IsEmpty() {
			return &gcl.BoolLit{Value: false}
		}
		ref := &gcl.Ref{Name: name}
		if s.Exact() && s.Count() < s.IV.Hi-s.IV.Lo+1 {
			var eqs []gcl.Expr
			s.ForEach(func(val int) bool {
				eqs = append(eqs, &gcl.Binary{Op: gcl.EQ, L: ref, R: &gcl.IntLit{Value: val}})
				return true
			})
			cs = append(cs, disj(eqs...))
			continue
		}
		if s.IV.Lo > v.Lo {
			cs = append(cs, &gcl.Binary{Op: gcl.GE, L: ref, R: &gcl.IntLit{Value: s.IV.Lo}})
		}
		if s.IV.Hi < v.Hi {
			cs = append(cs, &gcl.Binary{Op: gcl.LE, L: ref, R: &gcl.IntLit{Value: s.IV.Hi}})
		}
	}
	return conj(cs...)
}

// boxStrings renders a box for the report, in variable declaration order.
func (sys *System) boxStrings(box map[string]absdom.Set) []string {
	var out []string
	for _, name := range sys.order {
		v := sys.vars[name]
		s := box[name]
		if absdom.Equal(s, absdom.FullSet(v.Lo, v.Hi)) {
			continue
		}
		out = append(out, fmt.Sprintf("%s in %s", name, sys.valueSetString(v, s)))
	}
	if len(out) == 0 {
		return []string{"(unconstrained: the span is the whole state space)"}
	}
	return out
}

func (sys *System) valueSetString(v *VarDom, s absdom.Set) string {
	render := func(val int) string {
		switch {
		case v.Bool:
			return fmt.Sprintf("%v", val != 0)
		case v.Enum != nil && val >= 0 && val < len(v.Enum):
			return v.Enum[val]
		default:
			return fmt.Sprintf("%d", val)
		}
	}
	if s.IsEmpty() {
		return "{}"
	}
	if s.Exact() && s.Count() <= 8 {
		var parts []string
		s.ForEach(func(val int) bool {
			parts = append(parts, render(val))
			return true
		})
		return "{" + strings.Join(parts, ",") + "}"
	}
	return fmt.Sprintf("[%s..%s]", render(s.IV.Lo), render(s.IV.Hi))
}
