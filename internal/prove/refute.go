package prove

import (
	"context"
	"fmt"
	"sort"

	"detcorr/internal/absdom"
	"detcorr/internal/gcl"
)

// Engine budgets. miniBudget bounds the per-literal enumeration used
// during constraint propagation; evalBudget bounds the exact fallback that
// decides a branch when propagation is inconclusive; splitBudget bounds
// the total number of DPLL case splits per obligation.
const (
	miniBudget  = 1 << 12
	evalBudget  = 1 << 16
	splitBudget = 1 << 12
)

// pollEvery is how many enumerated assignments pass between two polls of
// the query's context; case splits poll on every split.
const pollEvery = 1 << 10

// Outcome is the result of one validity query.
type Outcome struct {
	Verdict Verdict
	Cex     map[string]int // a state falsifying the obligation, on Disproved
	Notes   []string       // budget-exhaustion traces, on Unknown
}

// valid decides whether hyp1 ∧ hyp2 ∧ ... ⇒ concl holds over the declared
// domains (plus extra, the fresh variables introduced for '?' targets), by
// refuting the conjunction of the hypotheses with ¬concl. The context is
// polled at every case split and every pollEvery enumerated assignments;
// a cancelled query returns ctx.Err() and no outcome.
func (sys *System) valid(ctx context.Context, hyps []gcl.Expr, concl gcl.Expr, extra map[string]*VarDom) (Outcome, error) {
	r := &refuter{ctx: ctx, sys: sys, vars: map[string]*VarDom{}, splits: splitBudget}
	for n, v := range sys.vars {
		r.vars[n] = v
	}
	for n, v := range extra {
		r.vars[n] = v
	}
	store := absdom.NewStore()
	for n, v := range r.vars {
		store.Define(n, absdom.FullSet(v.Lo, v.Hi))
	}
	conjs := make([]gcl.Expr, 0, len(hyps)+1)
	for _, h := range hyps {
		conjs = append(conjs, nnf(h, false))
	}
	conjs = append(conjs, nnf(concl, true))
	st := r.refute(conjs, store)
	// A cancelled search may have cut an enumeration short, so its status
	// means nothing: check the latch before the status.
	if r.err != nil {
		return Outcome{}, r.err
	}
	switch st {
	case refuted:
		return Outcome{Verdict: Proved}, nil
	case satisfiable:
		return Outcome{Verdict: Disproved, Cex: r.cex}, nil
	default:
		return Outcome{Verdict: Unknown, Notes: r.notes}, nil
	}
}

type status int

const (
	refuted status = iota + 1
	satisfiable
	inconclusive
)

type refuter struct {
	ctx    context.Context
	err    error // the context's error, latched once the query is cancelled
	ticks  int   // assignments enumerated since the last poll
	sys    *System
	vars   map[string]*VarDom
	splits int // remaining case-split budget, shared across the whole query
	notes  []string
	cex    map[string]int
}

// stopped polls the context and latches its error. Once it reports true
// every search step unwinds without further work.
func (r *refuter) stopped() bool {
	if r.err == nil {
		r.err = r.ctx.Err()
	}
	return r.err != nil
}

// tick counts one enumerated assignment and polls the context every
// pollEvery of them.
func (r *refuter) tick() bool {
	if r.err != nil {
		return true
	}
	if r.ticks++; r.ticks < pollEvery {
		return false
	}
	r.ticks = 0
	return r.stopped()
}

// refute decides whether the conjunction of NNF formulas is unsatisfiable
// over the store's domains: DPLL with theory propagation. Literals are
// asserted into the relational store to a fixpoint; clauses (disjunctions)
// are pruned by testing each disjunct against the store, refuting the
// branch when a clause has no consistent disjunct, unit-propagating when
// exactly one survives, and case-splitting otherwise. A branch with no
// clauses left is decided exactly by bounded enumeration over the
// narrowed value sets, which also produces the concrete counterexample.
// A cancelled query reports inconclusive at the next case split.
func (r *refuter) refute(conjs []gcl.Expr, store *absdom.Store) status {
	if r.stopped() {
		return inconclusive
	}
	var lits, ors []gcl.Expr
	flatten(conjs, &lits, &ors)
	for _, l := range lits {
		if bl, ok := l.(*gcl.BoolLit); ok && !bl.Value {
			return refuted
		}
	}
	if !r.propagate(lits, store) {
		return refuted
	}
	// Clause pruning and unit propagation to fixpoint.
	for {
		changed := false
		// Not filtered in place: unit propagation can append a live
		// disjunct's nested clauses, outgrowing the read position.
		kept := make([]gcl.Expr, 0, len(ors))
		for _, clause := range ors {
			live := r.liveDisjuncts(clause, lits, store)
			switch len(live) {
			case 0:
				return refuted
			case 1:
				var nl, no []gcl.Expr
				flatten(live, &nl, &no)
				lits = append(lits, nl...)
				kept = append(kept, no...)
				if !r.propagate(nl, store) {
					return refuted
				}
				changed = true
			default:
				if len(live) < countDisjuncts(clause) {
					clause = disj(live...)
					changed = true
				}
				kept = append(kept, clause)
			}
		}
		ors = kept
		if !changed {
			break
		}
	}
	if len(ors) == 0 {
		return r.decideExact(lits, store)
	}
	// Case split on the clause with the fewest disjuncts.
	sort.SliceStable(ors, func(i, j int) bool {
		return countDisjuncts(ors[i]) < countDisjuncts(ors[j])
	})
	clause, rest := ors[0], ors[1:]
	branches := appendDisjuncts(nil, clause)
	if r.splits < len(branches) {
		// Budget exhausted: we can no longer refute by splitting, but the
		// exact fallback over everything left can still decide the branch.
		return r.decideExact(append(append([]gcl.Expr{}, lits...), ors...), store)
	}
	r.splits -= len(branches)
	sawUnknown := false
	for _, d := range branches {
		sub := append(append([]gcl.Expr{}, lits...), rest...)
		sub = append(sub, d)
		switch r.refute(sub, store.Clone()) {
		case satisfiable:
			return satisfiable
		case inconclusive:
			if r.err != nil {
				return inconclusive
			}
			sawUnknown = true
		}
	}
	if sawUnknown {
		return inconclusive
	}
	return refuted
}

// liveDisjuncts returns the disjuncts of a clause that remain consistent
// with the store (testing each by asserting it into a clone along with a
// re-propagation of the branch literals).
func (r *refuter) liveDisjuncts(clause gcl.Expr, lits []gcl.Expr, store *absdom.Store) []gcl.Expr {
	var live []gcl.Expr
	for _, d := range appendDisjuncts(nil, clause) {
		probe := store.Clone()
		var dl, dors []gcl.Expr
		flatten([]gcl.Expr{d}, &dl, &dors)
		if !r.propagate(dl, probe) {
			continue
		}
		// Re-run the branch literals against the strengthened store: an
		// equality learned from d can contradict an arithmetic literal.
		if !r.propagate(lits, probe) {
			continue
		}
		live = append(live, d)
	}
	return live
}

// flatten splits NNF formulas into literals and disjunctions, recursing
// through conjunctions.
func flatten(conjs []gcl.Expr, lits, ors *[]gcl.Expr) {
	for _, e := range conjs {
		if b, ok := e.(*gcl.Binary); ok {
			switch b.Op {
			case gcl.AND:
				flatten([]gcl.Expr{b.L, b.R}, lits, ors)
				continue
			case gcl.OR:
				*ors = append(*ors, b)
				continue
			}
		}
		*lits = append(*lits, e)
	}
}

func appendDisjuncts(out []gcl.Expr, e gcl.Expr) []gcl.Expr {
	if b, ok := e.(*gcl.Binary); ok && b.Op == gcl.OR {
		return appendDisjuncts(appendDisjuncts(out, b.L), b.R)
	}
	return append(out, e)
}

func countDisjuncts(e gcl.Expr) int { return len(appendDisjuncts(nil, e)) }

// propagate asserts every literal into the store repeatedly until nothing
// changes. It reports false when the store becomes contradictory (the
// branch is refuted).
func (r *refuter) propagate(lits []gcl.Expr, store *absdom.Store) bool {
	for round := 0; round < 64; round++ {
		changed := false
		for _, l := range lits {
			if r.assertLiteral(l, store) {
				changed = true
			}
			if store.Contradictory() {
				return false
			}
		}
		if !changed {
			return true
		}
	}
	return !store.Contradictory()
}

// assertLiteral refines the store with one NNF literal and reports whether
// anything changed. Relational forms (var-to-var equality, disequality,
// and order) feed the union-find and interval machinery; everything else
// falls back to a bounded enumeration over the literal's equality-class
// representatives, narrowing each to the projection of the literal's
// satisfying assignments.
func (r *refuter) assertLiteral(l gcl.Expr, store *absdom.Store) bool {
	switch n := l.(type) {
	case *gcl.BoolLit:
		if !n.Value {
			store.MarkContradictory()
			return true
		}
		return false
	case *gcl.Ref:
		return store.Narrow(n.Name, absdom.SingleSet(1))
	case *gcl.Unary:
		if ref, ok := n.X.(*gcl.Ref); ok && n.Op == gcl.NOT {
			return store.Narrow(ref.Name, absdom.SingleSet(0))
		}
		return r.assertByEnum(l, store)
	case *gcl.Binary:
		lr, lok := n.L.(*gcl.Ref)
		rr, rok := n.R.(*gcl.Ref)
		if lok && rok {
			switch n.Op {
			case gcl.EQ:
				return store.Equate(lr.Name, rr.Name)
			case gcl.NEQ:
				return store.Disequate(lr.Name, rr.Name)
			case gcl.LT, gcl.LE, gcl.GT, gcl.GE:
				return r.assertOrder(n.Op, lr.Name, rr.Name, store)
			}
		}
		return r.assertByEnum(l, store)
	}
	return false
}

// assertOrder refines interval bounds from a variable-to-variable order
// literal.
func (r *refuter) assertOrder(op gcl.Kind, a, b string, store *absdom.Store) bool {
	if op == gcl.GT || op == gcl.GE {
		a, b = b, a
		if op == gcl.GT {
			op = gcl.LT
		} else {
			op = gcl.LE
		}
	}
	sa, okA := store.SetOf(a)
	sb, okB := store.SetOf(b)
	if !okA || !okB || sa.IsEmpty() || sb.IsEmpty() {
		return false
	}
	strict := 0
	if op == gcl.LT {
		strict = 1
	}
	changed := store.Narrow(a, sa.ClampMax(sb.IV.Hi-strict))
	if store.Contradictory() {
		return true
	}
	if store.Narrow(b, sb.ClampMin(sa.IV.Lo+strict)) {
		changed = true
	}
	if op == gcl.LT && store.Rep(a) == store.Rep(b) {
		store.MarkContradictory() // x < x
		return true
	}
	return changed
}

// assertByEnum decides an arbitrary literal by enumerating the value sets
// of its variables' equality-class representatives (each member variable
// takes its representative's value, and combinations violating a recorded
// disequality are skipped). If no combination satisfies the literal the
// store is contradictory; otherwise each representative is narrowed to
// the values that appear in some satisfying combination. Products beyond
// miniBudget are skipped — the exact fallback may still decide them.
func (r *refuter) assertByEnum(l gcl.Expr, store *absdom.Store) bool {
	vars := sortedVars(l)
	if len(vars) == 0 {
		if evalExpr(nil, l) == 0 {
			store.MarkContradictory()
			return true
		}
		return false
	}
	// Group variables by representative.
	repOf := map[string]string{}
	var reps []string
	for _, v := range vars {
		rep := store.Rep(v)
		repOf[v] = rep
		seen := false
		for _, x := range reps {
			if x == rep {
				seen = true
				break
			}
		}
		if !seen {
			reps = append(reps, rep)
		}
	}
	sets := make([]absdom.Set, len(reps))
	total := 1
	for i, rep := range reps {
		set, ok := store.SetOf(rep)
		if !ok || set.IsEmpty() {
			return false
		}
		sets[i] = set
		if c := set.Count(); total > miniBudget/c {
			return false // too wide to enumerate here
		} else {
			total *= c
		}
	}
	feasible := make([]absdom.Set, len(reps))
	for i := range feasible {
		feasible[i] = absdom.EmptySet()
	}
	env := map[string]int{}
	vals := make([]int, len(reps))
	var rec func(i int)
	any := false
	rec = func(i int) {
		if i == len(reps) {
			if r.tick() {
				return
			}
			for _, v := range vars {
				env[v] = vals[indexOf(reps, repOf[v])]
			}
			if evalExpr(env, l) == 0 {
				return
			}
			any = true
			for j := range reps {
				feasible[j] = absdom.Union(feasible[j], absdom.SingleSet(vals[j]))
			}
			return
		}
		sets[i].ForEach(func(v int) bool {
			vals[i] = v
			// Skip combinations violating recorded disequalities between the
			// enumerated representatives.
			for j := 0; j < i; j++ {
				if vals[j] == v && store.Disequal(reps[i], reps[j]) {
					return true
				}
			}
			rec(i + 1)
			return true
		})
	}
	rec(0)
	if r.err != nil {
		return false // the enumeration was cut short: learn nothing from it
	}
	if !any {
		store.MarkContradictory()
		return true
	}
	changed := false
	for i, rep := range reps {
		if store.Narrow(rep, feasible[i]) {
			changed = true
		}
	}
	return changed
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// decideExact decides a clause-free branch by enumerating all assignments
// to the formulas' variables over their narrowed value sets, checking the
// full formula list concretely. This is complete for the branch (the store
// narrowings are sound, so no satisfying assignment lies outside them).
// Exceeding evalBudget yields inconclusive with a trace note, and so does
// a cancellation, polled every pollEvery assignments.
func (r *refuter) decideExact(conjs []gcl.Expr, store *absdom.Store) status {
	if r.stopped() {
		return inconclusive
	}
	varSet := map[string]bool{}
	for _, e := range conjs {
		freeVars(e, varSet)
	}
	vars := make([]string, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	// Enumerate per representative; members copy their rep's value.
	var reps []string
	repOf := map[string]string{}
	for _, v := range vars {
		rep := store.Rep(v)
		repOf[v] = rep
		if indexOf(reps, rep) < 0 {
			reps = append(reps, rep)
		}
	}
	sets := make([]absdom.Set, len(reps))
	total := 1
	for i, rep := range reps {
		set, ok := store.SetOf(rep)
		if !ok {
			set = absdom.FullSet(0, 1)
		}
		if set.IsEmpty() {
			return refuted
		}
		sets[i] = set
		if c := set.Count(); total > evalBudget/c {
			r.notes = append(r.notes, fmt.Sprintf(
				"exact fallback abandoned: enumerating %d variables exceeds the %d-assignment budget",
				len(reps), evalBudget))
			return inconclusive
		} else {
			total *= c
		}
	}
	env := map[string]int{}
	vals := make([]int, len(reps))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(reps) {
			if r.tick() {
				return true // stop the enumeration; valid discards the status
			}
			for _, v := range vars {
				env[v] = vals[indexOf(reps, repOf[v])]
			}
			for _, e := range conjs {
				if evalExpr(env, e) == 0 {
					return false
				}
			}
			return true
		}
		found := false
		sets[i].ForEach(func(v int) bool {
			vals[i] = v
			for j := 0; j < i; j++ {
				if vals[j] == v && store.Disequal(reps[i], reps[j]) {
					return true
				}
			}
			if rec(i + 1) {
				found = true
				return false
			}
			return true
		})
		return found
	}
	found := rec(0)
	if r.err != nil {
		return inconclusive
	}
	if found {
		// Complete the witness with every declared variable so the report
		// shows a full state (unconstrained variables take their minimum).
		r.cex = map[string]int{}
		for _, name := range r.sys.order {
			if v, bound := env[name]; bound {
				r.cex[name] = v
				continue
			}
			rep := repOf[name]
			if rep == "" {
				rep = store.Rep(name)
			}
			if set, ok := store.SetOf(rep); ok && !set.IsEmpty() {
				r.cex[name] = set.IV.Lo
			} else {
				r.cex[name] = r.sys.vars[name].Lo
			}
		}
		for name, v := range env {
			if _, declared := r.sys.vars[name]; !declared {
				r.cex[name] = v // fresh '?' variables, rendered with their tick
			}
		}
		return satisfiable
	}
	return refuted
}
