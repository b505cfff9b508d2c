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
	r := newRefuter(ctx, sys, extra)
	store := absdom.NewStore()
	for _, n := range r.names {
		v := sys.vars[n]
		if x, ok := extra[n]; ok {
			v = x
		}
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
	splits int // remaining case-split budget, shared across the whole query
	notes  []string
	cex    map[string]int

	// Scratch of classes and assertByEnum, reused across calls.
	reps  []string
	group []int
	diseq []bool
	sets  []absdom.Set

	// The query's variables: the system's in declaration order, then the
	// fresh ones. A lowered formula reads its variables' values from env
	// at these positions.
	names []string
	env   []int
	low   map[gcl.Expr]*lowered // every formula lowered so far in this query
}

// newRefuter prepares one validity query over the system's variables and
// extra, the fresh variables of its '?' targets.
func newRefuter(ctx context.Context, sys *System, extra map[string]*VarDom) *refuter {
	r := &refuter{ctx: ctx, sys: sys, splits: splitBudget, low: map[gcl.Expr]*lowered{}}
	r.names = append(make([]string, 0, len(sys.order)+len(extra)), sys.order...)
	for n := range extra {
		r.names = append(r.names, n)
	}
	sort.Strings(r.names[len(sys.order):])
	r.env = make([]int, len(r.names))
	return r
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

// Bounds of assertByEnum's memo: it remembers the enumerations of literals
// over at most memoVars variables, keyed by their grouping into equality
// classes (3 bits a variable) and the disequal pairs among the classes
// (one bit a pair), and at most memoEntries outcomes per literal, searched
// linearly — a literal rarely meets more than a few distinct keys in one
// query.
const (
	memoVars    = 8
	memoEntries = 64
)

// enumEntry is one remembered enumeration: everything it read from the
// store — which class each variable maps to, which pairs of classes are
// disequal, and the classes' value sets in order of first appearance —
// and what it concluded.
type enumEntry struct {
	groups, diseq uint32
	sets          []absdom.Set
	res           enumResult
}

// enumResult is what an enumeration concluded: no satisfying combination,
// or the values of each class that appear in some satisfying combination.
type enumResult struct {
	contradiction bool
	feasible      []absdom.Set
}

// classes groups a lowered formula's variables by the store's equality
// classes: the representatives in order of first appearance, the position
// of each variable's representative, and the disequal pairs among the
// representatives (diseq[i*len(reps)+j] for j < i). The slices are the
// refuter's scratch, valid until the next call.
func (r *refuter) classes(l *lowered, store *absdom.Store) (reps []string, group []int, diseq []bool) {
	reps, group = r.reps[:0], r.group[:0]
	for _, v := range l.vars {
		rep := store.Rep(r.names[v])
		i := indexOf(reps, rep)
		if i < 0 {
			i = len(reps)
			reps = append(reps, rep)
		}
		group = append(group, i)
	}
	diseq = r.diseq[:0]
	for i := range reps {
		for j := range reps {
			diseq = append(diseq, j < i && store.Disequal(reps[i], reps[j]))
		}
	}
	r.reps, r.group, r.diseq = reps, group, diseq
	return reps, group, diseq
}

// enumerate visits every combination of values of the classes' sets in
// ascending odometer order (the last class fastest), skipping combinations
// that give two disequal classes the same value. It fills env for the
// lowered formula's variables and calls visit, which returns false to stop
// the enumeration; enumerate reports whether it stopped early. Each
// combination is one tick, and a cancellation stops the enumeration too:
// callers check the latch before trusting the result.
func (r *refuter) enumerate(l *lowered, group []int, sets []absdom.Set, diseq []bool, visit func(vals []int) bool) bool {
	vals := make([]int, len(sets))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(sets) {
			if r.tick() {
				return true
			}
			for p, v := range l.vars {
				r.env[v] = vals[group[p]]
			}
			return !visit(vals)
		}
		stopped := false
		sets[i].ForEach(func(v int) bool {
			vals[i] = v
			for j := 0; j < i; j++ {
				if vals[j] == v && diseq[i*len(sets)+j] {
					return true
				}
			}
			stopped = rec(i + 1)
			return !stopped
		})
		return stopped
	}
	return rec(0)
}

// assertByEnum decides an arbitrary literal by enumerating the value sets
// of its variables' equality-class representatives (each member variable
// takes its representative's value, and combinations violating a recorded
// disequality are skipped). If no combination satisfies the literal the
// store is contradictory; otherwise each representative is narrowed to
// the values that appear in some satisfying combination. Products beyond
// miniBudget are skipped — the exact fallback may still decide them.
//
// Within one query the outcome of an enumeration is remembered by
// everything it read (enumEntry); a repeat replays the same
// MarkContradictory or Narrow calls, so the store evolves exactly as if it
// had enumerated again, and counts as one tick.
func (r *refuter) assertByEnum(e gcl.Expr, store *absdom.Store) bool {
	l := r.lower(e)
	if len(l.vars) == 0 {
		if l.eval(r.env) == 0 {
			store.MarkContradictory()
			return true
		}
		return false
	}
	reps, group, diseq := r.classes(l, store)
	sets := r.sets[:0]
	total := 1
	for _, rep := range reps {
		set, ok := store.SetOf(rep)
		if !ok || set.IsEmpty() {
			return false
		}
		sets = append(sets, set)
		if c := set.Count(); total > miniBudget/c {
			return false // too wide to enumerate here
		} else {
			total *= c
		}
	}
	r.sets = sets
	var groups, dis uint32
	memo := !r.sys.noEnumMemo && len(l.vars) <= memoVars
	if memo {
		for p, g := range group {
			groups |= uint32(g) << (3 * p)
		}
		bit := 0
		for i := range reps {
			for j := 0; j < i; j++ {
				if diseq[i*len(reps)+j] {
					dis |= 1 << bit
				}
				bit++
			}
		}
		for i := range l.memo {
			if e := &l.memo[i]; e.groups == groups && e.diseq == dis && setsEqual(e.sets, sets) {
				if r.tick() {
					return false
				}
				return applyEnum(e.res, reps, store)
			}
		}
	}
	feasible := make([]absdom.Set, len(reps))
	for i := range feasible {
		feasible[i] = absdom.EmptySet()
	}
	any := false
	r.enumerate(l, group, sets, diseq, func(vals []int) bool {
		if l.eval(r.env) != 0 {
			any = true
			for j, v := range vals {
				feasible[j] = absdom.Union(feasible[j], absdom.SingleSet(v))
			}
		}
		return true
	})
	if r.err != nil {
		return false // the enumeration was cut short: learn nothing from it
	}
	res := enumResult{contradiction: !any, feasible: feasible}
	if memo && len(l.memo) < memoEntries {
		l.memo = append(l.memo, enumEntry{groups: groups, diseq: dis, sets: append([]absdom.Set(nil), sets...), res: res})
	}
	return applyEnum(res, reps, store)
}

func setsEqual(a, b []absdom.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// applyEnum records an enumeration's outcome in the store and reports
// whether the store changed.
func applyEnum(res enumResult, reps []string, store *absdom.Store) bool {
	if res.contradiction {
		store.MarkContradictory()
		return true
	}
	changed := false
	for i, rep := range reps {
		if store.Narrow(rep, res.feasible[i]) {
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
	lows := make([]*lowered, len(conjs))
	for i, e := range conjs {
		lows[i] = r.lower(e)
	}
	// The branch as one formula: the union of the variables, in name order.
	all := &lowered{}
	seen := make([]bool, len(r.names))
	for _, l := range lows {
		for _, v := range l.vars {
			if !seen[v] {
				seen[v] = true
				all.vars = append(all.vars, v)
			}
		}
	}
	sort.Slice(all.vars, func(i, j int) bool { return r.names[all.vars[i]] < r.names[all.vars[j]] })
	// Enumerate per representative; members copy their rep's value.
	reps, group, diseq := r.classes(all, store)
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
	found := r.enumerate(all, group, sets, diseq, func([]int) bool {
		for _, l := range lows {
			if l.eval(r.env) == 0 {
				return true
			}
		}
		return false // satisfied: env holds the witness
	})
	if r.err != nil {
		return inconclusive
	}
	if !found {
		return refuted
	}
	env := make(map[string]int, len(all.vars))
	for _, v := range all.vars {
		env[r.names[v]] = r.env[v]
	}
	// Complete the witness with every declared variable so the report
	// shows a full state (unconstrained variables take their minimum).
	r.cex = map[string]int{}
	for _, name := range r.sys.order {
		if v, bound := env[name]; bound {
			r.cex[name] = v
			continue
		}
		if set, ok := store.SetOf(store.Rep(name)); ok && !set.IsEmpty() {
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
