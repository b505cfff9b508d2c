package prove

import (
	"fmt"
	"sort"
	"strings"

	"detcorr/internal/absdom"
	"detcorr/internal/gcl"
)

// subst returns e with every variable reference in sigma replaced by its
// image, in one simultaneous pass. Expressions are never mutated; shared
// subtrees are reused when unchanged.
func subst(e gcl.Expr, sigma map[string]gcl.Expr) gcl.Expr {
	if len(sigma) == 0 {
		return e
	}
	switch n := e.(type) {
	case *gcl.BoolLit, *gcl.IntLit:
		return e
	case *gcl.Ref:
		if img, ok := sigma[n.Name]; ok {
			return img
		}
		return e
	case *gcl.Unary:
		x := subst(n.X, sigma)
		if x == n.X {
			return e
		}
		return &gcl.Unary{Op: n.Op, X: x, At: n.At}
	case *gcl.Binary:
		l, r := subst(n.L, sigma), subst(n.R, sigma)
		if l == n.L && r == n.R {
			return e
		}
		return &gcl.Binary{Op: n.Op, L: l, R: r, At: n.At}
	}
	return e
}

// wp builds the substitution of an action's simultaneous assignment. For a
// deterministic target x := e the substitution maps x to e; for the
// wildcard x := ? it maps x to a fresh universally-quantified variable
// with x's domain ("x'", "x”", ...), registered in extra. Proving
// validity of the obligation with the fresh variable free is exactly the
// ∀-quantified weakest precondition over the finite domain.
func (sys *System) wp(a *gcl.ActionDecl, extra map[string]*VarDom) map[string]gcl.Expr {
	sigma := map[string]gcl.Expr{}
	for _, as := range a.Assigns {
		if as.Expr != nil {
			sigma[as.Var] = as.Expr
			continue
		}
		sys.fresh++
		base := sys.vars[as.Var]
		name := fmt.Sprintf("%s'%d", as.Var, sys.fresh)
		extra[name] = &VarDom{Name: name, Bool: base.Bool, Lo: base.Lo, Hi: base.Hi, Enum: base.Enum}
		sigma[as.Var] = &gcl.Ref{Name: name, At: as.At}
	}
	return sigma
}

// nnf converts an inlined boolean expression to negation normal form:
// IMPLIES eliminated, NOT pushed onto atoms (comparison operators are
// flipped, so negation survives only on boolean variable references).
func nnf(e gcl.Expr, neg bool) gcl.Expr {
	switch n := e.(type) {
	case *gcl.BoolLit:
		return &gcl.BoolLit{Value: n.Value != neg, At: n.At}
	case *gcl.Ref:
		if neg {
			return &gcl.Unary{Op: gcl.NOT, X: n, At: n.At}
		}
		return n
	case *gcl.Unary:
		if n.Op == gcl.NOT {
			return nnf(n.X, !neg)
		}
		return n // unary minus below an atom; unreachable at boolean level
	case *gcl.Binary:
		switch n.Op {
		case gcl.AND:
			op := gcl.AND
			if neg {
				op = gcl.OR
			}
			return &gcl.Binary{Op: op, L: nnf(n.L, neg), R: nnf(n.R, neg), At: n.At}
		case gcl.OR:
			op := gcl.OR
			if neg {
				op = gcl.AND
			}
			return &gcl.Binary{Op: op, L: nnf(n.L, neg), R: nnf(n.R, neg), At: n.At}
		case gcl.IMPLIES:
			// a => b  ==  !a | b
			if neg {
				return &gcl.Binary{Op: gcl.AND, L: nnf(n.L, false), R: nnf(n.R, true), At: n.At}
			}
			return &gcl.Binary{Op: gcl.OR, L: nnf(n.L, true), R: nnf(n.R, false), At: n.At}
		case gcl.EQ, gcl.NEQ, gcl.LT, gcl.LE, gcl.GT, gcl.GE:
			if !neg {
				return n
			}
			return &gcl.Binary{Op: flipCmp(n.Op), L: n.L, R: n.R, At: n.At}
		}
		return n
	}
	return e
}

func flipCmp(op gcl.Kind) gcl.Kind {
	switch op {
	case gcl.EQ:
		return gcl.NEQ
	case gcl.NEQ:
		return gcl.EQ
	case gcl.LT:
		return gcl.GE
	case gcl.LE:
		return gcl.GT
	case gcl.GT:
		return gcl.LE
	case gcl.GE:
		return gcl.LT
	}
	return op
}

// sortedVars returns the variable names an inlined expression references,
// sorted.
func sortedVars(e gcl.Expr) []string {
	var out []string
	var walk func(e gcl.Expr)
	walk = func(e gcl.Expr) {
		switch n := e.(type) {
		case *gcl.Ref:
			for _, v := range out {
				if v == n.Name {
					return
				}
			}
			out = append(out, n.Name)
		case *gcl.Unary:
			walk(n.X)
		case *gcl.Binary:
			walk(n.L)
			walk(n.R)
		}
	}
	walk(e)
	sort.Strings(out)
	return out
}

// lowered is a formula compiled once per validity query: its free
// variables in name order, as positions in the query's variable list, and
// an evaluator over a query-wide assignment indexed by those positions
// (booleans are 0/1, enum values their index, range values source-level).
type lowered struct {
	vars []int
	eval func(env []int) int
	memo []enumEntry // assertByEnum's outcomes, by what they read
}

// lower returns e's lowered form, compiling it on first use in the query.
func (r *refuter) lower(e gcl.Expr) *lowered {
	if l, ok := r.low[e]; ok {
		return l
	}
	names := sortedVars(e)
	l := &lowered{vars: make([]int, len(names)), eval: r.compile(e)}
	for i, n := range names {
		l.vars[i] = r.slot(n)
	}
	r.low[e] = l
	return l
}

// slot returns a variable's position in the query's variable list,
// appending a name the query has not declared (it reads as 0 until
// assigned, as it always has).
func (r *refuter) slot(name string) int {
	if i, ok := r.sys.index[name]; ok {
		return i
	}
	for i := len(r.sys.order); i < len(r.names); i++ {
		if r.names[i] == name {
			return i
		}
	}
	r.names = append(r.names, name)
	r.env = append(r.env, 0)
	return len(r.names) - 1
}

// compile turns an inlined expression into a closure over the query-wide
// assignment.
func (r *refuter) compile(e gcl.Expr) func(env []int) int {
	switch n := e.(type) {
	case *gcl.BoolLit:
		v := 0
		if n.Value {
			v = 1
		}
		return func([]int) int { return v }
	case *gcl.IntLit:
		v := n.Value
		return func([]int) int { return v }
	case *gcl.Ref:
		i := r.slot(n.Name)
		return func(env []int) int { return env[i] }
	case *gcl.Unary:
		if ref, ok := n.X.(*gcl.Ref); ok && n.Op == gcl.NOT {
			i := r.slot(ref.Name)
			return func(env []int) int { return 1 - env[i] }
		}
		x := r.compile(n.X)
		if n.Op == gcl.NOT {
			return func(env []int) int { return 1 - x(env) }
		}
		return func(env []int) int { return -x(env) }
	case *gcl.Binary:
		// Most literals compare a variable with a variable or a constant:
		// one closure reads both operands.
		op := n.Op
		li, lc, lleaf := r.leaf(n.L)
		ri, rc, rleaf := r.leaf(n.R)
		switch {
		case lleaf && rleaf && li >= 0 && ri >= 0:
			return func(env []int) int { return absdom.EvalBinary(op, env[li], env[ri]) }
		case lleaf && rleaf && li >= 0:
			return func(env []int) int { return absdom.EvalBinary(op, env[li], rc) }
		case lleaf && rleaf && ri >= 0:
			return func(env []int) int { return absdom.EvalBinary(op, lc, env[ri]) }
		}
		a, b := r.compile(n.L), r.compile(n.R)
		return func(env []int) int { return absdom.EvalBinary(op, a(env), b(env)) }
	}
	return func([]int) int { return 0 }
}

// leaf reports whether e is a variable or a literal: a variable's position
// in the query (c unused), or a literal's value c with position -1.
func (r *refuter) leaf(e gcl.Expr) (i, c int, ok bool) {
	switch n := e.(type) {
	case *gcl.Ref:
		return r.slot(n.Name), 0, true
	case *gcl.IntLit:
		return -1, n.Value, true
	case *gcl.BoolLit:
		if n.Value {
			return -1, 1, true
		}
		return -1, 0, true
	}
	return 0, 0, false
}

// exprString renders an inlined expression in GCL syntax (fully
// parenthesized below the top level, which is good enough for reports).
func exprString(e gcl.Expr) string {
	switch n := e.(type) {
	case *gcl.BoolLit:
		return fmt.Sprintf("%v", n.Value)
	case *gcl.IntLit:
		return fmt.Sprintf("%d", n.Value)
	case *gcl.Ref:
		return n.Name
	case *gcl.Unary:
		if n.Op == gcl.NOT {
			return "!" + exprString(n.X)
		}
		return "-" + exprString(n.X)
	case *gcl.Binary:
		return fmt.Sprintf("(%s %s %s)", exprString(n.L), opString(n.Op), exprString(n.R))
	}
	return "?"
}

func opString(op gcl.Kind) string {
	for _, p := range [...]struct {
		k gcl.Kind
		s string
	}{
		{gcl.AND, "&"}, {gcl.OR, "|"}, {gcl.IMPLIES, "=>"},
		{gcl.EQ, "=="}, {gcl.NEQ, "!="}, {gcl.LT, "<"}, {gcl.LE, "<="},
		{gcl.GT, ">"}, {gcl.GE, ">="}, {gcl.PLUS, "+"}, {gcl.MINUS, "-"},
		{gcl.STAR, "*"}, {gcl.PERCENT, "%"},
	} {
		if p.k == op {
			return p.s
		}
	}
	return strings.TrimSpace(fmt.Sprintf("%v", op))
}

// conj builds the conjunction of non-nil expressions.
func conj(exprs ...gcl.Expr) gcl.Expr {
	var out gcl.Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
			continue
		}
		out = &gcl.Binary{Op: gcl.AND, L: out, R: e}
	}
	if out == nil {
		return &gcl.BoolLit{Value: true}
	}
	return out
}

// disj builds the disjunction of non-nil expressions (false when empty).
func disj(exprs ...gcl.Expr) gcl.Expr {
	var out gcl.Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
			continue
		}
		out = &gcl.Binary{Op: gcl.OR, L: out, R: e}
	}
	if out == nil {
		return &gcl.BoolLit{Value: false}
	}
	return out
}

// neg negates an expression (the refutation entry point normalizes via
// nnf, so a plain NOT wrapper suffices here).
func neg(e gcl.Expr) gcl.Expr { return &gcl.Unary{Op: gcl.NOT, X: e} }
