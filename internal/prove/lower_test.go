package prove

import (
	"context"
	"math/rand"
	"testing"

	"detcorr/internal/absdom"
	"detcorr/internal/gcl"
)

// evalExpr evaluates an inlined expression under a total assignment
// (booleans are 0/1, enum values their index, range values source-level)
// by walking the tree over a map. It is the evaluator the lowered closures
// replaced, kept as their oracle.
func evalExpr(env map[string]int, e gcl.Expr) int {
	switch n := e.(type) {
	case *gcl.BoolLit:
		if n.Value {
			return 1
		}
		return 0
	case *gcl.IntLit:
		return n.Value
	case *gcl.Ref:
		return env[n.Name]
	case *gcl.Unary:
		x := evalExpr(env, n.X)
		if n.Op == gcl.NOT {
			return 1 - x
		}
		return -x
	case *gcl.Binary:
		return absdom.EvalBinary(n.Op, evalExpr(env, n.L), evalExpr(env, n.R))
	}
	return 0
}

var allOps = []gcl.Kind{
	gcl.AND, gcl.OR, gcl.IMPLIES, gcl.EQ, gcl.NEQ, gcl.LT, gcl.LE, gcl.GT, gcl.GE,
	gcl.PLUS, gcl.MINUS, gcl.STAR, gcl.PERCENT,
}

// randExpr builds a random expression over names: every operator, both
// unary forms, and literals well outside int32, which the prover's
// arithmetic handles as plain ints. Operands are not type-correct GCL on
// purpose: the prover builds comparisons the type checker would reject.
func randExpr(rng *rand.Rand, names []string, depth int) gcl.Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		switch rng.Intn(5) {
		case 0:
			return &gcl.IntLit{Value: rng.Intn(9) - 4}
		case 1:
			return &gcl.IntLit{Value: (rng.Intn(3) - 1) << 40}
		case 2:
			return &gcl.BoolLit{Value: rng.Intn(2) == 0}
		default:
			return &gcl.Ref{Name: names[rng.Intn(len(names))]}
		}
	}
	if rng.Intn(5) == 0 {
		op := gcl.NOT
		if rng.Intn(2) == 0 {
			op = gcl.MINUS
		}
		return &gcl.Unary{Op: op, X: randExpr(rng, names, depth-1)}
	}
	return &gcl.Binary{Op: allOps[rng.Intn(len(allOps))],
		L: randExpr(rng, names, depth-1), R: randExpr(rng, names, depth-1)}
}

// TestLoweredMatchesEvalExpr evaluates random expressions under random
// assignments both ways: the lowered closure over the query's slice, and
// the tree walk over a map. The query declares a, b and c; x'1 is a fresh
// variable, and u is a name the query never declared, which the lowering
// appends and which reads 0 unless assigned, as in the map.
func TestLoweredMatchesEvalExpr(t *testing.T) {
	sys := mustSystem(t, "program p\nvar a : 0..3\nvar b : bool\nvar c : 0..5\n")
	names := []string{"a", "b", "c", "x'1", "u"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		r := newRefuter(context.Background(), sys, map[string]*VarDom{"x'1": {Name: "x'1", Lo: 0, Hi: 3}})
		e := randExpr(rng, names, 1+rng.Intn(5))
		l := r.lower(e)
		if again := r.lower(e); again != l {
			t.Fatalf("%s lowered twice in one query", exprString(e))
		}
		env := map[string]int{}
		for _, n := range names[:4] {
			env[n] = rng.Intn(11) - 5
		}
		if rng.Intn(2) == 0 {
			env["u"] = rng.Intn(11) - 5
		}
		for p, n := range r.names {
			r.env[p] = env[n]
		}
		if got, want := l.eval(r.env), evalExpr(env, e); got != want {
			t.Fatalf("%s under %v: lowered %d, evalExpr %d", exprString(e), env, got, want)
		}
		want := sortedVars(e)
		if len(l.vars) != len(want) {
			t.Fatalf("%s: lowered variables %v, want %v", exprString(e), l.vars, want)
		}
		for p, v := range l.vars {
			if r.names[v] != want[p] {
				t.Fatalf("%s: lowered variable %d is %s, want %s", exprString(e), p, r.names[v], want[p])
			}
		}
	}
}
