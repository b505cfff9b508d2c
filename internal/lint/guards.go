package lint

import (
	"fmt"

	"detcorr/internal/gcl"
)

// deadGuard (DC001) reports actions and faults whose guard is
// unsatisfiable over the declared domains: the command can never execute,
// which almost always means a typo in the guard or a domain declared too
// small. Constant folding and interval analysis decide the easy cases
// (x > 5 over 0..3); correlated guards (b & !b) are decided by exact
// enumeration over the guard's variables.
var deadGuard = &Analyzer{
	Name: "deadguard",
	Code: CodeDeadGuard,
	Doc:  "detect actions whose guard can never be true",
	Run: func(p *Pass) {
		check := func(kind string, d *gcl.ActionDecl) {
			if !p.exprOK[d.Guard] {
				return
			}
			t, definite := p.decideTruth(d.Guard)
			if !definite {
				p.reportBudget(d.At, fmt.Sprintf("the guard of %s %q", kind, d.Name), p.refVars(d.Guard))
				return
			}
			if !t.CanT {
				p.Reportf(d.At, Warning, CodeDeadGuard,
					"guard of %s %q is unsatisfiable; it can never execute", kind, d.Name)
			}
		}
		for i := range p.AST.Actions {
			check("action", &p.AST.Actions[i])
		}
		for i := range p.AST.Faults {
			check("fault", &p.AST.Faults[i])
		}
	},
}

// domainOverflow (DC002) reports assignments whose right-hand side can
// evaluate outside the target variable's declared domain in a state where
// the guard holds. The compiler rejects such programs too, sweeping each
// action over the domains of the variables its guard and right-hand sides
// read and stopping at the first violation; the lint pass decides each
// assignment from its RHS interval, refined by enumeration over just the
// guard and RHS variables (within evalBudget), and reports every finding
// with a concrete witness assignment.
var domainOverflow = &Analyzer{
	Name: "overflow",
	Code: CodeOverflow,
	Doc:  "detect assignments whose value can leave the target variable's domain",
	Run: func(p *Pass) {
		check := func(kind string, d *gcl.ActionDecl) {
			if !p.exprOK[d.Guard] {
				return
			}
			for i := range d.Assigns {
				a := &d.Assigns[i]
				if a.Expr == nil || !p.exprOK[a.Expr] {
					continue
				}
				v := p.vars[a.Var]
				if v == nil || v.typ != typInt {
					continue
				}
				dom := interval{Lo: v.lo, Hi: v.hi}
				r := p.absEval(a.Expr)
				if r.IV.Within(dom) {
					continue
				}
				if r.IV.Hi < dom.Lo || r.IV.Lo > dom.Hi {
					p.Reportf(a.At, Error, CodeOverflow,
						"%s %q assigns %q values in %d..%d, entirely outside its domain %d..%d",
						kind, d.Name, a.Var, r.IV.Lo, r.IV.Hi, dom.Lo, dom.Hi)
					continue
				}
				vars := unionVars(p.refVars(d.Guard), p.refVars(a.Expr))
				witness, ok := p.findEnv(vars, func(env map[string]int) bool {
					if p.eval(env, d.Guard) == 0 {
						return false
					}
					val := p.eval(env, a.Expr)
					return val < dom.Lo || val > dom.Hi
				})
				if !ok {
					p.Reportf(a.At, Warning, CodeOverflow,
						"%s %q may assign %q values in %d..%d, outside its domain %d..%d (too many states to verify exactly)",
						kind, d.Name, a.Var, r.IV.Lo, r.IV.Hi, dom.Lo, dom.Hi)
					continue
				}
				if witness != nil {
					p.Reportf(a.At, Error, CodeOverflow,
						"%s %q assigns %d to %q, outside its domain %d..%d (e.g. when %s)",
						kind, d.Name, p.eval(witness, a.Expr), a.Var, dom.Lo, dom.Hi,
						p.envString(witness, vars))
				}
			}
		}
		for i := range p.AST.Actions {
			check("action", &p.AST.Actions[i])
		}
		for i := range p.AST.Faults {
			check("fault", &p.AST.Faults[i])
		}
	},
}
