// Package prove implements dcprove, an exploration-free proof engine for
// guarded-command programs. Where spec.CheckClosed and the core
// detector/corrector checks enumerate the state space (exponential in the
// number of variables), dcprove discharges the paper's per-action
// Hoare-style obligations {S ∧ guard} assignment {S} directly over the
// program text by abstract interpretation over the finite-domain lattice
// in internal/absdom, with a DPLL-style refutation engine (constraint
// propagation, unit resolution, bounded case splits) and a bounded exact
// enumeration fallback that yields concrete per-action counterexamples.
//
// Each prover carries a DC1xx diagnostic code, extending the dclint DC0xx
// series:
//
//	DC100  invariant closure: {S ∧ g} a {S} for every program action a
//	DC101  fault-span closure: the (declared or inferred) span is closed
//	       under program and fault actions
//	DC102  detector safeness: U ∧ Z ⇒ X, plus per-action stability
//	DC103  corrector convergence: from U the program converges to the
//	       goal, certified by a lexicographic ranking function (supplied
//	       or auto-synthesized)
//
// Verdicts are three-valued. Proved and Disproved are definite: a proof
// covers every state without enumerating them, and a disproof carries a
// concrete witness state. Unknown means the abstraction was inconclusive
// and the exact fallback exceeded its budget — callers fall back to
// graph-based checking, so the engine never changes a verdict, it only
// skips work (see the decision ladder in internal/verify).
package prove

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"detcorr/internal/gcl"
)

// Diagnostic codes of the four provers, extending lint's DC0xx series.
const (
	CodeClosure     = "DC100"
	CodeSpanClosure = "DC101"
	CodeSafeness    = "DC102"
	CodeConvergence = "DC103"
)

// Verdict is the three-valued outcome of a proof attempt.
type Verdict int

// Proof outcomes. Unknown means "fall back to exploration", never "fails".
const (
	Proved Verdict = iota + 1
	Disproved
	Unknown
)

// String renders the verdict in lowercase.
func (v Verdict) String() string {
	switch v {
	case Proved:
		return "proved"
	case Disproved:
		return "disproved"
	case Unknown:
		return "unknown"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// MarshalJSON encodes the verdict as its string form.
func (v Verdict) MarshalJSON() ([]byte, error) { return json.Marshal(v.String()) }

// UnmarshalJSON decodes the string form written by MarshalJSON.
func (v *Verdict) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "proved":
		*v = Proved
	case "disproved":
		*v = Disproved
	case "unknown":
		*v = Unknown
	default:
		return fmt.Errorf("prove: unknown verdict %q", s)
	}
	return nil
}

// ActionResult is the outcome of one per-action obligation.
type ActionResult struct {
	Action         string  `json:"action"`
	Verdict        Verdict `json:"verdict"`
	Counterexample string  `json:"counterexample,omitempty"`
	Note           string  `json:"note,omitempty"`
}

// Report is the outcome of one prover run: the aggregate verdict plus the
// per-action detail, and for DC101/DC103 the inferred span or the ranking
// function that certifies convergence.
type Report struct {
	Code    string         `json:"code"`
	Subject string         `json:"subject"`
	Verdict Verdict        `json:"verdict"`
	Actions []ActionResult `json:"actions,omitempty"`
	Span    []string       `json:"span,omitempty"`
	Rank    []string       `json:"rank,omitempty"`
	Notes   []string       `json:"notes,omitempty"`
}

// String renders the report for terminal output.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s: %s", r.Code, r.Subject, strings.ToUpper(r.Verdict.String()))
	for _, a := range r.Actions {
		if a.Verdict == Proved {
			continue
		}
		fmt.Fprintf(&b, "\n  action %s: %s", a.Action, a.Verdict)
		if a.Counterexample != "" {
			fmt.Fprintf(&b, " (e.g. when %s)", a.Counterexample)
		}
		if a.Note != "" {
			fmt.Fprintf(&b, " — %s", a.Note)
		}
	}
	for _, s := range r.Span {
		fmt.Fprintf(&b, "\n  span %s", s)
	}
	if len(r.Rank) > 0 {
		fmt.Fprintf(&b, "\n  ranking function <%s>", strings.Join(r.Rank, ", "))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\n  note: %s", n)
	}
	return b.String()
}

// VarDom is a variable with its source-level value domain: bool 0..1,
// range lo..hi, enum 0..len(enum)-1.
type VarDom struct {
	Name string
	Bool bool
	Lo   int
	Hi   int
	Enum []string // enum value names, nil otherwise
}

func (v *VarDom) size() int { return v.Hi - v.Lo + 1 }

// System is a guarded-command file prepared for proving: the resolved
// variable domains and the predicate bodies with predicate and enum
// references fully inlined, so every expression the engine manipulates
// refers to variables and literals only.
type System struct {
	vars    map[string]*VarDom
	order   []string       // declaration order of vars
	index   map[string]int // position of each var in order
	preds   map[string]gcl.Expr
	actions []gcl.ActionDecl
	faults  []gcl.ActionDecl
	fresh   int // counter for primed '?' variables
	inl     *inliner

	noEnumMemo bool // test seam: every assertByEnum enumerates afresh
}

// NewSystem resolves a parsed file. Files that fail to compile fail here
// too (unresolved names, non-boolean predicates, double assignment).
func NewSystem(ast *gcl.FileAST) (*System, error) {
	sys := &System{
		vars:  map[string]*VarDom{},
		index: map[string]int{},
		preds: map[string]gcl.Expr{},
	}
	consts := map[string]int{}
	for _, d := range ast.Vars {
		if _, dup := sys.vars[d.Name]; dup {
			return nil, fmt.Errorf("prove: duplicate variable %q", d.Name)
		}
		v := &VarDom{Name: d.Name}
		switch d.Type.Kind {
		case gcl.TypeBool:
			v.Bool, v.Lo, v.Hi = true, 0, 1
		case gcl.TypeRange:
			v.Lo, v.Hi = d.Type.Lo, d.Type.Hi
		case gcl.TypeEnum:
			v.Lo, v.Hi, v.Enum = 0, len(d.Type.Names)-1, d.Type.Names
			for idx, name := range d.Type.Names {
				if old, dup := consts[name]; dup && old != idx {
					return nil, fmt.Errorf("prove: enum value %q redeclared", name)
				}
				consts[name] = idx
			}
		default:
			return nil, fmt.Errorf("prove: variable %q has unknown type", d.Name)
		}
		sys.vars[d.Name] = v
		sys.index[d.Name] = len(sys.order)
		sys.order = append(sys.order, d.Name)
	}
	inliner := &inliner{vars: sys.vars, consts: consts, preds: sys.preds}
	sys.inl = inliner
	for _, d := range ast.Preds {
		body, err := inliner.inline(d.Expr)
		if err != nil {
			return nil, fmt.Errorf("prove: predicate %q: %w", d.Name, err)
		}
		sys.preds[d.Name] = body
	}
	inlineActs := func(decls []gcl.ActionDecl) ([]gcl.ActionDecl, error) {
		out := make([]gcl.ActionDecl, 0, len(decls))
		for _, d := range decls {
			g, err := inliner.inline(d.Guard)
			if err != nil {
				return nil, fmt.Errorf("prove: guard of %q: %w", d.Name, err)
			}
			a := gcl.ActionDecl{Name: d.Name, Guard: g, At: d.At}
			for _, as := range d.Assigns {
				if _, ok := sys.vars[as.Var]; !ok {
					return nil, fmt.Errorf("prove: %q assigns undeclared variable %q", d.Name, as.Var)
				}
				na := gcl.Assign{Var: as.Var, At: as.At}
				if as.Expr != nil {
					if na.Expr, err = inliner.inline(as.Expr); err != nil {
						return nil, fmt.Errorf("prove: assignment in %q: %w", d.Name, err)
					}
				}
				a.Assigns = append(a.Assigns, na)
			}
			out = append(out, a)
		}
		return out, nil
	}
	var err error
	if sys.actions, err = inlineActs(ast.Actions); err != nil {
		return nil, err
	}
	if sys.faults, err = inlineActs(ast.Faults); err != nil {
		return nil, err
	}
	return sys, nil
}

// Inline rewrites an externally supplied expression (e.g. a ranking
// function component parsed from the command line) into the system's
// inlined form: predicate references replaced by their bodies, enum value
// names by integer literals.
func (sys *System) Inline(e gcl.Expr) (gcl.Expr, error) { return sys.inl.inline(e) }

// Pred returns the inlined body of a declared predicate.
func (sys *System) Pred(name string) (gcl.Expr, bool) {
	e, ok := sys.preds[name]
	return e, ok
}

// PredNames returns the declared predicate names, sorted.
func (sys *System) PredNames() []string {
	names := make([]string, 0, len(sys.preds))
	for name := range sys.preds {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Actions returns the inlined program actions.
func (sys *System) Actions() []gcl.ActionDecl { return sys.actions }

// Faults returns the inlined fault actions.
func (sys *System) Faults() []gcl.ActionDecl { return sys.faults }

// envString renders a counterexample assignment deterministically in
// declaration order, using enum value names and true/false for booleans;
// primed '?' variables (name' suffix) sort after the originals.
func (sys *System) envString(env map[string]int) string {
	names := make([]string, 0, len(env))
	inOrder := map[string]int{}
	for i, n := range sys.order {
		inOrder[n] = i
	}
	for name := range env {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		oi, iok := inOrder[strings.TrimRight(names[i], "'")]
		oj, jok := inOrder[strings.TrimRight(names[j], "'")]
		if iok && jok && oi != oj {
			return oi < oj
		}
		return names[i] < names[j]
	})
	parts := make([]string, 0, len(names))
	for _, name := range names {
		v := sys.vars[name]
		val := env[name]
		switch {
		case v == nil:
			parts = append(parts, fmt.Sprintf("%s=%d", name, val))
		case v.Bool:
			parts = append(parts, fmt.Sprintf("%s=%v", name, val != 0))
		case v.Enum != nil && val >= 0 && val < len(v.Enum):
			parts = append(parts, fmt.Sprintf("%s=%s", name, v.Enum[val]))
		default:
			parts = append(parts, fmt.Sprintf("%s=%d", name, val))
		}
	}
	return strings.Join(parts, ", ")
}

// inliner rewrites expressions so that Ref nodes are variables only:
// predicate references are replaced by their (already inlined) bodies and
// enum value names by integer literals.
type inliner struct {
	vars   map[string]*VarDom
	consts map[string]int
	preds  map[string]gcl.Expr
}

func (in *inliner) inline(e gcl.Expr) (gcl.Expr, error) {
	switch n := e.(type) {
	case *gcl.BoolLit, *gcl.IntLit:
		return e, nil
	case *gcl.Ref:
		if _, ok := in.vars[n.Name]; ok {
			return n, nil
		}
		if c, ok := in.consts[n.Name]; ok {
			return &gcl.IntLit{Value: c, At: n.At}, nil
		}
		if body, ok := in.preds[n.Name]; ok {
			return body, nil // already fully inlined (predicates form a DAG)
		}
		return nil, fmt.Errorf("undeclared identifier %q", n.Name)
	case *gcl.Unary:
		x, err := in.inline(n.X)
		if err != nil {
			return nil, err
		}
		if x == n.X {
			return n, nil
		}
		return &gcl.Unary{Op: n.Op, X: x, At: n.At}, nil
	case *gcl.Binary:
		l, err := in.inline(n.L)
		if err != nil {
			return nil, err
		}
		r, err := in.inline(n.R)
		if err != nil {
			return nil, err
		}
		if l == n.L && r == n.R {
			return n, nil
		}
		return &gcl.Binary{Op: n.Op, L: l, R: r, At: n.At}, nil
	}
	return nil, fmt.Errorf("unknown expression node %T", e)
}
