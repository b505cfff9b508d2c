package flow

import (
	"fmt"
	"strings"
	"sync/atomic"

	"detcorr/internal/gcl"
)

var disabled atomic.Bool

// SetEnabled turns the slicing rung of the decision ladder on or off
// process-wide (it is on by default). Disabling discards no analysis; the
// ladder only stops consulting it, so every check runs full-width.
func SetEnabled(on bool) { disabled.Store(!on) }

// Enabled reports whether the slicing rung is active.
func Enabled() bool { return !disabled.Load() }

// Slice is a compiled cone-of-influence slice of a file: the program
// restricted to the variables that can influence the target predicates and
// the actions that write them. Soundness (argued in DESIGN.md §3i): kept
// actions' guards and cone-variable effects are functions of cone
// variables only, so the projection of every full-space computation onto
// the cone variables is a computation of the slice and vice versa —
// closure, safeness, stability, and fair-liveness verdicts about
// cone-determined predicates coincide exactly.
type Slice struct {
	File        *gcl.File // compiled sliced program (no faults)
	Targets     []string  // sorted target predicate names
	ConeVars    []string
	KeptActions []string

	FullVars, FullActions int
	// Static state-space sizes (products of domain sizes); float64 because
	// full products overflow int64 long before they stop being meaningful.
	FullStates, SlicedStates float64
}

// Reduction is the static state-space shrink factor (≥ 1).
func (s *Slice) Reduction() float64 {
	if s.SlicedStates == 0 {
		return 1
	}
	return s.FullStates / s.SlicedStates
}

// SliceFile computes and compiles the slice of f for the given target
// predicates. Every target must be a predicate declared in the file and
// the cone must be non-empty. The sliced file is an ordinary compiled
// file: its predicates (the targets and whatever they reference) evaluate
// over sliced states, and its program carries kernel bytecode like any
// other.
func SliceFile(f *gcl.File, targets ...string) (*Slice, error) {
	if f == nil || f.AST == nil {
		return nil, fmt.Errorf("flow: no AST to slice")
	}
	return Analyze(f.AST).Slice(targets...)
}

// Slice is SliceFile over an analysis already computed for the file.
func (in *Info) Slice(targets ...string) (*Slice, error) {
	cone, err := in.Cone(targets...)
	if err != nil {
		return nil, err
	}
	if len(cone.Vars) == 0 {
		return nil, fmt.Errorf("flow: cone of %v is empty", targets)
	}
	ast := sliceAST(in, cone)
	sf, err := gcl.Compile(ast)
	if err != nil {
		return nil, fmt.Errorf("flow: compiling slice %s: %w", ast.Name, err)
	}
	sl := &Slice{
		File:        sf,
		Targets:     cone.Targets,
		ConeVars:    cone.Vars,
		FullVars:    len(in.Vars),
		FullActions: len(in.Actions),
	}
	for _, ai := range cone.Kept {
		sl.KeptActions = append(sl.KeptActions, in.Actions[ai].Name)
	}
	sl.FullStates = statesProduct(in.AST.Vars, nil)
	sl.SlicedStates = statesProduct(in.AST.Vars, cone)
	return sl, nil
}

// statesProduct multiplies the domain sizes of the declared variables —
// all of them, or only those in the cone.
func statesProduct(vars []gcl.VarDecl, cone *Cone) float64 {
	product := 1.0
	idx := 0
	seen := map[string]bool{}
	for _, d := range vars {
		if seen[d.Name] {
			continue
		}
		seen[d.Name] = true
		in := cone == nil || cone.vars.has(idx)
		idx++
		if !in {
			continue
		}
		switch d.Type.Kind {
		case gcl.TypeBool:
			product *= 2
		case gcl.TypeRange:
			product *= float64(d.Type.Hi - d.Type.Lo + 1)
		case gcl.TypeEnum:
			product *= float64(len(d.Type.Names))
		}
	}
	return product
}

// sliceAST constructs the reduced file: cone variables, the needed
// predicates, and the kept actions with their assignments filtered to cone
// targets. Faults, components, and spans are metadata of the full file and
// are dropped — slices exist only to answer program checks.
func sliceAST(in *Info, cone *Cone) *gcl.FileAST {
	out := &gcl.FileAST{Name: in.AST.Name + "@" + strings.Join(cone.Targets, "+")}
	keptConsts := map[string]bool{}
	for _, d := range in.AST.Vars {
		if idx, ok := in.varIdx[d.Name]; ok && cone.vars.has(idx) {
			out.Vars = append(out.Vars, d)
			for _, name := range d.Type.Names {
				keptConsts[name] = true
			}
		}
	}
	// Enum values of dropped variables can still appear in kept
	// expressions (they are plain integer constants); rewrite those
	// references to literals so the slice compiles standalone.
	consts := map[string]int{}
	for _, d := range in.AST.Vars {
		for i, name := range d.Type.Names {
			consts[name] = i
		}
	}
	rw := &sliceRewriter{keptConsts: keptConsts, consts: consts}

	// Needed predicates: the targets plus everything kept expressions
	// reference, transitively. Predicates may only reference earlier
	// predicates, so one backward pass over the declarations closes the
	// set.
	needed := map[string]bool{}
	for _, t := range cone.Targets {
		needed[t] = true
	}
	predNames := map[string]bool{}
	for i := range in.Preds {
		predNames[in.Preds[i].Name] = true
	}
	for _, ai := range cone.Kept {
		d := in.Actions[ai].Decl
		collectPredRefs(d.Guard, predNames, needed)
		for _, a := range d.Assigns {
			if a.Expr == nil {
				continue
			}
			if idx, ok := in.varIdx[a.Var]; ok && cone.vars.has(idx) {
				collectPredRefs(a.Expr, predNames, needed)
			}
		}
	}
	for i := len(in.Preds) - 1; i >= 0; i-- {
		if needed[in.Preds[i].Name] {
			collectPredRefs(in.Preds[i].Decl.Expr, predNames, needed)
		}
	}
	for i := range in.Preds {
		d := in.Preds[i].Decl
		if !needed[d.Name] {
			continue
		}
		nd := *d
		nd.Expr = rw.rewrite(d.Expr)
		out.Preds = append(out.Preds, nd)
	}
	for _, ai := range cone.Kept {
		d := in.Actions[ai].Decl
		nd := gcl.ActionDecl{Name: d.Name, Guard: rw.rewrite(d.Guard), At: d.At}
		for _, a := range d.Assigns {
			idx, ok := in.varIdx[a.Var]
			if !ok || !cone.vars.has(idx) {
				continue
			}
			na := a
			if na.Expr != nil {
				na.Expr = rw.rewrite(na.Expr)
			}
			nd.Assigns = append(nd.Assigns, na)
		}
		out.Actions = append(out.Actions, nd)
	}
	return out
}

// collectPredRefs marks every predicate referenced by the expression.
func collectPredRefs(e gcl.Expr, predNames, needed map[string]bool) {
	switch n := e.(type) {
	case *gcl.Ref:
		if predNames[n.Name] {
			needed[n.Name] = true
		}
	case *gcl.Unary:
		collectPredRefs(n.X, predNames, needed)
	case *gcl.Binary:
		collectPredRefs(n.L, predNames, needed)
		collectPredRefs(n.R, predNames, needed)
	}
}

// sliceRewriter replaces references to enum constants whose declaring
// variable was sliced away with the equivalent integer literal. Everything
// else is shared with the original AST (expressions are immutable).
type sliceRewriter struct {
	keptConsts map[string]bool
	consts     map[string]int
}

func (rw *sliceRewriter) rewrite(e gcl.Expr) gcl.Expr {
	switch n := e.(type) {
	case *gcl.Ref:
		if v, ok := rw.consts[n.Name]; ok && !rw.keptConsts[n.Name] {
			return &gcl.IntLit{Value: v, At: n.At}
		}
		return n
	case *gcl.Unary:
		x := rw.rewrite(n.X)
		if x == n.X {
			return n
		}
		return &gcl.Unary{Op: n.Op, X: x, At: n.At}
	case *gcl.Binary:
		l, r := rw.rewrite(n.L), rw.rewrite(n.R)
		if l == n.L && r == n.R {
			return n
		}
		return &gcl.Binary{Op: n.Op, L: l, R: r, At: n.At}
	default:
		return e
	}
}
