// Package flow implements whole-program dependence analysis over parsed
// GCL files: exact read/write sets for every action (guard reads,
// right-hand-side reads, assignment targets), transitive read sets for
// every predicate, a variable dependence graph, and the backward
// cone-of-influence closure that drives sound state-space slicing.
//
// The paper's composition theorems hinge on non-interference — a detector
// must monitor without perturbing, a corrector must confine its writes to
// the component it repairs — and the read/write sets computed here are
// what dclint's DC200-series interference diagnostics check those claims
// against. The cone computation is the other consumer: a verdict about a
// predicate P can only depend on the variables P reads and, transitively,
// on whatever feeds the actions that write them, so everything outside the
// cone can be sliced away before the exploration kernel ever runs (see
// Slice, and the slice rung of internal/verify).
package flow

import (
	"fmt"
	"sort"

	"detcorr/internal/gcl"
)

// VarRead is one direct variable reference with its source position.
type VarRead struct {
	Name string
	At   gcl.Pos
}

// AssignFlow is the flow view of one assignment target: the variable
// written and the variables its right-hand side reads ('?' reads nothing).
type AssignFlow struct {
	Var   string
	Reads []string
	Wild  bool
	At    gcl.Pos

	varIdx int
	reads  bitset
}

// ActionFlow is the flow view of one action or fault: the exact variable
// sets its guard and right-hand sides read and its assignments write.
type ActionFlow struct {
	Name       string
	Fault      bool
	Component  int // index into Info.Components; -1 for the base program
	GuardReads []string
	Reads      []string // GuardReads ∪ every right-hand side's reads
	Writes     []string
	Assigns    []AssignFlow
	Decl       *gcl.ActionDecl

	guardReads bitset
	reads      bitset
	writes     bitset
}

// PredFlow is the flow view of one declared predicate. Reads is
// transitive: references to earlier predicates are expanded into their
// variable reads. DirectReads keeps the syntactic variable references with
// positions for diagnostics.
type PredFlow struct {
	Name        string
	Reads       []string
	DirectReads []VarRead
	Decl        *gcl.PredDecl

	reads bitset
}

// Component is a declared detector/corrector component together with the
// program actions that belong to it (actions named "<component>.<rest>").
type Component struct {
	Kind    gcl.ComponentKind
	Name    string
	Scope   []string // declared write scope; nil when undeclared
	Actions []int    // indices into Info.Actions
	Decl    *gcl.ComponentDecl
}

// DepEdge records one dependence "From flows to To through Action": the
// action writes To and reads From in its guard or in the right-hand side
// assigned to To.
type DepEdge struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Action string `json:"action"`
}

// Info is the dependence analysis of one parsed file.
type Info struct {
	AST        *gcl.FileAST
	Vars       []string // declaration order
	Actions    []ActionFlow
	Faults     []ActionFlow
	Preds      []PredFlow
	Components []Component
	Span       []string // declared fault span (union); nil when undeclared

	varIdx  map[string]int
	predIdx map[string]int
	words   int
}

// Analyze computes the dependence analysis of a parsed file. Identifiers
// that do not resolve (undeclared variables, unknown names) contribute no
// reads or writes; the compiler and dclint report those separately, so
// Analyze itself never fails.
func Analyze(ast *gcl.FileAST) *Info {
	in := &Info{
		AST:     ast,
		varIdx:  make(map[string]int, len(ast.Vars)),
		predIdx: make(map[string]int, len(ast.Preds)),
	}
	consts := map[string]bool{}
	for _, d := range ast.Vars {
		if _, dup := in.varIdx[d.Name]; dup {
			continue
		}
		in.varIdx[d.Name] = len(in.Vars)
		in.Vars = append(in.Vars, d.Name)
		for _, name := range d.Type.Names {
			consts[name] = true
		}
	}
	in.words = (len(in.Vars) + 63) / 64

	// Predicates first: actions may reference them in guards, and their
	// transitive read sets are the cone seeds.
	for i := range ast.Preds {
		d := &ast.Preds[i]
		pf := PredFlow{Name: d.Name, Decl: d, reads: newBitset(in.words)}
		in.walkExpr(d.Expr, consts, pf.reads, &pf.DirectReads)
		pf.Reads = in.names(pf.reads)
		if _, dup := in.predIdx[d.Name]; !dup {
			in.predIdx[d.Name] = len(in.Preds)
		}
		in.Preds = append(in.Preds, pf)
	}

	in.Actions = in.analyzeActions(ast.Actions, false, consts)
	in.Faults = in.analyzeActions(ast.Faults, true, consts)

	// Components and their member actions (membership by name prefix).
	for i := range ast.Components {
		d := &ast.Components[i]
		comp := Component{Kind: d.Kind, Name: d.Name, Decl: d}
		for _, sv := range d.Scope {
			comp.Scope = append(comp.Scope, sv.Name)
		}
		if comp.Scope == nil && len(d.Scope) > 0 {
			comp.Scope = []string{}
		}
		prefix := d.Name + "."
		for ai := range in.Actions {
			if hasPrefix(in.Actions[ai].Name, prefix) {
				in.Actions[ai].Component = len(in.Components)
				comp.Actions = append(comp.Actions, ai)
			}
		}
		in.Components = append(in.Components, comp)
	}

	// Span declarations union into one set, in declaration order.
	if len(ast.Spans) > 0 {
		span := newBitset(in.words)
		for _, sd := range ast.Spans {
			for _, sv := range sd.Vars {
				if idx, ok := in.varIdx[sv.Name]; ok {
					span.set(idx)
				}
			}
		}
		in.Span = in.names(span)
	}
	return in
}

func (in *Info) analyzeActions(decls []gcl.ActionDecl, faults bool, consts map[string]bool) []ActionFlow {
	out := make([]ActionFlow, 0, len(decls))
	for i := range decls {
		d := &decls[i]
		af := ActionFlow{
			Name:       d.Name,
			Fault:      faults,
			Component:  -1,
			Decl:       d,
			guardReads: newBitset(in.words),
			reads:      newBitset(in.words),
			writes:     newBitset(in.words),
		}
		in.walkExpr(d.Guard, consts, af.guardReads, nil)
		af.reads.or(af.guardReads)
		for _, a := range d.Assigns {
			as := AssignFlow{Var: a.Var, Wild: a.Expr == nil, At: a.At, varIdx: -1, reads: newBitset(in.words)}
			if idx, ok := in.varIdx[a.Var]; ok {
				as.varIdx = idx
				af.writes.set(idx)
			}
			if a.Expr != nil {
				in.walkExpr(a.Expr, consts, as.reads, nil)
				af.reads.or(as.reads)
			}
			as.Reads = in.names(as.reads)
			af.Assigns = append(af.Assigns, as)
		}
		af.GuardReads = in.names(af.guardReads)
		af.Reads = in.names(af.reads)
		af.Writes = in.names(af.writes)
		out = append(out, af)
	}
	return out
}

// walkExpr accumulates the variable reads of an expression into set.
// References to earlier predicates expand to that predicate's transitive
// reads; enum constants read nothing. When direct is non-nil, syntactic
// variable references are also recorded with their positions.
func (in *Info) walkExpr(e gcl.Expr, consts map[string]bool, set bitset, direct *[]VarRead) {
	switch n := e.(type) {
	case *gcl.Ref:
		if idx, ok := in.varIdx[n.Name]; ok {
			set.set(idx)
			if direct != nil {
				*direct = append(*direct, VarRead{Name: n.Name, At: n.At})
			}
			return
		}
		if consts[n.Name] {
			return
		}
		if pi, ok := in.predIdx[n.Name]; ok {
			set.or(in.Preds[pi].reads)
		}
	case *gcl.Unary:
		in.walkExpr(n.X, consts, set, direct)
	case *gcl.Binary:
		in.walkExpr(n.L, consts, set, direct)
		in.walkExpr(n.R, consts, set, direct)
	}
}

// names renders a bitset as variable names in declaration order.
func (in *Info) names(b bitset) []string {
	out := []string{}
	for i, name := range in.Vars {
		if b.has(i) {
			out = append(out, name)
		}
	}
	return out
}

// Pred returns the flow view of a declared predicate.
func (in *Info) Pred(name string) (*PredFlow, bool) {
	i, ok := in.predIdx[name]
	if !ok {
		return nil, false
	}
	return &in.Preds[i], true
}

// VarIndex returns a variable's declaration index.
func (in *Info) VarIndex(name string) (int, bool) {
	i, ok := in.varIdx[name]
	return i, ok
}

// DepEdges enumerates the variable dependence graph: one edge per
// (reader, writer, action) triple, ordered by action then by variable
// declaration order.
func (in *Info) DepEdges() []DepEdge {
	var out []DepEdge
	for ai := range in.Actions {
		a := &in.Actions[ai]
		for _, as := range a.Assigns {
			if as.varIdx < 0 {
				continue
			}
			seen := newBitset(in.words)
			seen.or(a.guardReads)
			seen.or(as.reads)
			for i, from := range in.Vars {
				if seen.has(i) {
					out = append(out, DepEdge{From: from, To: as.Var, Action: a.Name})
				}
			}
		}
	}
	return out
}

// Cone is the backward cone of influence of a set of target predicates:
// the variables that can affect the targets' values along any execution,
// and the actions that write into that set.
type Cone struct {
	Targets []string
	Vars    []string // cone variables, declaration order
	Kept    []int    // indices of kept program actions

	vars bitset
}

// Contains reports whether the cone includes the variable.
func (c *Cone) Contains(in *Info, name string) bool {
	i, ok := in.varIdx[name]
	return ok && c.vars.has(i)
}

// Cone computes the backward closure of the target predicates: seed with
// every variable a target reads, then repeatedly add the guard reads and
// relevant right-hand-side reads of every action that writes a cone
// variable, to fixpoint. Faults are not part of the program's own
// transition relation and are excluded; fault-composed checks run on
// composed programs the slicer never touches.
func (in *Info) Cone(targets ...string) (*Cone, error) {
	c := &Cone{Targets: append([]string(nil), targets...), vars: newBitset(in.words)}
	sort.Strings(c.Targets)
	for _, t := range targets {
		pf, ok := in.Pred(t)
		if !ok {
			return nil, fmt.Errorf("flow: no predicate %q", t)
		}
		c.vars.or(pf.reads)
	}
	for propagate(in.Actions, c.vars) {
	}
	for ai := range in.Actions {
		if in.Actions[ai].writes.intersects(c.vars) {
			c.Kept = append(c.Kept, ai)
		}
	}
	c.Vars = in.names(c.vars)
	return c, nil
}

// propagate performs one round of the cone fixpoint: for every action
// writing a cone variable, add its guard reads and the reads of each
// right-hand side assigned to a cone variable. Reports whether the cone
// grew. This is the analysis hot path — quadratic rounds over potentially
// thousands of composed actions — and stays allocation-free.
//
//dc:zeroalloc
func propagate(actions []ActionFlow, cone bitset) bool {
	changed := false
	for ai := range actions {
		a := &actions[ai]
		if !a.writes.intersects(cone) {
			continue
		}
		if cone.orChanged(a.guardReads) {
			changed = true
		}
		for i := range a.Assigns {
			as := &a.Assigns[i]
			if as.varIdx >= 0 && cone.has(as.varIdx) && cone.orChanged(as.reads) {
				changed = true
			}
		}
	}
	return changed
}

func hasPrefix(s, prefix string) bool {
	return len(s) > len(prefix) && s[:len(prefix)] == prefix
}
