package gcl

import (
	"fmt"
	"math"

	"detcorr/internal/fault"
	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// File is a compiled guarded-command source: the schema, the program, the
// declared fault class, and the named predicates. AST retains the parsed
// source so exploration-free analyses (internal/prove) can re-derive the
// program text from a compiled file.
type File struct {
	Name    string
	Schema  *state.Schema
	Program *guarded.Program
	Faults  fault.Class
	Preds   map[string]state.Predicate
	AST     *FileAST
	// Src is the source text the file was compiled from, when the caller
	// came through ParseAndCompile (or set it after Compile). The revision
	// pipeline keys verdict migration on it.
	Src string
}

// Pred returns a declared predicate by name.
func (f *File) Pred(name string) (state.Predicate, bool) {
	p, ok := f.Preds[name]
	return p, ok
}

type valueType int

const (
	boolType valueType = iota + 1
	intType
)

func (t valueType) String() string {
	if t == boolType {
		return "bool"
	}
	return "int"
}

// compiled expression: evaluation closure plus its type. Booleans evaluate
// to 0/1. ops is the same expression lowered to kernel bytecode
// (guarded.Op); nil means the expression cannot be lowered (e.g. a literal
// outside int32 range) and only the closure form is available. The two forms
// must agree exactly — the difftest suite checks kernel-built graphs against
// closure-built ones.
type cexpr struct {
	typ  valueType
	eval func(state.State) int
	ops  []guarded.Op
}

// opsConst lowers an integer constant, refusing values outside int32.
func opsConst(v int) []guarded.Op {
	if v < math.MinInt32 || v > math.MaxInt32 {
		return nil
	}
	return []guarded.Op{{Code: guarded.OpConst, A: int32(v)}}
}

// opsUnary appends a unary opcode to x's bytecode (nil-propagating).
func opsUnary(code guarded.OpCode, x []guarded.Op) []guarded.Op {
	if x == nil {
		return nil
	}
	ops := make([]guarded.Op, 0, len(x)+1)
	ops = append(ops, x...)
	return append(ops, guarded.Op{Code: code})
}

// opsShortCircuit lowers a connective with a forward jump: l, the opcode
// prefix (OpNot for =>), the jump over r, then r (nil-propagating).
func opsShortCircuit(prefix []guarded.Op, jump guarded.OpCode, l, r []guarded.Op) []guarded.Op {
	if l == nil || r == nil {
		return nil
	}
	ops := make([]guarded.Op, 0, len(l)+len(prefix)+1+len(r))
	ops = append(ops, l...)
	ops = append(ops, prefix...)
	ops = append(ops, guarded.Op{Code: jump, A: int32(len(r))})
	return append(ops, r...)
}

// opsBinary concatenates both operands' bytecode and appends the opcode
// (nil-propagating).
func opsBinary(code guarded.OpCode, l, r []guarded.Op) []guarded.Op {
	if l == nil || r == nil {
		return nil
	}
	ops := make([]guarded.Op, 0, len(l)+len(r)+1)
	ops = append(ops, l...)
	ops = append(ops, r...)
	return append(ops, guarded.Op{Code: code})
}

// notOp is the prefix that lowers l => r as !l | r.
var notOp = []guarded.Op{{Code: guarded.OpNot}}

type compiler struct {
	schema *state.Schema
	varIdx map[string]int
	varOff map[string]int // range variables: domain offset (lo)
	varTyp map[string]valueType
	consts map[string]int   // enum value names
	preds  map[string]cexpr // previously compiled predicates, referenceable by name
}

// Compile type-checks a parsed file and produces the program, fault class
// and predicates. Every action and fault is bounds-checked, so later
// exploration cannot fail on an out-of-domain write. The check sweeps each
// one over the domains of just the variables its guard and right-hand sides
// read, so it costs the product of those domains per action, not the size
// of the state space.
func Compile(ast *FileAST) (*File, error) {
	return compile(ast, (*compiler).validateBounds)
}

// compile is Compile with the bounds check passed in, so that tests can run
// a reference sweep behind the same front end.
func compile(ast *FileAST, checkBounds func(*compiler, *FileAST, []ActionDecl) error) (*File, error) {
	c := &compiler{
		varIdx: map[string]int{},
		varOff: map[string]int{},
		varTyp: map[string]valueType{},
		consts: map[string]int{},
		preds:  map[string]cexpr{},
	}
	vars := make([]state.Var, 0, len(ast.Vars))
	for i, d := range ast.Vars {
		if _, dup := c.varIdx[d.Name]; dup {
			return nil, errAt(d.At.Line, d.At.Col, "duplicate variable %q", d.Name)
		}
		var v state.Var
		switch d.Type.Kind {
		case TypeBool:
			v = state.BoolVar(d.Name)
			c.varTyp[d.Name] = boolType
		case TypeRange:
			v = state.Var{Name: d.Name, Domain: state.Range(d.Name, d.Type.Hi-d.Type.Lo+1)}
			c.varOff[d.Name] = d.Type.Lo
			c.varTyp[d.Name] = intType
		case TypeEnum:
			v = state.EnumVar(d.Name, d.Type.Names...)
			c.varTyp[d.Name] = intType
			for idx, name := range d.Type.Names {
				if old, dup := c.consts[name]; dup && old != idx {
					return nil, errAt(d.At.Line, d.At.Col, "enum value %q redeclared with a different index", name)
				}
				c.consts[name] = idx
			}
		default:
			return nil, errAt(d.At.Line, d.At.Col, "variable %q has unknown type", d.Name)
		}
		c.varIdx[d.Name] = i
		vars = append(vars, v)
	}
	for name := range c.consts {
		if _, clash := c.varIdx[name]; clash {
			return nil, fmt.Errorf("gcl: name %q is both a variable and an enum value", name)
		}
	}
	// Component and span declarations are static-analysis metadata (no
	// runtime semantics), but their names must still resolve so that
	// dcflow and dclint never see dangling declarations.
	seenComp := map[string]bool{}
	for _, d := range ast.Components {
		if seenComp[d.Name] {
			return nil, errAt(d.At.Line, d.At.Col, "duplicate component %q", d.Name)
		}
		seenComp[d.Name] = true
		for _, sv := range d.Scope {
			if _, ok := c.varIdx[sv.Name]; !ok {
				return nil, errAt(sv.At.Line, sv.At.Col, "component %q scope names undeclared variable %q", d.Name, sv.Name)
			}
		}
	}
	for _, sd := range ast.Spans {
		for _, sv := range sd.Vars {
			if _, ok := c.varIdx[sv.Name]; !ok {
				return nil, errAt(sv.At.Line, sv.At.Col, "span names undeclared variable %q", sv.Name)
			}
		}
	}
	schema, err := state.NewSchema(vars...)
	if err != nil {
		return nil, fmt.Errorf("gcl: %w", err)
	}
	c.schema = schema

	f := &File{Name: ast.Name, Schema: schema, Preds: map[string]state.Predicate{}, AST: ast}
	for _, d := range ast.Preds {
		if _, dup := c.preds[d.Name]; dup {
			return nil, errAt(d.At.Line, d.At.Col, "duplicate predicate %q", d.Name)
		}
		if _, clash := c.varIdx[d.Name]; clash {
			return nil, errAt(d.At.Line, d.At.Col, "predicate %q has the same name as a variable", d.Name)
		}
		if _, clash := c.consts[d.Name]; clash {
			return nil, errAt(d.At.Line, d.At.Col, "predicate %q has the same name as an enum value", d.Name)
		}
		ce, err := c.compileExpr(d.Expr)
		if err != nil {
			return nil, err
		}
		if ce.typ != boolType {
			return nil, errAt(d.At.Line, d.At.Col, "predicate %q is not boolean", d.Name)
		}
		c.preds[d.Name] = ce
		eval := ce.eval
		pred := state.Pred(d.Name, func(s state.State) bool { return eval(s) != 0 })
		if ce.ops != nil {
			pred.Row = guarded.RowPredicate(ce.ops)
		}
		f.Preds[d.Name] = pred
	}

	progActs, err := c.compileActions(ast.Actions)
	if err != nil {
		return nil, err
	}
	faultActs, err := c.compileActions(ast.Faults)
	if err != nil {
		return nil, err
	}
	prog, err := guarded.NewProgram(ast.Name, schema, progActs...)
	if err != nil {
		return nil, fmt.Errorf("gcl: %w", err)
	}
	f.Program = prog
	f.Faults = fault.NewClass(ast.Name+".faults", faultActs...)
	if err := checkBounds(c, ast, append(append([]ActionDecl(nil), ast.Actions...), ast.Faults...)); err != nil {
		return nil, err
	}
	return f, nil
}

// ParseAndCompile is the common entry point: source text to compiled file.
func ParseAndCompile(src string) (*File, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	f, err := Compile(ast)
	if err != nil {
		return nil, err
	}
	f.Src = src
	return f, nil
}

func (c *compiler) compileActions(decls []ActionDecl) ([]guarded.Action, error) {
	out := make([]guarded.Action, 0, len(decls))
	for _, d := range decls {
		a, err := c.compileAction(d)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

type cassign struct {
	varIdx int
	offset int
	size   int
	eval   func(state.State) int // nil for '?'
}

func (c *compiler) compileAction(d ActionDecl) (guarded.Action, error) {
	g, err := c.compileExpr(d.Guard)
	if err != nil {
		return guarded.Action{}, err
	}
	if g.typ != boolType {
		return guarded.Action{}, errAt(d.At.Line, d.At.Col, "guard of action %q is not boolean", d.Name)
	}
	assigns := make([]cassign, 0, len(d.Assigns))
	lowered := make([]guarded.CompiledAssign, 0, len(d.Assigns))
	canLower := true
	seen := map[string]bool{}
	for _, a := range d.Assigns {
		idx, ok := c.varIdx[a.Var]
		if !ok {
			return guarded.Action{}, errAt(a.At.Line, a.At.Col, "assignment to undeclared variable %q", a.Var)
		}
		if seen[a.Var] {
			return guarded.Action{}, errAt(a.At.Line, a.At.Col, "variable %q assigned twice in action %q", a.Var, d.Name)
		}
		seen[a.Var] = true
		ca := cassign{
			varIdx: idx,
			offset: c.varOff[a.Var],
			size:   c.schema.Var(idx).Domain.Size,
		}
		if a.Expr != nil {
			ce, err := c.compileExpr(a.Expr)
			if err != nil {
				return guarded.Action{}, err
			}
			if ce.typ != c.varTyp[a.Var] {
				return guarded.Action{}, errAt(a.At.Line, a.At.Col, "assignment to %q: expected %s, got %s",
					a.Var, c.varTyp[a.Var], ce.typ)
			}
			ca.eval = ce.eval
			if ce.ops == nil {
				canLower = false
			}
			lowered = append(lowered, guarded.CompiledAssign{Var: idx, Off: ca.offset, Expr: ce.ops})
		} else {
			lowered = append(lowered, guarded.CompiledAssign{Var: idx, Off: ca.offset, Wild: true})
		}
		assigns = append(assigns, ca)
	}
	guardEval := g.eval
	guard := state.Pred(d.Name+".guard", func(s state.State) bool { return guardEval(s) != 0 })
	next := func(s state.State) []state.State {
		// Evaluate all deterministic right-hand sides on the pre-state
		// (simultaneous assignment), then expand '?' targets.
		results := []state.State{s}
		for _, a := range assigns {
			if a.eval != nil {
				v := a.eval(s) - a.offset
				for i, r := range results {
					results[i] = r.With(a.varIdx, v)
				}
				continue
			}
			expanded := make([]state.State, 0, len(results)*a.size)
			for _, r := range results {
				for v := 0; v < a.size; v++ {
					expanded = append(expanded, r.With(a.varIdx, v))
				}
			}
			results = expanded
		}
		return results
	}
	act := guarded.Choice(d.Name, guard, next)
	act.Writes = make([]string, 0, len(d.Assigns))
	for _, a := range d.Assigns {
		act.Writes = append(act.Writes, a.Var)
	}
	// Attach the kernel bytecode form when every right-hand side lowered.
	// The guard may still be nil (not lowerable): the kernel then evaluates
	// the closure guard but executes the statement natively.
	if canLower {
		act.Compiled = &guarded.CompiledAction{Guard: g.ops, Assigns: lowered}
	}
	return act, nil
}

// boundsItem is one action or fault as the bounds check sees it: its guard,
// its deterministic assignments, and the variables those read, ascending.
type boundsItem struct {
	name    string
	guard   func(state.State) int
	assigns []boundsAssign
	reads   []int
}

type boundsAssign struct {
	a    Assign
	eval func(state.State) int
	lo   int
	hi   int
}

// validateBounds checks that every enabled action and fault writes only
// in-domain values, so exploration never panics.
//
// Whether an item overflows at a state depends only on the variables its
// guard and deterministic right-hand sides read, so each item is swept over
// just those variables' domains in index order, every other variable held
// at 0. Zeroing the unread variables of a violating state gives a violating
// state no later in index order, so an item's first hit is its earliest
// violating state in the whole space. The earliest hit over all items, ties
// going to the earlier declaration, is therefore the first violation a sweep
// of the full space would meet, and the error names the same state.
// Items whose assignments are all '?' cannot overflow and are skipped.
func (c *compiler) validateBounds(ast *FileAST, decls []ActionDecl) error {
	n := c.schema.NumVars()
	predReads := make(map[string][]int, len(ast.Preds))
	for _, d := range ast.Preds {
		read := make([]bool, n)
		c.markReads(d.Expr, predReads, read)
		predReads[d.Name] = readList(read)
	}
	var items []boundsItem
	for _, d := range decls {
		g, err := c.compileExpr(d.Guard)
		if err != nil {
			return err
		}
		item := boundsItem{name: d.Name, guard: g.eval}
		read := make([]bool, n)
		for _, a := range d.Assigns {
			if a.Expr == nil {
				continue
			}
			ce, err := c.compileExpr(a.Expr)
			if err != nil {
				return err
			}
			c.markReads(a.Expr, predReads, read)
			idx := c.varIdx[a.Var]
			lo := c.varOff[a.Var]
			hi := lo + c.schema.Var(idx).Domain.Size - 1
			item.assigns = append(item.assigns, boundsAssign{a: a, eval: ce.eval, lo: lo, hi: hi})
		}
		if len(item.assigns) == 0 {
			continue
		}
		c.markReads(d.Guard, predReads, read)
		item.reads = readList(read)
		items = append(items, item)
	}
	if err := c.schema.Indexable(); err != nil {
		return fmt.Errorf("gcl: bounds check: %w", err)
	}
	vals := make([]int32, n)
	var (
		first uint64
		verr  error
	)
	for _, item := range items {
		if at, err := c.firstViolation(item, vals); err != nil && (verr == nil || at < first) {
			first, verr = at, err
		}
	}
	return verr
}

// firstViolation sweeps the item's read variables as a mixed-radix counter,
// the last varying fastest, over vals with every other entry 0. It returns
// the index of the first state where the guard holds and a right-hand side
// leaves its domain, with the error naming the first such assignment, or a
// nil error when there is none.
func (c *compiler) firstViolation(item boundsItem, vals []int32) (uint64, error) {
	clear(vals)
	s := c.schema.ViewState(vals)
	for {
		if item.guard(s) != 0 {
			for _, as := range item.assigns {
				if v := as.eval(s); v < as.lo || v > as.hi {
					return s.Index(), errAt(as.a.At.Line, as.a.At.Col,
						"action %q assigns %d to %q, outside its domain %d..%d (at state %s)",
						item.name, v, as.a.Var, as.lo, as.hi, s)
				}
			}
		}
		k := len(item.reads) - 1
		for ; k >= 0; k-- {
			i := item.reads[k]
			if vals[i]++; int(vals[i]) < c.schema.Var(i).Domain.Size {
				break
			}
			vals[i] = 0
		}
		if k < 0 {
			return 0, nil
		}
	}
}

// markReads sets read[i] for every variable i that e reads, following
// predicate references through predReads, the read sets of the predicates
// declared before.
func (c *compiler) markReads(e Expr, predReads map[string][]int, read []bool) {
	switch n := e.(type) {
	case *Ref:
		if idx, ok := c.varIdx[n.Name]; ok {
			read[idx] = true
			return
		}
		for _, idx := range predReads[n.Name] {
			read[idx] = true
		}
	case *Unary:
		c.markReads(n.X, predReads, read)
	case *Binary:
		c.markReads(n.L, predReads, read)
		c.markReads(n.R, predReads, read)
	}
}

// readList returns the indices set in read, ascending.
func readList(read []bool) []int {
	var out []int
	for i, r := range read {
		if r {
			out = append(out, i)
		}
	}
	return out
}

func (c *compiler) compileExpr(e Expr) (cexpr, error) {
	switch n := e.(type) {
	case *BoolLit:
		v := 0
		if n.Value {
			v = 1
		}
		return cexpr{typ: boolType, eval: func(state.State) int { return v }, ops: opsConst(v)}, nil
	case *IntLit:
		v := n.Value
		return cexpr{typ: intType, eval: func(state.State) int { return v }, ops: opsConst(v)}, nil
	case *Ref:
		if idx, ok := c.varIdx[n.Name]; ok {
			off := c.varOff[n.Name]
			typ := c.varTyp[n.Name]
			return cexpr{
				typ:  typ,
				eval: func(s state.State) int { return s.Get(idx) + off },
				ops:  []guarded.Op{{Code: guarded.OpVar, A: int32(idx), B: int32(off)}},
			}, nil
		}
		if v, ok := c.consts[n.Name]; ok {
			return cexpr{typ: intType, eval: func(state.State) int { return v }, ops: opsConst(v)}, nil
		}
		if ce, ok := c.preds[n.Name]; ok {
			return ce, nil
		}
		return cexpr{}, errAt(n.At.Line, n.At.Col, "undeclared identifier %q", n.Name)
	case *Unary:
		x, err := c.compileExpr(n.X)
		if err != nil {
			return cexpr{}, err
		}
		switch n.Op {
		case NOT:
			if x.typ != boolType {
				return cexpr{}, fmt.Errorf("gcl: '!' applied to non-boolean")
			}
			f := x.eval
			return cexpr{typ: boolType, eval: func(s state.State) int { return 1 - f(s) }, ops: opsUnary(guarded.OpNot, x.ops)}, nil
		case MINUS:
			if x.typ != intType {
				return cexpr{}, fmt.Errorf("gcl: unary '-' applied to non-integer")
			}
			f := x.eval
			return cexpr{typ: intType, eval: func(s state.State) int { return -f(s) }, ops: opsUnary(guarded.OpNeg, x.ops)}, nil
		default:
			return cexpr{}, fmt.Errorf("gcl: unknown unary operator %s", n.Op)
		}
	case *Binary:
		l, err := c.compileExpr(n.L)
		if err != nil {
			return cexpr{}, err
		}
		r, err := c.compileExpr(n.R)
		if err != nil {
			return cexpr{}, err
		}
		return c.binary(n, l, r)
	default:
		return cexpr{}, fmt.Errorf("gcl: unknown expression node %T", e)
	}
}

func (c *compiler) binary(n *Binary, l, r cexpr) (cexpr, error) {
	boolOp := func(code guarded.OpCode, f func(a, b int) int) cexpr {
		le, re := l.eval, r.eval
		return cexpr{typ: boolType, eval: func(s state.State) int { return f(le(s), re(s)) }, ops: opsBinary(code, l.ops, r.ops)}
	}
	// connective is boolOp for &, | and =>, lowered to short-circuit jumps.
	connective := func(prefix []guarded.Op, jump guarded.OpCode, f func(a, b int) int) cexpr {
		le, re := l.eval, r.eval
		return cexpr{typ: boolType, eval: func(s state.State) int { return f(le(s), re(s)) }, ops: opsShortCircuit(prefix, jump, l.ops, r.ops)}
	}
	intOp := func(code guarded.OpCode, f func(a, b int) int) cexpr {
		le, re := l.eval, r.eval
		return cexpr{typ: intType, eval: func(s state.State) int { return f(le(s), re(s)) }, ops: opsBinary(code, l.ops, r.ops)}
	}
	needBool := func() error {
		if l.typ != boolType || r.typ != boolType {
			return errAt(n.At.Line, n.At.Col, "%s requires boolean operands", n.Op)
		}
		return nil
	}
	needInt := func() error {
		if l.typ != intType || r.typ != intType {
			return errAt(n.At.Line, n.At.Col, "%s requires integer operands", n.Op)
		}
		return nil
	}
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	switch n.Op {
	case AND:
		if err := needBool(); err != nil {
			return cexpr{}, err
		}
		return connective(nil, guarded.OpJumpIfFalse, func(a, b int) int { return b2i(a != 0 && b != 0) }), nil
	case OR:
		if err := needBool(); err != nil {
			return cexpr{}, err
		}
		return connective(nil, guarded.OpJumpIfTrue, func(a, b int) int { return b2i(a != 0 || b != 0) }), nil
	case IMPLIES:
		if err := needBool(); err != nil {
			return cexpr{}, err
		}
		return connective(notOp, guarded.OpJumpIfTrue, func(a, b int) int { return b2i(a == 0 || b != 0) }), nil
	case EQ, NEQ:
		if l.typ != r.typ {
			return cexpr{}, errAt(n.At.Line, n.At.Col, "%s compares %s with %s", n.Op, l.typ, r.typ)
		}
		if n.Op == EQ {
			return boolOp(guarded.OpEq, func(a, b int) int { return b2i(a == b) }), nil
		}
		return boolOp(guarded.OpNeq, func(a, b int) int { return b2i(a != b) }), nil
	case LT, LE, GT, GE:
		if err := needInt(); err != nil {
			return cexpr{}, err
		}
		switch n.Op {
		case LT:
			return boolOp(guarded.OpLt, func(a, b int) int { return b2i(a < b) }), nil
		case LE:
			return boolOp(guarded.OpLe, func(a, b int) int { return b2i(a <= b) }), nil
		case GT:
			return boolOp(guarded.OpGt, func(a, b int) int { return b2i(a > b) }), nil
		default:
			return boolOp(guarded.OpGe, func(a, b int) int { return b2i(a >= b) }), nil
		}
	case PLUS, MINUS, STAR, PERCENT:
		if err := needInt(); err != nil {
			return cexpr{}, err
		}
		switch n.Op {
		case PLUS:
			return intOp(guarded.OpAdd, func(a, b int) int { return a + b }), nil
		case MINUS:
			return intOp(guarded.OpSub, func(a, b int) int { return a - b }), nil
		case STAR:
			return intOp(guarded.OpMul, func(a, b int) int { return a * b }), nil
		default:
			le, re := l.eval, r.eval
			return cexpr{typ: intType, eval: func(s state.State) int {
				b := re(s)
				if b == 0 {
					return 0 // total semantics: x % 0 = 0
				}
				return ((le(s) % b) + b) % b
			}, ops: opsBinary(guarded.OpMod, l.ops, r.ops)}, nil
		}
	default:
		return cexpr{}, errAt(n.At.Line, n.At.Col, "unknown binary operator %s", n.Op)
	}
}
