package guarded

import (
	"fmt"
	"math"

	"detcorr/internal/state"
)

// This file implements the compiled transition kernel: a per-program
// successor generator that works on raw mixed-radix state indices and
// reusable scratch rows instead of immutable state.State values, so that the
// explicit-state engines in internal/explore pay zero heap allocations per
// transition in the steady state.
//
// Guards and statements come in two forms:
//
//   - native: GCL-compiled actions carry CompiledAction bytecode (a small
//     stack machine over the scratch row, lowered by internal/gcl), which the
//     kernel evaluates directly on []int32 rows, or, for an action whose
//     variables span few enough points, reads from a table Compile filled
//     by running that bytecode once per point (see table);
//   - closure: hand-written Go actions fall back to a generic adapter that
//     decodes the index into a pooled scratch state.State view (one backing
//     array per Scratch) and calls Guard/Stmt/Next. The adapter allocates
//     only what the closures themselves allocate.
//
// Both forms emit successors in exactly the order Program.Successors does
// (actions in declaration order, each action's nondeterminism in statement
// order), which is what keeps kernel-built graphs byte-identical to
// closure-built ones under the canonical-renumbering contract.
//
// The hot-path functions below carry //dc:zeroalloc and the Kernel struct
// //dc:immutable; the dcvet zeroalloc and graphmut analyzers hold this
// file to both contracts. Compile is the sanctioned Kernel builder:
//
//dc:mutates Kernel

// OpCode is a kernel bytecode instruction. The expression machine is a pure
// stack machine over int operands: leaves push, unary ops rewrite the top of
// the stack, binary ops pop two and push one, and the two connectives jump
// forward. Booleans are 0/1. The
// operators mirror the GCL expression language exactly, including total
// modulo (x % 0 = 0, result sign-normalized to [0,b)).
type OpCode uint8

const (
	// OpConst pushes the constant A.
	OpConst OpCode = iota + 1
	// OpVar pushes row[A] + B (B is the domain offset of range variables).
	OpVar
	// OpNot rewrites the boolean top t to 1-t.
	OpNot
	// OpNeg negates the integer top.
	OpNeg
	// OpJumpIfFalse and OpJumpIfTrue are the boolean connectives, lowered
	// to short-circuit forward jumps (operands are 0/1). When the top
	// decides the result (0 for OpJumpIfFalse, 1 for OpJumpIfTrue) they
	// keep it and skip the next A ops; otherwise they pop it. GCL lowers
	// l & r to l, OpJumpIfFalse len(r), r; l | r likewise with
	// OpJumpIfTrue; and l => r as !l | r. Expressions are pure and total,
	// so skipping r changes no value.
	OpJumpIfFalse
	OpJumpIfTrue
	// Comparisons (push 0/1).
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	// Integer arithmetic. OpMod is total: a % 0 = 0, otherwise the result
	// is normalized into [0, b).
	OpAdd
	OpSub
	OpMul
	OpMod
)

// Op is one kernel bytecode instruction with its immediates. Raw bytecode
// sets Code, A and B; Neg, Push, C and T belong to the linked ops Link
// emits (see link.go).
type Op struct {
	Code OpCode
	Neg  bool
	Push int8
	A    int32
	B    int32
	C    int32
	T    int32
}

// CompiledAssign is one lowered assignment of an action statement: variable
// Var receives the value of Expr minus the domain offset Off, evaluated on
// the pre-state row (assignments are simultaneous). Wild marks the GCL '?'
// form: the variable nondeterministically receives every domain value, and
// Expr is nil.
type CompiledAssign struct {
	Var  int
	Off  int
	Expr []Op
	Wild bool
}

// CompiledAction is an action lowered to kernel bytecode. A nil Guard means
// the guard is not compiled (for example after Action.Restrict conjoins an
// opaque predicate) and the kernel must consult the closure Guard; the
// assignments can still execute natively. Assigns are in declaration order;
// wild assignments enumerate their values lexicographically in that order
// (earlier '?' varies slowest), matching the GCL closure semantics.
type CompiledAction struct {
	Guard   []Op
	Assigns []CompiledAssign
}

// evalOps runs the expression machine on a row: raw bytecode and linked
// streams alike. stack must have capacity for the raw expression's maximal
// depth (Kernel sizes it at Compile time).
//
//dc:zeroalloc
func evalOps(ops []Op, row []int32, stack []int) int {
	sp := 0
	for i := 0; i < len(ops); i++ {
		op := &ops[i]
		switch op.Code {
		case OpConst:
			stack[sp] = int(op.A)
			sp++
		case OpVar:
			stack[sp] = int(row[op.A]) + int(op.B)
			sp++
		case OpNot:
			stack[sp-1] = 1 - stack[sp-1]
		case OpNeg:
			stack[sp-1] = -stack[sp-1]
		case OpJumpIfFalse:
			if stack[sp-1] == 0 {
				i += int(op.A)
			} else {
				sp--
			}
		case OpJumpIfTrue:
			if stack[sp-1] != 0 {
				i += int(op.A)
			} else {
				sp--
			}
		case opEqVar:
			stack[sp] = b2i((int(row[op.A]) == int(row[op.B])+int(op.C)) != op.Neg)
			sp++
		case opLtVar:
			stack[sp] = b2i((int(row[op.A]) < int(row[op.B])+int(op.C)) != op.Neg)
			sp++
		case opEqConst:
			stack[sp] = b2i((row[op.A] == op.C) != op.Neg)
			sp++
		case opLtConst:
			stack[sp] = b2i((row[op.A] < op.C) != op.Neg)
			sp++
		case opBrEqVar:
			if (int(row[op.A]) == int(row[op.B])+int(op.C)) != op.Neg {
				i, sp = op.take(stack, sp)
			}
		case opBrLtVar:
			if (int(row[op.A]) < int(row[op.B])+int(op.C)) != op.Neg {
				i, sp = op.take(stack, sp)
			}
		case opBrEqConst:
			if (row[op.A] == op.C) != op.Neg {
				i, sp = op.take(stack, sp)
			}
		case opBrLtConst:
			if (row[op.A] < op.C) != op.Neg {
				i, sp = op.take(stack, sp)
			}
		case opBrTop:
			sp--
			if (stack[sp] != 0) != op.Neg {
				i, sp = op.take(stack, sp)
			}
		default:
			sp--
			a, b := stack[sp-1], stack[sp]
			var v int
			switch op.Code {
			case OpEq:
				v = b2i(a == b)
			case OpNeq:
				v = b2i(a != b)
			case OpLt:
				v = b2i(a < b)
			case OpLe:
				v = b2i(a <= b)
			case OpGt:
				v = b2i(a > b)
			case OpGe:
				v = b2i(a >= b)
			case OpAdd:
				v = a + b
			case OpSub:
				v = a - b
			case OpMul:
				v = a * b
			case OpMod:
				if b == 0 {
					v = 0
				} else {
					v = ((a % b) + b) % b
				}
			default:
				panic(fmt.Sprintf("guarded: unknown opcode %d", op.Code))
			}
			stack[sp-1] = v
		}
	}
	return stack[0]
}

// take is a linked branch taken: it pushes Push unless that is -1 and
// returns the op index before T, where the interpreter loop continues, with
// the new stack pointer.
//
//dc:zeroalloc
func (op *Op) take(stack []int, sp int) (int, int) {
	if op.Push >= 0 {
		stack[sp] = int(op.Push)
		sp++
	}
	return int(op.T) - 1, sp
}

//dc:zeroalloc
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// opsStackDepth returns the maximal stack depth evalOps needs for raw ops,
// and so for their linked stream too (see link.go). A jump counts as the
// pop of its fall-through path: the skipped operand starts at the depth the
// jump leaves and ends one above it, where the taken path ends too, so one
// linear pass is exact.
//
//dc:zeroalloc
func opsStackDepth(ops []Op) int {
	depth, max := 0, 0
	for _, op := range ops {
		switch op.Code {
		case OpConst, OpVar:
			depth++
			if depth > max {
				max = depth
			}
		case OpNot, OpNeg:
			// top rewrite
		default:
			depth--
		}
	}
	return max
}

// RowPredicate returns boolean bytecode as a test on value rows: row[i] is
// variable i's value index, as in a kernel row. The test runs the linked
// stream, is safe for concurrent use and allocates nothing for expressions
// up to 16 deep.
func RowPredicate(ops []Op) func(row []int32) bool {
	depth := opsStackDepth(ops)
	ops = Link(ops)
	return func(row []int32) bool {
		var inline [16]int
		stack := inline[:]
		if depth > len(inline) {
			stack = make([]int, depth)
		}
		return evalOps(ops, row, stack) != 0
	}
}

// Eval runs bytecode, raw or linked, on a value row and returns its value.
// It allocates the stack on each call; the kernel and RowPredicate run the
// same interpreter without allocating.
func Eval(ops []Op, row []int32) int {
	return evalOps(ops, row, make([]int, len(ops)+1))
}

// Succ is one successor emitted by the kernel: the index of the action that
// produced it and the mixed-radix index of the target state.
type Succ struct {
	Action int32
	To     uint64
}

// kact is one action prepared for kernel execution.
type kact struct {
	comp  *CompiledAction // linked; nil: fully closure-evaluated
	tab   *table          // non-nil: guard and statement read from a table
	guard state.Predicate
	next  func(state.State) []state.State
	stmt  func(state.State) state.State
}

// tableLimit bounds a tabulated action's table: a native action gets one
// when the domains of the variables it reads and deterministically writes
// multiply to at most this many entries (32 KiB of deltas at the limit).
const tableLimit = 1 << 12

// Sentinels of a table's delta column. A real delta is the difference of
// two state indices below 2^62, so it never collides with them.
const (
	tabDisabled = math.MinInt64     // the guard is false
	tabEscapes  = math.MinInt64 + 1 // the guard holds and a write leaves its domain
)

// table is a native action evaluated once per point of its key — the
// variables its guard and right-hand sides read plus the variables it
// writes deterministically — instead of once per transition. Entry sub (the
// key variables' values as a mixed-radix number, the last varying fastest)
// holds tabDisabled, tabEscapes, or the index delta Σ (new − old)·radix over
// the deterministic writes, so a firing costs one lookup and one add. The
// written variables are part of the key because the delta depends on their
// old values. Wild ('?') variables are not: their old contribution is
// subtracted from the row at firing time, exactly as compiledSucc does.
type table struct {
	vars    []int32 // key variables, ascending
	strides []int32 // sub-index weight of each key variable
	delta   []int64 // by sub-index
	wild    []int32 // '?' variables in declaration order
}

// lookup returns the entry of the row's key point.
//
//dc:zeroalloc
func (t *table) lookup(row []int32) int64 {
	sub := int32(0)
	for i, v := range t.vars {
		sub += row[v] * t.strides[i]
	}
	return t.delta[sub]
}

// Kernel is a compiled, immutable successor generator for a program, built
// once per Program with Compile. The kernel itself holds no mutable state
// and may be shared across goroutines; each worker obtains its own Scratch
// (NewScratch) carrying the reusable row, stack, and view buffers, and all
// stepping goes through the scratch. The schema must be indexable for the
// index-addressed methods to be meaningful (internal/explore checks this
// before compiling).
//
//dc:immutable
type Kernel struct {
	prog     *Program
	schema   *state.Schema
	nv       int
	sizes    []int32
	acts     []kact
	maxStack int
	maxWild  int
}

// Compile builds the transition kernel for p. GCL-compiled actions execute
// natively from their CompiledAction bytecode, linked (see Link), and every
// native action
// whose key (see table) spans at most tableLimit points is tabulated; all
// other actions go through the closure adapter. Compile enumerates no
// states: a table costs at most tableLimit bytecode evaluations.
func Compile(p *Program) *Kernel { return compile(p, tableLimit) }

// CompileBytecode is Compile with no action tabulated: every native action
// interprets its bytecode at each firing. It is the reference the kernel
// tests hold the tables against.
func CompileBytecode(p *Program) *Kernel { return compile(p, 0) }

// compile builds the kernel, tabulating native actions whose key spans at
// most limit points; the limit is a parameter so tests can move it.
func compile(p *Program, limit int) *Kernel {
	sch := p.Schema()
	nv := sch.NumVars()
	k := &Kernel{
		prog:     p,
		schema:   sch,
		nv:       nv,
		sizes:    make([]int32, nv),
		acts:     make([]kact, p.NumActions()),
		maxStack: 1,
		maxWild:  1,
	}
	for i := 0; i < nv; i++ {
		k.sizes[i] = int32(sch.Var(i).Domain.Size)
	}
	for i := range k.acts {
		a := p.Action(i)
		k.acts[i] = kact{comp: linkAction(a.Compiled), guard: a.Guard, next: a.Next, stmt: a.Stmt}
		if c := a.Compiled; c != nil {
			if d := opsStackDepth(c.Guard); d > k.maxStack {
				k.maxStack = d
			}
			wild := 0
			for _, as := range c.Assigns {
				if as.Wild {
					wild++
				} else if d := opsStackDepth(as.Expr); d > k.maxStack {
					k.maxStack = d
				}
			}
			if wild > k.maxWild {
				k.maxWild = wild
			}
		}
	}
	if _, ok := sch.NumStates(); ok && limit > 0 {
		for i := range k.acts {
			if c := p.Action(i).Compiled; c != nil && c.Guard != nil {
				k.acts[i].tab = k.tabulate(c, limit)
			}
		}
	}
	return k
}

// linkAction returns the action's bytecode linked (see Link), or nil.
func linkAction(c *CompiledAction) *CompiledAction {
	if c == nil {
		return nil
	}
	l := &CompiledAction{Guard: Link(c.Guard), Assigns: make([]CompiledAssign, len(c.Assigns))}
	for i, as := range c.Assigns {
		as.Expr = Link(as.Expr)
		l.Assigns[i] = as
	}
	return l
}

// tabulate builds the table of a native action from its raw bytecode, or
// returns nil when its key spans more than limit points or its bytecode does
// not fit the table's shape (a variable written twice, or a read outside the
// schema).
func (k *Kernel) tabulate(c *CompiledAction, limit int) *table {
	key := make([]bool, k.nv)
	written := make([]bool, k.nv)
	reads := func(ops []Op) bool {
		for _, op := range ops {
			if op.Code == OpVar {
				if op.A < 0 || int(op.A) >= k.nv {
					return false
				}
				key[op.A] = true
			}
		}
		return true
	}
	if !reads(c.Guard) {
		return nil
	}
	t := &table{}
	for _, as := range c.Assigns {
		if as.Var < 0 || as.Var >= k.nv || written[as.Var] {
			return nil
		}
		written[as.Var] = true
		if as.Wild {
			t.wild = append(t.wild, int32(as.Var))
			continue
		}
		if !reads(as.Expr) {
			return nil
		}
		key[as.Var] = true
	}
	size := 1
	for v, in := range key {
		if !in {
			continue
		}
		if size *= int(k.sizes[v]); size > limit {
			return nil
		}
		t.vars = append(t.vars, int32(v))
	}
	t.strides = make([]int32, len(t.vars))
	stride := int32(1)
	for i := len(t.vars) - 1; i >= 0; i-- {
		t.strides[i] = stride
		stride *= k.sizes[t.vars[i]]
	}
	t.delta = make([]int64, size)
	row := make([]int32, k.nv)
	stack := make([]int, k.maxStack)
	for sub := range t.delta {
		t.delta[sub] = k.entry(c, row, stack)
		for i := len(t.vars) - 1; i >= 0; i-- {
			v := t.vars[i]
			if row[v]++; row[v] < k.sizes[v] {
				break
			}
			row[v] = 0
		}
	}
	return t
}

// entry evaluates a native action at one key point: tabDisabled when the
// guard is false, tabEscapes when a deterministic write leaves its domain,
// else the index delta of the deterministic writes.
func (k *Kernel) entry(c *CompiledAction, row []int32, stack []int) int64 {
	if evalOps(c.Guard, row, stack) == 0 {
		return tabDisabled
	}
	d := int64(0)
	for i := range c.Assigns {
		as := &c.Assigns[i]
		if as.Wild {
			continue
		}
		v := evalOps(as.Expr, row, stack) - as.Off
		if v < 0 || v >= int(k.sizes[as.Var]) {
			return tabEscapes
		}
		d += int64(v-int(row[as.Var])) * int64(k.schema.Radix(as.Var))
	}
	return d
}

// Program returns the program the kernel was compiled from.
func (k *Kernel) Program() *Program { return k.prog }

// Schema returns the program's schema.
func (k *Kernel) Schema() *state.Schema { return k.schema }

// NumActions returns the number of actions.
func (k *Kernel) NumActions() int { return len(k.acts) }

// Native reports whether action a executes from compiled bytecode (guard and
// statement both lowered) rather than through the closure adapter.
func (k *Kernel) Native(a int) bool {
	c := k.acts[a].comp
	return c != nil && c.Guard != nil
}

// Fanout returns the number of transitions action a has at every state
// where it is enabled — one per valuation of its '?' variables for a
// compiled action, one for a deterministic closure — or -1 when the number
// may vary from state to state (a closure with a set of next states).
func (k *Kernel) Fanout(a int) int {
	act := &k.acts[a]
	switch {
	case act.comp != nil:
		n := 1
		for _, as := range act.comp.Assigns {
			if as.Wild {
				n *= int(k.sizes[as.Var])
			}
		}
		return n
	case act.stmt != nil:
		return 1
	}
	return -1
}

// Scratch is the per-worker mutable state of a kernel: the decoded pre-state
// row, the successor row, the expression stack, and the pooled state.State
// view over the row for closure actions. A Scratch must not be shared
// between goroutines; stepping through it performs no heap allocations on
// the native path (and only the closures' own allocations on the adapter
// path) once the caller-provided buffers have warmed up.
type Scratch struct {
	k       *Kernel
	row     []int32 // decoded pre-state
	post    []int32 // successor row, rebuilt per firing
	stack   []int   // expression machine stack
	view    state.State
	wildVar []int32 // '?' variables of the current firing
	wildVal []int32 // odometer over their values
	succBuf []Succ  // reused by Step for compiled emissions
	loaded  uint64
	hasRow  bool
}

// NewScratch returns a fresh per-worker scratch for the kernel.
func (k *Kernel) NewScratch() *Scratch {
	row := make([]int32, k.nv)
	return &Scratch{
		k:       k,
		row:     row,
		post:    make([]int32, k.nv),
		stack:   make([]int, k.maxStack),
		view:    k.schema.ViewState(row),
		wildVar: make([]int32, k.maxWild),
		wildVal: make([]int32, k.maxWild),
	}
}

// Load decodes the state with the given mixed-radix index into the scratch
// row. Subsequent Enabled calls evaluate against that row. Loading the
// index after the loaded one steps the row like an odometer instead of
// decoding it: sweeps in index order, such as a BFS seeded with every
// state, pay no divisions.
//
//dc:zeroalloc
func (sc *Scratch) Load(idx uint64) {
	if sc.hasRow && sc.loaded == idx {
		return
	}
	if sc.hasRow && sc.loaded+1 == idx {
		for i := len(sc.row) - 1; i >= 0; i-- {
			if sc.row[i]++; sc.row[i] < sc.k.sizes[i] {
				break
			}
			sc.row[i] = 0
		}
	} else {
		sc.k.schema.DecodeInto(sc.row, idx)
	}
	sc.loaded = idx
	sc.hasRow = true
}

// View decodes the index and returns the pooled view state over the scratch
// row. The view is invalidated by the next Load/Transitions/Step call.
func (sc *Scratch) View(idx uint64) state.State {
	sc.Load(idx)
	return sc.view
}

// Enabled reports whether action a's guard holds at the loaded row.
//
//dc:zeroalloc
func (sc *Scratch) Enabled(a int) bool {
	return sc.guardHolds(&sc.k.acts[a], sc.row, sc.view)
}

// EnabledOnRow evaluates action a's guard directly on a caller-owned row
// (for example a graph arena row) without copying it into the scratch.
//
//dc:zeroalloc
func (sc *Scratch) EnabledOnRow(row []int32, a int) bool {
	return sc.guardHolds(&sc.k.acts[a], row, sc.k.schema.ViewState(row))
}

//dc:zeroalloc
func (sc *Scratch) guardHolds(a *kact, row []int32, view state.State) bool {
	if a.tab != nil {
		return a.tab.lookup(row) != tabDisabled
	}
	if a.comp != nil && a.comp.Guard != nil {
		return evalOps(a.comp.Guard, row, sc.stack) != 0
	}
	return a.guard.Holds(view)
}

// Transitions appends every transition enabled at the state with the given
// index to buf and returns it, in exactly the order Program.Successors
// enumerates them. With a buffer of sufficient capacity the native path
// performs no heap allocations.
//
//dc:zeroalloc
func (sc *Scratch) Transitions(idx uint64, buf []Succ) []Succ {
	sc.Load(idx)
	for ai := range sc.k.acts {
		buf = sc.actionSucc(ai, idx, buf)
	}
	return buf
}

// TransitionsOf appends the transitions of the single action a enabled at
// the state with the given index to buf and returns it — one iteration of
// Transitions, in the same emission order. A disabled guard appends nothing.
// It is the primitive behind edge-scoped CSR repair, which re-expands only
// the actions an edit touched.
//
//dc:zeroalloc
func (sc *Scratch) TransitionsOf(idx uint64, ai int, buf []Succ) []Succ {
	sc.Load(idx)
	return sc.actionSucc(ai, idx, buf)
}

// Step appends the mixed-radix indices of all successors of idx to buf and
// returns it: Transitions stripped of the action labels. It is the
// allocation-free reachability primitive.
//
//dc:zeroalloc
func (sc *Scratch) Step(idx uint64, buf []uint64) []uint64 {
	sc.Load(idx)
	for ai := range sc.k.acts {
		sc.succBuf = sc.actionSucc(ai, idx, sc.succBuf[:0])
		for _, s := range sc.succBuf {
			buf = append(buf, s.To)
		}
	}
	return buf
}

// actionSucc appends the transitions of action ai at the loaded state idx:
// from its table, from its bytecode, or through the closure adapter.
//
//dc:zeroalloc
func (sc *Scratch) actionSucc(ai int, idx uint64, buf []Succ) []Succ {
	a := &sc.k.acts[ai]
	if a.tab != nil {
		return sc.tabulatedSucc(int32(ai), a, idx, buf)
	}
	if !sc.guardHolds(a, sc.row, sc.view) {
		return buf
	}
	if a.comp != nil {
		return sc.compiledSucc(int32(ai), a.comp, buf)
	}
	if a.stmt != nil {
		return append(buf, Succ{Action: int32(ai), To: a.stmt(sc.view).Index()})
	}
	for _, ns := range a.next(sc.view) {
		buf = append(buf, Succ{Action: int32(ai), To: ns.Index()})
	}
	return buf
}

// tabulatedSucc fires a tabulated action at the loaded state idx: one
// lookup gives the deterministic writes' index delta, then the wild
// variables' old values are subtracted and their odometer runs. An entry
// whose write leaves its domain re-runs the bytecode, which panics with the
// kernel's domain message.
//
//dc:zeroalloc
func (sc *Scratch) tabulatedSucc(ai int32, a *kact, idx uint64, buf []Succ) []Succ {
	t := a.tab
	switch d := t.lookup(sc.row); d {
	case tabDisabled:
		return buf
	case tabEscapes:
		return sc.compiledSucc(ai, a.comp, buf)
	default:
		idx += uint64(d)
	}
	if len(t.wild) == 0 {
		return append(buf, Succ{Action: ai, To: idx})
	}
	for _, w := range t.wild {
		idx -= uint64(sc.row[w]) * sc.k.schema.Radix(int(w))
	}
	return sc.wildSucc(ai, idx, t.wild, buf)
}

// compiledSucc executes a lowered statement at the loaded row: deterministic
// right-hand sides are evaluated on the pre-state (simultaneous assignment)
// into the post row, then wild ('?') variables enumerate their domains
// lexicographically in declaration order.
//
//dc:zeroalloc
func (sc *Scratch) compiledSucc(ai int32, c *CompiledAction, buf []Succ) []Succ {
	k := sc.k
	copy(sc.post, sc.row)
	nw := 0
	for i := range c.Assigns {
		as := &c.Assigns[i]
		if as.Wild {
			sc.wildVar[nw] = int32(as.Var)
			nw++
			continue
		}
		v := evalOps(as.Expr, sc.row, sc.stack) - as.Off
		if v < 0 || v >= int(k.sizes[as.Var]) {
			panic(fmt.Sprintf("guarded: kernel write of %d out of domain for variable %q (size %d)",
				v, k.schema.Var(as.Var).Name, k.sizes[as.Var]))
		}
		sc.post[as.Var] = int32(v)
	}
	base := k.schema.IndexOfVals(sc.post)
	if nw == 0 {
		return append(buf, Succ{Action: ai, To: base})
	}
	// Zero the wild variables' contribution before the odometer runs.
	for _, w := range sc.wildVar[:nw] {
		base -= uint64(sc.post[w]) * k.schema.Radix(int(w))
	}
	return sc.wildSucc(ai, base, sc.wildVar[:nw], buf)
}

// wildSucc emits one successor per assignment of values to the wild
// variables, from base (their contribution zeroed), with the last declared
// '?' varying fastest (matching the closure expansion). The emitted index is
// maintained incrementally over the odometer, so each successor costs
// O(#wild).
//
//dc:zeroalloc
func (sc *Scratch) wildSucc(ai int32, base uint64, wild []int32, buf []Succ) []Succ {
	k := sc.k
	vals := sc.wildVal[:len(wild)]
	clear(vals)
	idx := base
	for {
		buf = append(buf, Succ{Action: ai, To: idx})
		j := len(wild) - 1
		for ; j >= 0; j-- {
			w := wild[j]
			vals[j]++
			if vals[j] < k.sizes[w] {
				idx += k.schema.Radix(int(w))
				break
			}
			idx -= uint64(vals[j]-1) * k.schema.Radix(int(w))
			vals[j] = 0
		}
		if j < 0 {
			return buf
		}
	}
}
