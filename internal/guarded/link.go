package guarded

import "math"

// This file links raw bytecode — what internal/gcl lowers and hand-written
// actions carry — into the stream evalOps runs fastest. Linking rewrites
// three shapes:
//
//   - fusion: OpVar a; OpVar b | OpConst c; <cmp> becomes one compare with
//     the domain offsets folded in (row[a] ⋈ row[b] + (offB − offA), or
//     row[a] ⋈ c − offA; a constant on the left is mirrored to the right),
//     and an OpNot after it folds in by negating the comparison;
//   - compare-and-branch: a compare followed by OpJumpIfFalse or
//     OpJumpIfTrue becomes one op that pushes nothing unless it branches;
//   - threading: a taken jump knows its value, so the ops it lands on are
//     followed at link time — a jump of the same sense jumps again, a jump
//     of the opposite sense pops the value and execution continues after
//     it, and OpNot flips the value — and the branch goes straight to
//     where that walk stops, with the value it leaves.
//
// A false conjunct thus leaves its whole conjunction in one op. Nothing is
// fused across a jump target: the ops a fused op covers after its first are
// never landed on, where the targets are those of the threaded jumps (which
// are what execution lands on). The linked stream is a superset of the raw
// ops, evalOps runs both, and its stack never grows deeper than the raw
// stream's, so opsStackDepth of the raw bytecode sizes the stack of either.

// Linked opcodes: Link emits them, raw bytecode never contains them.
const (
	// opEqVar and opLtVar push row[A] == row[B] + C and row[A] < row[B] + C,
	// negated when Neg. Link normalizes the six comparisons to these two.
	opEqVar OpCode = OpMod + 1 + iota
	opLtVar
	// opEqConst and opLtConst push row[A] == C and row[A] < C, negated when
	// Neg.
	opEqConst
	opLtConst
	// opBrEqVar to opBrLtConst are the four comparisons as branches: when
	// the comparison, negated when Neg, holds they push Push (unless it is
	// -1) and continue at op T; otherwise they push nothing and fall
	// through. Each is its compare form plus brOffset.
	opBrEqVar
	opBrLtVar
	opBrEqConst
	opBrLtConst
	// opBrTop pops the top t and branches as above when (t != 0) != Neg: a
	// raw jump that no compare fused into.
	opBrTop
)

// brOffset turns a linked compare opcode into its branch form.
const brOffset = opBrEqVar - opEqVar

// isJump reports whether code is one of the raw connectives.
func isJump(code OpCode) bool { return code == OpJumpIfFalse || code == OpJumpIfTrue }

// Link returns ops as a linked stream: the same value at every row, in
// fewer and cheaper ops (see the top of this file). A stream that is empty,
// already linked, holds an unknown opcode or jumps backwards is returned as
// it is. Like the connectives' own lowering, linking relies on the operands
// of OpJumpIfFalse, OpJumpIfTrue and OpNot being booleans (0/1).
func Link(ops []Op) []Op {
	n := len(ops)
	if n == 0 {
		return ops
	}
	for _, op := range ops {
		if op.Code < OpConst || op.Code > OpMod || isJump(op.Code) && op.A < 0 {
			return ops
		}
	}
	// Thread every jump first: the fusion below must know where execution
	// can land, and that is where the threaded jumps land.
	land := make([]int32, n)
	push := make([]int8, n)
	target := make([]bool, n+1)
	for i := range ops {
		if isJump(ops[i].Code) {
			land[i], push[i] = thread(ops, i)
			target[land[i]] = true
		}
	}
	out := make([]Op, 0, n)
	at := make([]int32, n+1) // linked index of each raw op that starts one
	for i := 0; i < n; {
		at[i] = int32(len(out))
		op, width := ops[i], 1
		if c, w, ok := fuseCompare(ops, i, target); ok {
			op, width = c, w
			if j := i + w; j < n && !target[j] && isJump(ops[j].Code) {
				op.Code += brOffset
				op.Neg = op.Neg != (ops[j].Code == OpJumpIfFalse)
				op.T, op.Push = land[j], push[j]
				width++
			}
		} else if isJump(op.Code) {
			op = Op{Code: opBrTop, Neg: op.Code == OpJumpIfFalse, T: land[i], Push: push[i]}
		}
		out = append(out, op)
		i += width
	}
	at[n] = int32(len(out))
	for i := range out {
		if out[i].Code >= opBrEqVar {
			out[i].T = at[out[i].T]
		}
	}
	return out
}

// thread follows the jump at ops[i] when it is taken and returns the raw
// position where execution then continues, with the value the jump leaves
// pushed there: 0 or 1, or -1 once a jump of the opposite sense popped it.
func thread(ops []Op, i int) (int32, int8) {
	v := int8(0)
	if ops[i].Code == OpJumpIfTrue {
		v = 1
	}
	p := i + 1 + int(ops[i].A)
	for p < len(ops) {
		switch code := ops[p].Code; {
		case code == OpNot:
			v = 1 - v
			p++
		case isJump(code) && (code == OpJumpIfTrue) != (v == 1):
			return int32(p + 1), -1
		case isJump(code):
			p += 1 + int(ops[p].A)
		default:
			return int32(p), v
		}
	}
	return int32(len(ops)), v
}

// fuseCompare matches a comparison of a variable with a variable or a
// constant at ops[i:], and an OpNot after it, with no jump landing inside.
// It returns the linked compare and the number of raw ops it covers.
func fuseCompare(ops []Op, i int, target []bool) (Op, int, bool) {
	if i+2 >= len(ops) || target[i+1] || target[i+2] {
		return Op{}, 0, false
	}
	x, y, cmp := ops[i], ops[i+1], ops[i+2].Code
	var op Op
	var k int64 // the folded constant, before normalization
	switch {
	case x.Code == OpVar && y.Code == OpVar:
		op, k = Op{Code: opEqVar, A: x.A, B: y.A}, int64(y.B)-int64(x.B)
	case x.Code == OpVar && y.Code == OpConst:
		op, k = Op{Code: opEqConst, A: x.A}, int64(y.A)-int64(x.B)
	case x.Code == OpConst && y.Code == OpVar:
		op, k = Op{Code: opEqConst, A: y.A}, int64(x.A)-int64(y.B)
		cmp = mirror(cmp)
	default:
		return Op{}, 0, false
	}
	// Normalize: x <= y ⇔ x < y+1, x > y ⇔ ¬(x < y+1), x >= y ⇔ ¬(x < y).
	switch cmp {
	case OpEq:
	case OpNeq:
		op.Neg = true
	case OpLt:
		op.Code++
	case OpGe:
		op.Code, op.Neg = op.Code+1, true
	case OpLe:
		op.Code, k = op.Code+1, k+1
	case OpGt:
		op.Code, op.Neg, k = op.Code+1, true, k+1
	default:
		return Op{}, 0, false
	}
	if k < math.MinInt32 || k > math.MaxInt32 {
		return Op{}, 0, false
	}
	op.C = int32(k)
	if i+3 < len(ops) && ops[i+3].Code == OpNot && !target[i+3] {
		op.Neg = !op.Neg
		return op, 4, true
	}
	return op, 3, true
}

// mirror returns the comparison with its operands swapped: a ⋈ b ⇔ b ⋈' a.
func mirror(cmp OpCode) OpCode {
	switch cmp {
	case OpLt:
		return OpGt
	case OpGt:
		return OpLt
	case OpLe:
		return OpGe
	case OpGe:
		return OpLe
	}
	return cmp
}
