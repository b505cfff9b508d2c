package guarded

import (
	"math"
	"testing"
)

// The link tests build raw bytecode the way internal/gcl lowers it, over a
// schema of four variables: x : -1..2 (a range with domain offset -1), y :
// 0..2, and booleans p and q. Every shape is interpreted raw and linked at
// every row of that schema; the raw interpretation is the oracle.

var linkSizes = []int32{4, 3, 2, 2}

func ref(i int) []Op {
	off := int32(0)
	if i == 0 {
		off = -1
	}
	return []Op{{Code: OpVar, A: int32(i), B: off}}
}

var lx, ly, lp, lq = ref(0), ref(1), ref(2), ref(3)

func lit(c int32) []Op { return []Op{{Code: OpConst, A: c}} }

func cat(parts ...[]Op) []Op {
	var out []Op
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func bin(code OpCode, l, r []Op) []Op { return cat(l, r, []Op{{Code: code}}) }
func not(x []Op) []Op                 { return cat(x, []Op{{Code: OpNot}}) }
func neg(x []Op) []Op                 { return cat(x, []Op{{Code: OpNeg}}) }
func and(l, r []Op) []Op {
	return cat(l, []Op{{Code: OpJumpIfFalse, A: int32(len(r))}}, r)
}
func or(l, r []Op) []Op {
	return cat(l, []Op{{Code: OpJumpIfTrue, A: int32(len(r))}}, r)
}
func implies(l, r []Op) []Op {
	return cat(l, []Op{{Code: OpNot}, {Code: OpJumpIfTrue, A: int32(len(r))}}, r)
}

// forEachRow calls fn with every row of the link tests' schema.
func forEachRow(fn func(row []int32)) {
	row := make([]int32, len(linkSizes))
	for {
		fn(row)
		i := len(row) - 1
		for ; i >= 0; i-- {
			if row[i]++; row[i] < linkSizes[i] {
				break
			}
			row[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// ring3Legit is ring 3's Legit (cmd/dctl/testdata/ring3.gcl) with x0, x1,
// x2 at variables 1, 2 and 3 over offset-free domains.
func ring3Legit() []Op {
	v := func(i int) []Op { return []Op{{Code: OpVar, A: int32(i + 1)}} }
	eq := func(a, b int) []Op { return bin(OpEq, v(a), v(b)) }
	ne := func(a, b int) []Op { return bin(OpNeq, v(a), v(b)) }
	return or(or(
		and(and(eq(0, 2), not(ne(1, 0))), not(ne(2, 1))),
		and(and(not(eq(0, 2)), ne(1, 0)), not(ne(2, 1)))),
		and(and(not(eq(0, 2)), not(ne(1, 0))), ne(2, 1)))
}

// TestLinkMatchesRaw evaluates optimizer hazards and the shapes GCL lowers
// raw and linked at every row. The two hazards that broke an earlier
// linker lead the table: a jump that lands on a would-be fused compare's
// second operand, and one that lands on the OpNot after a compare.
func TestLinkMatchesRaw(t *testing.T) {
	cmps := map[OpCode]string{OpEq: "==", OpNeq: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}
	cases := map[string][]Op{
		"(p & x) == y":          bin(OpEq, and(lp, lx), ly),
		"(p | q) != y":          bin(OpNeq, or(lp, lq), ly),
		"!(p & (x == y))":       not(and(lp, bin(OpEq, lx, ly))),
		"!(p | (x < y))":        not(or(lp, bin(OpLt, lx, ly))),
		"!(p & q)":              not(and(lp, lq)),
		"!!(p | !q)":            not(not(or(lp, not(lq)))),
		"!(x == y) & !p":        and(not(bin(OpEq, lx, ly)), not(lp)),
		"p => q => x < y":       implies(lp, implies(lq, bin(OpLt, lx, ly))),
		"(p => q) => x < y":     implies(implies(lp, lq), bin(OpLt, lx, ly)),
		"(x == 1 => p) => !q":   implies(implies(bin(OpEq, lx, lit(1)), lp), not(lq)),
		"p & (q | x < y)":       and(lp, or(lq, bin(OpLt, lx, ly))),
		"(p & q | x > y) & p":   and(or(and(lp, lq), bin(OpGt, lx, ly)), lp),
		"p | q & !(y <= x)":     or(lp, and(lq, not(bin(OpLe, ly, lx)))),
		"(x == y) == (p & q)":   bin(OpEq, bin(OpEq, lx, ly), and(lp, lq)),
		"(p | q) == (x >= y)":   bin(OpEq, or(lp, lq), bin(OpGe, lx, ly)),
		"!(p => q) == !p":       bin(OpEq, not(implies(lp, lq)), not(lp)),
		"x + 1 == y & p":        and(bin(OpEq, bin(OpAdd, lx, lit(1)), ly), lp),
		"-x < y | (y % 2 == 0)": or(bin(OpLt, neg(lx), ly), bin(OpEq, bin(OpMod, ly, lit(2)), lit(0))),
		"x < MaxInt32":          bin(OpLt, lx, lit(math.MaxInt32)),
		"x <= MaxInt32":         bin(OpLe, lx, lit(math.MaxInt32)),
		"MinInt32 > x":          bin(OpGt, lit(math.MinInt32), lx),
		"ring 3 Legit":          ring3Legit(),
	}
	for cmp, s := range cmps {
		cases["x "+s+" y"] = bin(cmp, lx, ly)
		cases["y "+s+" x"] = bin(cmp, ly, lx)
		cases["x "+s+" 1"] = bin(cmp, lx, lit(1))
		cases["1 "+s+" x"] = bin(cmp, lit(1), lx)
		cases["-1 "+s+" y"] = bin(cmp, lit(-1), ly)
		cases["!(x "+s+" 0)"] = not(bin(cmp, lx, lit(0)))
		cases["x "+s+" y & p"] = and(bin(cmp, lx, ly), lp)
		cases["p | !(x "+s+" y)"] = or(lp, not(bin(cmp, lx, ly)))
		cases["!(2 "+s+" x) | q"] = or(not(bin(cmp, lit(2), lx)), lq)
	}
	for name, raw := range cases {
		linked := Link(raw)
		stack := make([]int, opsStackDepth(raw))
		forEachRow(func(row []int32) {
			want := evalOps(raw, row, stack)
			if got := evalOps(linked, row, stack); got != want {
				t.Fatalf("%s at %v: linked %d, raw %d\nraw:    %v\nlinked: %v", name, row, got, want, raw, linked)
			}
		})
	}
}

// TestLinkShapes pins what the linker emits for the shapes it exists for:
// ring 3's Legit, 41 raw ops, links to 8 compare-and-branches and one
// compare; a false conjunct branches straight past its conjunction.
func TestLinkShapes(t *testing.T) {
	raw := ring3Legit()
	if len(raw) != 41 {
		t.Fatalf("ring 3 Legit lowers to %d ops, want 41", len(raw))
	}
	linked := Link(raw)
	if len(linked) != 9 {
		t.Fatalf("ring 3 Legit links to %d ops, want 9: %v", len(linked), linked)
	}
	for i, op := range linked[:8] {
		if op.Code < opBrEqVar || op.Code > opBrLtConst {
			t.Errorf("op %d is %v, want a compare-and-branch", i, op)
		}
	}
	// The first conjunction's false terms land on the second conjunction's
	// first op with nothing pushed; its last term returns 1 when it holds.
	for i := 0; i < 2; i++ {
		if op := linked[i]; op.T != 3 || op.Push != -1 {
			t.Errorf("op %d branches to %d pushing %d, want 3 pushing nothing", i, op.T, op.Push)
		}
	}
	if op := linked[2]; op.T != 9 || op.Push != 1 {
		t.Errorf("op 2 branches to %d pushing %d, want the end pushing 1", op.T, op.Push)
	}
	if Link(nil) != nil {
		t.Error("Link(nil) is not nil")
	}
	if again := Link(linked); &again[0] != &linked[0] {
		t.Error("a linked stream is linked again")
	}
	back := []Op{{Code: OpConst, A: 0}, {Code: OpJumpIfFalse, A: -1}}
	if got := Link(back); &got[0] != &back[0] {
		t.Error("a backward jump is linked")
	}
}

// TestLinkedKernelMatchesRaw runs the hand-built action through a kernel
// (linked bytecode) and through its raw bytecode at every state.
func TestLinkedKernelMatchesRaw(t *testing.T) {
	p := handBuilt(t, 1)
	k := CompileBytecode(p)
	raw := p.Action(0).Compiled
	n, _ := p.Schema().NumStates()
	row := make([]int32, 3)
	for idx := uint64(0); idx < n; idx++ {
		p.Schema().DecodeInto(row, idx)
		for _, pair := range [][2][]Op{
			{raw.Guard, k.acts[0].comp.Guard},
			{raw.Assigns[0].Expr, k.acts[0].comp.Assigns[0].Expr},
			{raw.Assigns[1].Expr, k.acts[0].comp.Assigns[1].Expr},
		} {
			if got, want := Eval(pair[1], row), Eval(pair[0], row); got != want {
				t.Fatalf("state %d: linked %d, raw %d", idx, got, want)
			}
		}
	}
	if len(k.acts[0].comp.Guard) != 1 {
		t.Errorf("the guard x < y links to %v, want one compare", k.acts[0].comp.Guard)
	}
}
