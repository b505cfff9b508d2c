package gcl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"detcorr/internal/state"
)

// validateBoundsFullSpace is the reference bounds check: it walks every
// state of the schema in index order and, at each, every enabled item in
// declaration order, reporting the first out-of-domain assignment. The
// per-action sweep in validateBounds must report exactly the same error.
func (c *compiler) validateBoundsFullSpace(ast *FileAST, decls []ActionDecl) error {
	type checked struct {
		decl    ActionDecl
		guard   cexpr
		assigns []boundsAssign
	}
	var items []checked
	for _, d := range decls {
		g, err := c.compileExpr(d.Guard)
		if err != nil {
			return err
		}
		item := checked{decl: d, guard: g}
		for _, a := range d.Assigns {
			if a.Expr == nil {
				continue
			}
			ce, err := c.compileExpr(a.Expr)
			if err != nil {
				return err
			}
			idx := c.varIdx[a.Var]
			lo := c.varOff[a.Var]
			hi := lo + c.schema.Var(idx).Domain.Size - 1
			item.assigns = append(item.assigns, boundsAssign{a: a, eval: ce.eval, lo: lo, hi: hi})
		}
		items = append(items, item)
	}
	var verr error
	err := c.schema.ForEachState(func(s state.State) bool {
		for _, item := range items {
			if item.guard.eval(s) == 0 {
				continue
			}
			for _, as := range item.assigns {
				v := as.eval(s)
				if v < as.lo || v > as.hi {
					verr = errAt(as.a.At.Line, as.a.At.Col,
						"action %q assigns %d to %q, outside its domain %d..%d (at state %s)",
						item.decl.Name, v, as.a.Var, as.lo, as.hi, s)
					return false
				}
			}
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("gcl: bounds check: %w", err)
	}
	return verr
}

// compareBounds compiles src with the per-action check and with the
// full-space reference and fails unless both return the same error text.
// It returns that error.
func compareBounds(t *testing.T, src string) error {
	t.Helper()
	ast, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	_, got := Compile(ast)
	_, want := compile(ast, (*compiler).validateBoundsFullSpace)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("per-action check: %v\nfull-space sweep: %v\nsource:\n%s", got, want, src)
	}
	return got
}

func TestBoundsCheckMatchesFullSpaceSweep(t *testing.T) {
	var unindexable strings.Builder
	unindexable.WriteString("program big\n")
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&unindexable, "var v%d : 0..7\n", i)
	}
	unindexable.WriteString("action a :: v0 < 7 -> v0 := v0 + 1\n")

	cases := []struct {
		name, src, want string // want: a substring of the error, "" for none
	}{{
		name: "later action at an earlier state",
		src: `program p
var z : 0..2
var x : 0..3
var y : 0..3
var w : bool
action a :: x == 3 -> y := y + 1
action b :: y == 2 -> x := x + 2
`,
		want: `action "b" assigns 4 to "x", outside its domain 0..3 (at state (z=0, x=2, y=2, w=false))`,
	}, {
		name: "two violating assignments",
		src: `program p
var x : 0..3
var y : 0..3
action a :: x >= 2 -> x := x + 2, y := y - 1
`,
		want: `action "a" assigns 4 to "x"`,
	}, {
		name: "predicate through a predicate",
		src: `program p
var x : 0..3
var y : 0..3
var z : 0..3
pred P :: z == 2
pred Q :: P & y > 0
action a :: Q -> x := x + y
`,
		want: `(at state (x=1, y=3, z=2))`,
	}, {
		name: "bool and enum",
		src: `program p
var b : bool
var e : enum(red, green, blue)
var n : 0..2
action flip  :: true -> b := !b
action shade :: b & e != red -> e := n + 1
`,
		want: `action "shade" assigns 3 to "e", outside its domain 0..2 (at state (b=true, e=green, n=2))`,
	}, {
		name: "right-hand side reads nothing",
		src: `program p
var y : 1..2
var x : 0..3
action a :: true -> x := 5
`,
		want: `action "a" assigns 5 to "x", outside its domain 0..3 (at state (y=0, x=0))`,
	}, {
		name: "wildcard beside a deterministic assignment",
		src: `program p
var x : 0..3
var y : 0..3
action any  :: true -> x := ?, y := ?
action bump :: y == 1 -> x := ?, y := y + 3
`,
		want: `action "bump" assigns 4 to "y"`,
	}, {
		name: "fault after actions",
		src: `program p
var x : 2..5
var y : 0..1
action up :: y == 1 -> x := x + 1
fault drop :: x == 2 -> x := x - 1
`,
		want: `action "drop" assigns 1 to "x", outside its domain 2..5 (at state (x=0, y=0))`,
	}, {
		name: "in bounds",
		src: `program p
var x : 0..3
var y : 0..3
action a :: x < 3 -> x := x + 1, y := ?
action b :: y > 0 -> y := (y * 2) % 4
`,
	}, {
		name: "unindexable schema",
		src:  unindexable.String(),
		want: state.ErrDomainTooLarge.Error(),
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := compareBounds(t, tc.src)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected error %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("error %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestBoundsCheckRandomPrograms runs both checks over a seeded family of
// small programs: 2-4 range variables with 2-5 values, guards comparing
// variables and constants, right-hand sides built from + - * %.
func TestBoundsCheckRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	failing := 0
	const programs = 200
	for i := 0; i < programs; i++ {
		if compareBounds(t, randomBoundsProgram(rng)) != nil {
			failing++
		}
	}
	// Both outcomes must be well represented for the family to test much.
	if failing < programs/5 || failing > programs*4/5 {
		t.Fatalf("%d of %d random programs fail the bounds check; the family is lopsided", failing, programs)
	}
}

func randomBoundsProgram(rng *rand.Rand) string {
	nv := 2 + rng.Intn(3)
	var b strings.Builder
	b.WriteString("program r\n")
	for v := 0; v < nv; v++ {
		lo := rng.Intn(3)
		fmt.Fprintf(&b, "var v%d : %d..%d\n", v, lo, lo+1+rng.Intn(4))
	}
	operand := func() string {
		if rng.Intn(3) == 0 {
			return fmt.Sprint(rng.Intn(4))
		}
		return fmt.Sprintf("v%d", rng.Intn(nv))
	}
	cmp := func() string {
		ops := []string{"==", "!=", "<", "<=", ">", ">="}
		return fmt.Sprintf("v%d %s %s", rng.Intn(nv), ops[rng.Intn(len(ops))], operand())
	}
	guard := func() string {
		switch rng.Intn(4) {
		case 0:
			return "true"
		case 1:
			return cmp() + " & " + cmp()
		case 2:
			return "P | " + cmp()
		default:
			return cmp()
		}
	}
	fmt.Fprintf(&b, "pred P :: %s\n", cmp())
	arith := []string{"+", "-", "*", "%"}
	for a, na := 0, 1+rng.Intn(3); a < na; a++ {
		kind := "action"
		if rng.Intn(4) == 0 {
			kind = "fault"
		}
		fmt.Fprintf(&b, "%s a%d :: %s -> ", kind, a, guard())
		targets := rng.Perm(nv)[:1+rng.Intn(2)]
		for j, v := range targets {
			if j > 0 {
				b.WriteString(", ")
			}
			if rng.Intn(5) == 0 {
				fmt.Fprintf(&b, "v%d := ?", v)
				continue
			}
			fmt.Fprintf(&b, "v%d := %s %s %s", v, operand(), arith[rng.Intn(len(arith))], operand())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
