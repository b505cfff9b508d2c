package prove

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"detcorr/internal/absdom"
	"detcorr/internal/explore/difftest"
	"detcorr/internal/gcl"
)

// proverQueries runs every prover entry point over a system's predicates
// and returns one line per query: the closure and the inferred-span
// closure of every predicate, convergence for every (U, goal), and
// safeness and the detector and corrector components for every (U, Z, X),
// U ranging over "true" and the predicates. Only every sample-th (U, Z, X)
// triple is asked, so the systems with many predicates stay affordable.
func proverQueries(t *testing.T, sys *System, sample int) []string {
	t.Helper()
	var out []string
	add := func(q string, v any, err error) {
		b, jerr := json.Marshal(v)
		if jerr != nil {
			t.Fatal(jerr)
		}
		out = append(out, fmt.Sprintf("%s: %s %v", q, b, err))
	}
	ctx := context.Background()
	preds := sys.PredNames()
	us := append([]string{"true"}, preds...)
	for _, p := range preds {
		rep, err := ProveClosure(sys, p)
		add("closure "+p, rep, err)
		rep, err = ProveSpanClosure(sys, p, "")
		add("span "+p, rep, err)
	}
	for _, u := range us {
		for _, g := range preds {
			rep, err := ProveConvergence(sys, u, g, nil)
			add("convergence "+u+" "+g, rep, err)
		}
	}
	i := 0
	for _, u := range us {
		for _, z := range preds {
			for _, x := range preds {
				if i++; (i-1)%sample != 0 {
					continue
				}
				q := strings.Join([]string{u, z, x}, " ")
				rep, err := ProveSafeness(sys, u, z, x)
				add("safeness "+q, rep, err)
				for _, kind := range []string{"detector", "corrector"} {
					ok, err := ProveComponentCtx(ctx, sys, kind, z, x, u)
					add(kind+" "+q, ok, err)
				}
			}
		}
	}
	return out
}

// TestRefuterMatchesReference asks every prover entry point the same
// questions with assertByEnum's memo on and off and requires byte-identical
// reports: verdicts, per-action results, counterexamples, notes, spans and
// ranks. The systems are the difftest GCL renditions, the shipped example
// programs, rings 3 and 4 (and ring 3 with K = 4), and seeded random
// programs whose guards and predicates mix arithmetic, order and
// (dis)equality literals over small domains.
func TestRefuterMatchesReference(t *testing.T) {
	type system struct {
		name, src string
		sample    int
	}
	systems := []system{
		{"ring3", difftest.RingSource(3, 3), 1},
		{"ring4", difftest.RingSource(4, 4), 1},
		{"ring3k4", difftest.RingSource(3, 4), 1},
		{"watched-ring3", difftest.RingWatchedSource(3, 3), 1},
		{"tmr", difftest.TMRSource, 1},
		{"byzagree", difftest.ByzAgreeSource, 1},
		{"memaccess-pf", difftest.MemaccessPF, 1},
		{"memaccess-pn", difftest.MemaccessPN, 1},
		{"memaccess-pm", difftest.MemaccessPM, 5},
		{"memaccess-pair", difftest.MemaccessPairSource, 7},
	}
	for _, name := range []string{"ring3", "memaccess", "countdown"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "cmd", "dctl", "testdata", name+".gcl"))
		if err != nil {
			t.Fatal(err)
		}
		systems = append(systems, system{"testdata-" + name, string(src), 5})
	}
	for seed := int64(1); seed <= 12; seed++ {
		systems = append(systems, system{fmt.Sprintf("random%d", seed), randProgram(rand.New(rand.NewSource(seed))), 1})
	}
	for _, s := range systems {
		t.Run(s.name, func(t *testing.T) {
			on := mustSystem(t, s.src)
			off := mustSystem(t, s.src)
			off.noEnumMemo = true
			got, want := proverQueries(t, on, s.sample), proverQueries(t, off, s.sample)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("memo on:\n%s\nmemo off:\n%s", got[i], want[i])
				}
			}
		})
	}
}

// randProgram generates a small well-typed GCL program: three counters and
// a boolean, three predicates, three actions with one wildcard assignment
// among them, and one fault. Counter assignments reduce modulo the domain
// size, so every assignment stays in its domain.
func randProgram(rng *rand.Rand) string {
	ints := []string{"a", "b", "c"}
	his := []int{2, 3, 2}
	intExpr := func(depth int) string {
		var gen func(d int) string
		gen = func(d int) string {
			if d == 0 || rng.Intn(3) == 0 {
				if rng.Intn(3) == 0 {
					return fmt.Sprint(rng.Intn(4))
				}
				return ints[rng.Intn(len(ints))]
			}
			op := []string{"+", "-", "*", "%"}[rng.Intn(4)]
			return "(" + gen(d-1) + " " + op + " " + gen(d-1) + ")"
		}
		return gen(depth)
	}
	var boolExpr func(d int) string
	boolExpr = func(d int) string {
		if d == 0 || rng.Intn(3) == 0 {
			switch rng.Intn(5) {
			case 0:
				if rng.Intn(2) == 0 {
					return "!f"
				}
				return "f"
			case 1:
				return ints[rng.Intn(3)] + []string{" == ", " != "}[rng.Intn(2)] + ints[rng.Intn(3)]
			default:
				op := []string{"==", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
				return intExpr(1) + " " + op + " " + intExpr(1)
			}
		}
		switch rng.Intn(4) {
		case 0:
			return "!(" + boolExpr(d-1) + ")"
		default:
			op := []string{"&", "|", "=>"}[rng.Intn(3)]
			return "(" + boolExpr(d-1) + " " + op + " " + boolExpr(d-1) + ")"
		}
	}
	assign := func(wild bool) string {
		if rng.Intn(4) == 0 {
			if wild {
				return "f := ?"
			}
			return "f := " + boolExpr(1)
		}
		i := rng.Intn(3)
		if wild {
			return ints[i] + " := ?"
		}
		return fmt.Sprintf("%s := (%s) %% %d", ints[i], intExpr(2), his[i]+1)
	}
	var b strings.Builder
	b.WriteString("program random\n")
	for i, n := range ints {
		fmt.Fprintf(&b, "var %s : 0..%d\n", n, his[i])
	}
	b.WriteString("var f : bool\n")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&b, "pred P%d :: %s\n", i, boolExpr(3))
	}
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&b, "action t%d :: %s -> %s\n", i, boolExpr(2), assign(i == 2))
	}
	fmt.Fprintf(&b, "fault hit :: %s -> %s\n", boolExpr(1), assign(true))
	return b.String()
}

// TestEnumMemoKey asserts one literal into stores that differ in exactly
// one of the inputs an enumeration reads — the classes' sets, which
// variables share a class, which classes are disequal — in one query and
// in both orders, and requires every store to end as it does when each
// enumeration runs afresh. A memo key that missed an input would replay
// one store's narrowing into another.
func TestEnumMemoKey(t *testing.T) {
	sys := mustSystem(t, "program p\nvar a : 0..2\nvar b : 0..2\nvar c : 0..2\n")
	lit := nnf(mustExpr(t, sys, "a + b == 2 + c * 0"), false)
	setups := map[string]func(s *absdom.Store){
		"free":       func(*absdom.Store) {},
		"a != b":     func(s *absdom.Store) { s.Disequate("a", "b") },
		"a == b":     func(s *absdom.Store) { s.Equate("a", "b") },
		"a in {0,1}": func(s *absdom.Store) { s.Narrow("a", absdom.FullSet(0, 1)) },
		"c != b":     func(s *absdom.Store) { s.Disequate("c", "b") },
	}
	names := make([]string, 0, len(setups))
	for n := range setups {
		names = append(names, n)
	}
	sort.Strings(names)
	run := func(order []string, memo bool) []string {
		r := newRefuter(context.Background(), sys, nil)
		sys.noEnumMemo = !memo
		defer func() { sys.noEnumMemo = false }()
		var out []string
		for _, n := range order {
			s := absdom.NewStore()
			for _, v := range sys.order {
				s.Define(v, absdom.FullSet(0, 2))
			}
			setups[n](s)
			changed := r.assertByEnum(lit, s)
			line := fmt.Sprintf("%s: changed=%v contradictory=%v", n, changed, s.Contradictory())
			for _, v := range sys.order {
				set, _ := s.SetOf(v)
				line += fmt.Sprintf(" %s=%v", v, set)
			}
			out = append(out, line)
		}
		return out
	}
	backwards := slices.Clone(names)
	slices.Reverse(backwards)
	for _, order := range [][]string{names, backwards} {
		got, want := run(order, true), run(order, false)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("order %v: memo on %q, memo off %q", order, got[i], want[i])
			}
		}
	}
}

func mustExpr(t *testing.T, sys *System, src string) gcl.Expr {
	t.Helper()
	e, err := gcl.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	in, err := sys.Inline(e)
	if err != nil {
		t.Fatal(err)
	}
	return in
}
