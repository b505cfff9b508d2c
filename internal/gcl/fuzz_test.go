package gcl_test

// Native Go fuzz targets for the GCL front end. FuzzParse asserts the
// lexer/parser never panic and report failures only as *gcl.SyntaxError;
// FuzzCompile asserts that any file the compiler accepts also passes the
// semantic checks the linter enforces at the program level (compile-then-lint
// agreement). Both are seeded from the checked-in example corpus under
// cmd/dctl/testdata and internal/lint/testdata.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"detcorr/internal/fault"
	"detcorr/internal/gcl"
	"detcorr/internal/guarded"
	"detcorr/internal/lint"
	"detcorr/internal/state"
)

// addCorpus seeds the fuzzer with every .gcl file in the repo's testdata
// trees, so the fuzzer mutates realistic programs rather than raw noise.
func addCorpus(f *testing.F) {
	for _, dir := range []string{
		filepath.Join("..", "..", "cmd", "dctl", "testdata"),
		filepath.Join("..", "lint", "testdata"),
	} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.gcl"))
		if err != nil {
			f.Fatal(err)
		}
		if len(paths) == 0 {
			f.Fatalf("no corpus files in %s", dir)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	// Hand-picked adversarial seeds: deep nesting (the recursion-depth
	// bound), oversized literals (the lexer overflow bound), and '?'.
	f.Add("program p\nvar x : bool\npred q :: ((((!!!!x))))\n")
	f.Add("program p\nvar x : 0..99999999999999999999\n")
	f.Add("program p\nvar x : 0..3\naction a :: true -> x := ?\n")
	f.Add("program p\npred y :: y\n") // self-referential predicate
}

// FuzzParse feeds arbitrary bytes to the parser. The only acceptable
// outcomes are a well-formed AST or a *gcl.SyntaxError; any panic (stack
// exhaustion included) or untyped error is a bug.
func FuzzParse(f *testing.F) {
	addCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		ast, err := gcl.Parse(src)
		if err != nil {
			var se *gcl.SyntaxError
			if !errors.As(err, &se) {
				t.Fatalf("Parse returned a non-SyntaxError: %v", err)
			}
			return
		}
		if ast == nil {
			t.Fatal("Parse returned nil AST with nil error")
		}
	})
}

// fuzzSpaceBudget caps the declared state space a fuzz input may compile:
// Compile bounds-checks each action over the domains of the variables it
// reads, so an input like `var x : 0..999999999` with an action reading x
// would turn one fuzz iteration into a multi-minute sweep. Inputs over
// budget are skipped, not failed — the size is the fuzzer's choice, not a
// front-end bug.
const fuzzSpaceBudget = 1 << 16

func withinSpaceBudget(ast *gcl.FileAST) bool {
	product := 1
	for _, v := range ast.Vars {
		size := 0
		switch v.Type.Kind {
		case gcl.TypeBool:
			size = 2
		case gcl.TypeRange:
			size = v.Type.Hi - v.Type.Lo + 1
		case gcl.TypeEnum:
			size = len(v.Type.Names)
		}
		if size <= 0 || size > fuzzSpaceBudget {
			return false
		}
		product *= size
		if product > fuzzSpaceBudget {
			return false
		}
	}
	return true
}

// FuzzCompile parses, compiles, and lints arbitrary input. Invariants: the
// whole pipeline never panics; whatever Compile accepts yields a program
// lint.Check finds no Error-severity fault in (the compiler's own
// validation subsumes the linter's hard errors); the AST-level analyzer
// runs cleanly on every parseable input; and the kernel's three forms and
// the predicates' two forms agree state by state (checkForms).
func FuzzCompile(f *testing.F) {
	addCorpus(f)
	f.Fuzz(func(t *testing.T, src string) {
		ast, err := gcl.Parse(src)
		if err != nil {
			return
		}
		// Analyze works on the AST alone, so it must tolerate every
		// parseable input, compilable or not.
		lint.Analyze("fuzz.gcl", ast, src)
		if !withinSpaceBudget(ast) {
			return
		}
		file, err := gcl.Compile(ast)
		if err != nil {
			return
		}
		if file.Program == nil || file.Schema == nil {
			t.Fatal("Compile returned nil program/schema with nil error")
		}
		for _, d := range lint.Check(file.Program) {
			if d.Severity == lint.Error {
				t.Fatalf("compiled program fails lint.Check: %s", d.Message)
			}
		}
		checkForms(t, file)
	})
}

// checkForms asserts, for every state of a compiled file's space, that the
// tabulated kernel, the bytecode-only kernel and Program.Successors (the
// closures) emit the same transitions in the same order, on the program and
// on its fault composition when it composes (a fault may share an action's
// name), that every guard, assignment and predicate computes the same value
// linked and raw, and that every declared predicate's bytecode agrees with
// its closure.
func checkForms(t *testing.T, file *gcl.File) {
	t.Helper()
	progs := []*guarded.Program{file.Program}
	if !file.Faults.Empty() {
		if comp, _, err := fault.Compose(file.Program, file.Faults); err == nil {
			progs = append(progs, comp)
		}
	}
	var tabBuf, byteBuf []guarded.Succ
	for _, p := range progs {
		tab := guarded.Compile(p).NewScratch()
		byteSc := guarded.CompileBytecode(p).NewScratch()
		err := p.Schema().ForEachState(func(s state.State) bool {
			idx := s.Index()
			tabBuf = tab.Transitions(idx, tabBuf[:0])
			byteBuf = byteSc.Transitions(idx, byteBuf[:0])
			want := p.Successors(s)
			if len(tabBuf) != len(want) || len(byteBuf) != len(want) {
				t.Fatalf("%s: state %s: tabulated %d, bytecode %d, closures %d transitions",
					p.Name(), s, len(tabBuf), len(byteBuf), len(want))
			}
			for i, tr := range want {
				for form, got := range map[string]guarded.Succ{"tabulated": tabBuf[i], "bytecode": byteBuf[i]} {
					if int(got.Action) != tr.Action || got.To != tr.To.Index() {
						t.Fatalf("%s: state %s: transition %d: %s (%d,%d), closures (%d,%d)",
							p.Name(), s, i, form, got.Action, got.To, tr.Action, tr.To.Index())
					}
				}
			}
			return true
		})
		if err != nil {
			t.Fatalf("%s: enumerate: %v", p.Name(), err)
		}
	}
	row := make([]int32, file.Schema.NumVars())
	// Each guard, assignment and predicate runs linked (see guarded.Link)
	// in the kernel and in Row; it must agree with its raw bytecode.
	linked := func(what string, raw []guarded.Op) {
		if raw == nil {
			return
		}
		ops := guarded.Link(raw)
		err := file.Schema.ForEachState(func(s state.State) bool {
			for i := range row {
				row[i] = int32(s.Get(i))
			}
			if got, want := guarded.Eval(ops, row), guarded.Eval(raw, row); got != want {
				t.Fatalf("%s at %s: linked %d, raw %d", what, s, got, want)
			}
			return true
		})
		if err != nil {
			t.Fatalf("%s: enumerate: %v", what, err)
		}
	}
	for _, p := range progs {
		for a := 0; a < p.NumActions(); a++ {
			act := p.Action(a)
			if act.Compiled == nil {
				continue
			}
			linked(act.Name+" guard", act.Compiled.Guard)
			for _, as := range act.Compiled.Assigns {
				linked(act.Name+" assignment", as.Expr)
			}
		}
	}
	for name, raw := range gcl.PredOps(file) {
		linked("predicate "+name, raw)
	}
	for name, pred := range file.Preds {
		if pred.Row == nil {
			continue
		}
		err := file.Schema.ForEachState(func(s state.State) bool {
			for i := range row {
				row[i] = int32(s.Get(i))
			}
			if got, want := pred.Row(row), pred.Holds(s); got != want {
				t.Fatalf("predicate %s at %s: bytecode %v, closure %v", name, s, got, want)
			}
			return true
		})
		if err != nil {
			t.Fatalf("predicate %s: enumerate: %v", name, err)
		}
	}
}
