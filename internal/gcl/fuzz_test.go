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

	"detcorr/internal/gcl"
	"detcorr/internal/lint"
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
// validation subsumes the linter's hard errors); and the AST-level analyzer
// runs cleanly on every parseable input.
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
	})
}
