// Package dccodes is a repo-specific vet pass: every exported Code*
// constant holding a DC diagnostic code must be documented in its
// package's doc header, and every DC code the doc header names must be
// backed by a constant. The DC-code tables in internal/lint and
// internal/prove are the user-facing contract (`dctl lint`/`dctl prove`
// print the codes, lint:ignore directives name them), so an undocumented
// or stale code is a real interface bug, not a style nit.
//
// The pass has two front ends over one core. CheckDir is the
// explicit-directory entry point; it checks both directions
// unconditionally, since naming a directory is an assertion that the
// package participates in the DC-code contract. Analyzer adapts
// the pass to the dcvet driver for whole-module sweeps; there the check is
// scoped to packages declaring at least one Code* constant, because other
// packages (cmd/dctl's command doc, for one) legitimately mention DC codes
// they do not declare.
//
// The pass is built on the standard library's go/ast only, so it runs in
// hermetic environments without golang.org/x/tools.
package dccodes

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"detcorr/internal/analyzers"
)

// Finding is one violation, formatted as file:line: message.
type Finding struct {
	Pos     string
	Message string
}

func (f Finding) String() string { return f.Pos + ": " + f.Message }

var codeRE = regexp.MustCompile(`^DC[0-9]{3}$`)
var docCodeRE = regexp.MustCompile(`\bDC[0-9]{3}\b`)

// Analyzer returns the dcvet adaptation of the pass. It skips packages
// with no Code* constants: in a module-wide sweep, mentioning a DC code is
// not the same as owning one.
func Analyzer() *analyzers.Analyzer {
	return &analyzers.Analyzer{
		Name: "dccodes",
		Doc:  "exported Code* constants and package-doc DC-code tables must agree",
		Run: func(m *analyzers.Module) []analyzers.Finding {
			var out []analyzers.Finding
			for _, pkg := range m.Packages {
				raws, declared := checkFiles(m.Fset, pkg.Types.Name(), pkg.Files)
				if declared == 0 {
					continue
				}
				for _, r := range raws {
					out = append(out, m.FindingAt(r.pos, "%s", r.msg))
				}
			}
			return out
		},
	}
}

// CheckDir analyzes the non-test Go package in dir and returns its
// violations sorted by position.
func CheckDir(dir string) ([]Finding, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pkg := range pkgs {
		var fileNames []string
		for name := range pkg.Files {
			fileNames = append(fileNames, name)
		}
		sort.Strings(fileNames)
		var files []*ast.File
		for _, name := range fileNames {
			files = append(files, pkg.Files[name])
		}
		raws, _ := checkFiles(fset, pkg.Name, files)
		for _, r := range raws {
			findings = append(findings, Finding{
				Pos:     fset.Position(r.pos).String(),
				Message: r.msg,
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].Pos < findings[j].Pos })
	return findings, nil
}

// rawFinding is one violation before position formatting.
type rawFinding struct {
	pos token.Pos
	msg string
}

// checkFiles runs both directions of the code/doc agreement check over one
// parsed package and reports how many distinct Code* constants it
// declares; module-wide callers use the count to scope the pass.
func checkFiles(fset *token.FileSet, pkgName string, files []*ast.File) ([]rawFinding, int) {
	var findings []rawFinding

	// The package doc header: the doc comment of every file's package
	// clause (conventionally exactly one file carries it).
	var doc strings.Builder
	var docPos token.Pos
	for _, f := range files {
		if f.Doc != nil {
			doc.WriteString(f.Doc.Text())
			doc.WriteString("\n")
			if docPos == token.NoPos {
				docPos = f.Doc.Pos()
			}
		}
	}
	docText := doc.String()

	// Every exported Code* string constant with a DCnnn value.
	declared := map[string]token.Pos{}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			decl, ok := n.(*ast.GenDecl)
			if !ok || decl.Tok != token.CONST {
				return true
			}
			for _, spec := range decl.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					if !id.IsExported() || !strings.HasPrefix(id.Name, "Code") || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					val, err := strconv.Unquote(lit.Value)
					if err != nil || !codeRE.MatchString(val) {
						continue
					}
					if prev, dup := declared[val]; dup {
						findings = append(findings, rawFinding{
							pos: id.Pos(),
							msg: fmt.Sprintf("diagnostic code %s already declared at %s",
								val, fset.Position(prev)),
						})
						continue
					}
					declared[val] = id.Pos()
					if !strings.Contains(docText, val) {
						findings = append(findings, rawFinding{
							pos: id.Pos(),
							msg: fmt.Sprintf("constant %s = %q is not documented in the package doc header of %s",
								id.Name, val, pkgName),
						})
					}
				}
			}
			return true
		})
	}

	// The reverse direction: a DC code in the doc header with no backing
	// constant is a stale table entry.
	seen := map[string]bool{}
	for _, code := range docCodeRE.FindAllString(docText, -1) {
		if seen[code] {
			continue
		}
		seen[code] = true
		if _, ok := declared[code]; !ok {
			findings = append(findings, rawFinding{
				pos: docPos,
				msg: fmt.Sprintf("package doc of %s documents %s but no exported Code* constant declares it",
					pkgName, code),
			})
		}
	}
	return findings, len(declared)
}
