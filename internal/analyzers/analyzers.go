// Package analyzers is the dcvet framework: a stdlib-only (go/parser +
// go/types) multi-analyzer driver that mechanically enforces the engine's
// internal invariants — the contracts the checker machinery itself depends
// on but that ordinary tests cannot see, such as "the compiled kernel step
// path stays allocation-free" or "every build-affecting option is part of
// the graph-cache key".
//
// The framework loads the whole module once (LoadModule), type-checks every
// package against source-imported standard-library dependencies so object
// identities are shared module-wide, and hands the loaded Module to each
// registered Analyzer. Analyzers communicate with the code under analysis
// through `//dc:` directive comments:
//
//	//dc:zeroalloc          function must not allocate in the steady state
//	//dc:cachekey inputs    every field of this struct feeds the cache key
//	//dc:cachekey builder   the function that constructs the cache key
//	//dc:nokey <reason>     field deliberately excluded from the cache key
//	//dc:immutable          struct fields are write-once after build
//	//dc:mutates <Type>     file is a sanctioned builder of <Type>
//
// Individual analyzers live in subpackages (zeroalloc, cachekey, graphmut,
// exitcodes, dccodes, ignored); the registry that assembles the full suite
// is internal/analyzers/all, and the command front end is cmd/dcvet.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic at a source position.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String formats the finding in the file:line:col: [analyzer] message shape
// shared with dclint.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Package is one loaded, type-checked package of the module.
type Package struct {
	// Path is the import path ("detcorr/internal/explore") and Dir the
	// directory it was loaded from.
	Path string
	Dir  string
	// Files holds the parsed non-test files, Filenames their paths in the
	// same order.
	Files     []*ast.File
	Filenames []string
	// Types and Info are the go/types results. Info is fully populated
	// (Types, Defs, Uses, Selections, Implicits, Scopes).
	Types *types.Package
	Info  *types.Info
}

// Module is a fully loaded module: every package, one shared FileSet, and
// the module root (where go.mod and .gitignore live).
type Module struct {
	Root     string
	PathName string // module path from go.mod
	Fset     *token.FileSet
	Packages []*Package // sorted by import path
}

// Analyzer is one dcvet pass. Run receives the whole module — several
// invariants are cross-package (a field made atomic in one package must not
// be accessed plainly in another) — and returns its findings; the driver
// sorts and labels them.
type Analyzer struct {
	// Name is the flag and report label ("zeroalloc").
	Name string
	// Doc is the one-line description shown by dcvet's usage text.
	Doc string
	// Run analyzes the module.
	Run func(m *Module) []Finding
}

// Run executes the analyzers over the module and returns all findings
// sorted by file, line, column, analyzer. Each finding's Analyzer field is
// stamped with the producing analyzer's name.
func Run(m *Module, as []*Analyzer) []Finding {
	var out []Finding
	for _, a := range as {
		fs := a.Run(m)
		for i := range fs {
			fs[i].Analyzer = a.Name
		}
		out = append(out, fs...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// FindingAt builds a finding at a token position.
func (m *Module) FindingAt(pos token.Pos, format string, args ...any) Finding {
	p := m.Fset.Position(pos)
	return Finding{File: p.Filename, Line: p.Line, Col: p.Column, Message: fmt.Sprintf(format, args...)}
}

// Directive reports whether the comment group carries the given //dc:
// directive (exact name match on the first word) and returns the rest of
// the directive line as its argument string.
func Directive(doc *ast.CommentGroup, name string) (arg string, ok bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text, found := strings.CutPrefix(c.Text, "//dc:")
		if !found {
			continue
		}
		word, rest, _ := strings.Cut(text, " ")
		if word == name {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// FileDirective is one file-scoped //dc: directive occurrence.
type FileDirective struct {
	Arg string
	Pos token.Pos
}

// FileDirectives returns every //dc:<name> directive in any comment of the
// file (file-scoped directives such as //dc:mutates), with positions.
func FileDirectives(f *ast.File, name string) []FileDirective {
	var ds []FileDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, found := strings.CutPrefix(c.Text, "//dc:")
			if !found {
				continue
			}
			word, rest, _ := strings.Cut(text, " ")
			if word == name {
				ds = append(ds, FileDirective{Arg: strings.TrimSpace(rest), Pos: c.Pos()})
			}
		}
	}
	return ds
}
