// Package analysis is ffslint's engine: a stdlib-only static-analysis
// framework (go/parser + go/types + go/ast, no external modules) and the
// four repo-specific analyzers that machine-check invariants the tests
// do not pin (DESIGN.md §12):
//
//   - detnow:      no wall clock or global math/rand outside vclock and
//     an explicit allowlist (determinism).
//   - poolrelease: every pooled acquisition reaches a Release or escapes
//     on all intra-function paths (the PR-3 leak bug class).
//   - maporder:    no ranging over a map directly into a deterministic
//     output (logs, exports, reports) — iterate sorted keys instead.
//   - gostop:      every goroutine spawned in the pipeline packages is
//     joinable: it must observe a stop channel, context, or WaitGroup.
//
// Frame conservation at the pipeline's queue edges is structural rather
// than linted: one forward helper makes every blocking frame put, one
// crash drain and one resolveOwners retire what a stage cannot serve,
// and tests pin each of them.
//
// The path-sensitive analyzer additionally runs *interprocedurally* when
// a Program (see BuildProgram) is attached to the pass: call sites
// consult per-function ownership summaries instead of assuming any call
// that receives a resource is a safe escape. Unresolvable callees,
// recursion, and depth-bounded chains fall back to the intra-function
// heuristics and are reported via Program.Notes (ffslint -debug).
//
// Any diagnostic can be suppressed with a reasoned annotation on the
// flagged line or the line above it:
//
//	//lint:allow <analyzer> <reason>
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Pass hands one type-checked package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed files (with comments).
	Files []*ast.File
	// PkgPath is the package's import path (e.g. ffsva/internal/queue).
	PkgPath string
	Pkg     *types.Package
	Info    *types.Info
	// Prog, when non-nil, switches poolrelease into interprocedural
	// mode: ownership summaries replace the blanket escape-via-call
	// assumption.
	Prog *Program

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant checker.
type Analyzer struct {
	Name string
	// Doc is the one-line invariant statement shown by ffslint -list.
	Doc string
	Run func(*Pass)
}

// All returns the full ffslint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		DetNow,
		PoolRelease,
		MapOrder,
		GoStop,
	}
}

// ByName resolves a comma-free analyzer name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers runs the given analyzers over the package (in the
// original intra-function mode) and returns the surviving diagnostics:
// suppressed ones are dropped, and malformed suppression annotations
// become diagnostics of their own. Results are sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunAnalyzersProgram(nil, pkg, analyzers)
}

// RunAnalyzersProgram is RunAnalyzers with an optional whole-module
// Program attached: non-nil prog switches poolrelease to
// interprocedural ownership summaries and lets maporder/gostop follow
// writes and join mechanisms through module-internal calls.
func RunAnalyzersProgram(prog *Program, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			PkgPath:  pkg.Path,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Prog:     prog,
			diags:    &raw,
		}
		a.Run(pass)
	}
	sup, bad := collectSuppressions(pkg.Fset, pkg.Files)
	diags := bad
	for _, d := range raw {
		if sup.allows(d) {
			continue
		}
		diags = append(diags, d)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}
