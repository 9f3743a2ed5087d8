package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Program is the whole-module view the interprocedural mode analyzes
// over: every loaded package plus an index from each function object to
// its declaration. poolrelease consults it for ownership
// summaries (summary.go) instead of assuming any call that receives a
// resource is a safe escape; maporder and gostop consult it to follow
// writes and join mechanisms through module-internal calls.
//
// Analyses that fall back to the conservative intra-function behaviour —
// unresolved callees (function values, interface dispatch), recursion,
// or the depth bound — record a note, so the blind spots are reportable
// with -debug rather than silent.
type Program struct {
	pkgs  []*Package
	decls map[*types.Func]*declInfo

	// summaries are memoized per rule set (frame-family vs span rules).
	sums map[*prRules]map[*types.Func]*FuncSummary
	// inProgress marks functions currently being summarized, so
	// recursion degrades to the conservative fallback instead of looping.
	inProgress map[*types.Func]bool

	// writers memoizes "does this function write to an ordered output"
	// for maporder; joinables memoizes "does this function body reach a
	// join/stop mechanism" for gostop. 0 unknown, 1 yes, -1 no.
	writers   map[*types.Func]int8
	joinables map[*types.Func]int8

	notes    []FallbackNote
	noteSeen map[string]bool
}

// declInfo locates one function declaration inside its package.
type declInfo struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// FallbackNote records one place the interprocedural analysis had to
// fall back to the conservative intra-function assumption.
type FallbackNote struct {
	Pos token.Position
	Msg string
}

func (n FallbackNote) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", n.Pos.Filename, n.Pos.Line, n.Pos.Column, n.Msg)
}

// maxSummaryDepth bounds the call-graph descent while computing one
// summary. Chains deeper than this are rare and almost always mean
// mutual recursion; past the bound the callee is treated as unknown
// (conservative) and a note records the cutoff.
const maxSummaryDepth = 10

// BuildProgram indexes the loaded packages for interprocedural analysis.
// Pass every package the loader has seen (Loader.All), not just the ones
// being linted: summaries routinely cross package boundaries.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		pkgs:       pkgs,
		decls:      map[*types.Func]*declInfo{},
		sums:       map[*prRules]map[*types.Func]*FuncSummary{},
		inProgress: map[*types.Func]bool{},
		writers:    map[*types.Func]int8{},
		joinables:  map[*types.Func]int8{},
		noteSeen:   map[string]bool{},
	}
	for _, pkg := range pkgs {
		if pkg == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				p.decls[fn.Origin()] = &declInfo{pkg: pkg, decl: fd}
			}
		}
	}
	return p
}

// declOf resolves a function object (generic instantiations normalized
// through Origin) to its declaration, or nil for functions with no body
// in the loaded program — stdlib, interface methods, assembly.
func (p *Program) declOf(fn *types.Func) *declInfo {
	if fn == nil {
		return nil
	}
	return p.decls[fn.Origin()]
}

// note records one conservative-fallback site, deduplicated.
func (p *Program) note(fset *token.FileSet, pos token.Pos, format string, args ...any) {
	position := fset.Position(pos)
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%s:%d:%d:%s", position.Filename, position.Line, position.Column, msg)
	if p.noteSeen[key] {
		return
	}
	p.noteSeen[key] = true
	p.notes = append(p.notes, FallbackNote{Pos: position, Msg: msg})
}

// Notes returns the fallback notes recorded so far, sorted by position.
func (p *Program) Notes() []FallbackNote {
	out := append([]FallbackNote(nil), p.notes...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Msg < out[j].Msg
	})
	return out
}
