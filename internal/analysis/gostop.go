package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// goStopScope lists the module-relative package paths (and their
// subpackages) where every goroutine must be joinable. These are the
// long-running pipeline packages whose goroutine leaks outlive shutdown;
// cmd/ mains and leaf utility packages are out of scope.
var goStopScope = []string{
	"internal/pipeline",
	"internal/cluster",
	"internal/queue",
	"internal/obs",
	"internal/spill",
	"internal/faults",
	"internal/timeline",
	"internal/analysis/testdata/src/gostop", // golden fixture package
}

func inGoStopScope(pkgPath string) bool {
	for _, s := range goStopScope {
		if pathIs(pkgPath, s) || strings.Contains(pkgPath, "/"+s+"/") {
			return true
		}
	}
	return false
}

// GoStop flags `go` statements in the pipeline packages whose goroutine
// is not joinable: its body (including, with a Program attached, the
// bodies of module functions it calls, bounded and memoized in
// Program.joinables) never observes a stop signal — no channel receive,
// no range over a channel, no select, no context Done, no
// sync.WaitGroup.Done. Such a goroutine cannot be waited for: shutdown
// returns while it still runs, the PR-8 goroutine-leak bug class.
//
// Named callees without an analyzable body and function-value spawns
// cannot be proven either way; those fall back silently (recorded in
// Program.Notes for -debug) rather than guessing.
var GoStop = &Analyzer{
	Name: "gostop",
	Doc:  "every goroutine in the pipeline packages is joinable (observes a stop channel, select, context.Done, or WaitGroup.Done)",
	Run: func(pass *Pass) {
		if !inGoStopScope(pass.PkgPath) {
			return
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
					if !joinableBody(pass.Info, lit.Body, pass.Prog, 0) {
						reportUnjoinable(pass, gs)
					}
					return true
				}
				fn := calleeFunc(pass.Info, gs.Call)
				if fn == nil {
					if pass.Prog != nil {
						pass.Prog.note(pass.Fset, gs.Pos(), "go statement spawns an unresolved callee (function value); cannot prove the goroutine joinable")
					}
					return true
				}
				if pass.Prog == nil {
					// Named callees need the whole-module view; intra mode
					// checks only func-literal spawns.
					return true
				}
				if pass.Prog.declOf(fn) == nil {
					pass.Prog.note(pass.Fset, gs.Pos(), "no analyzable body for %s; cannot prove the goroutine joinable", fn.Name())
					return true
				}
				if !pass.Prog.fnJoinable(fn, 0) {
					reportUnjoinable(pass, gs)
				}
				return true
			})
		}
	},
}

func reportUnjoinable(pass *Pass, gs *ast.GoStmt) {
	pass.Reportf(gs.Pos(),
		"goroutine is not joinable: its body never observes a stop channel, select, context.Done, or WaitGroup.Done, so shutdown cannot wait for it")
}

// joinableBody reports whether a goroutine body reaches any join/stop
// mechanism: a channel receive, a range over a channel, a select, a
// context Done call, or a sync.WaitGroup Done call — directly or (with
// prog) through module-internal calls up to maxSummaryDepth.
func joinableBody(info *types.Info, body ast.Node, prog *Program, depth int) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.SelectStmt:
			found = true
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil {
				break
			}
			if isWaitGroupDone(fn) || isContextDone(fn) {
				found = true
				break
			}
			if prog != nil && depth < maxSummaryDepth && prog.fnJoinable(fn, depth+1) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isWaitGroupDone reports whether fn is (*sync.WaitGroup).Done.
func isWaitGroupDone(fn *types.Func) bool {
	if fn.Name() != "Done" {
		return false
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	return named != nil && named.Obj().Name() == "WaitGroup" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}

// isContextDone reports whether fn is context.Context.Done (any Done
// method declared in package context).
func isContextDone(fn *types.Func) bool {
	return fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context"
}

// fnJoinable memoizes "does this function's body reach a join/stop
// mechanism" for gostop. Recursion conservatively answers no (flagging,
// never hiding, a leak).
func (p *Program) fnJoinable(fn *types.Func, depth int) bool {
	fn = fn.Origin()
	if v, ok := p.joinables[fn]; ok && v != 0 {
		return v == 1
	}
	di := p.declOf(fn)
	if di == nil {
		return false
	}
	p.joinables[fn] = -1 // breaks recursion; overwritten below
	res := joinableBody(di.pkg.Info, di.decl.Body, p, depth)
	if res {
		p.joinables[fn] = 1
	}
	return res
}

// fnWrites memoizes "does this function's body reach an ordered-output
// sink" for maporder. Recursion conservatively answers no.
func (p *Program) fnWrites(fn *types.Func, depth int) bool {
	fn = fn.Origin()
	if v, ok := p.writers[fn]; ok && v != 0 {
		return v == 1
	}
	di := p.declOf(fn)
	if di == nil {
		return false
	}
	p.writers[fn] = -1 // breaks recursion; overwritten below
	res := orderedSinkIn(di.pkg.Info, di.decl.Body, p, depth) != ""
	if res {
		p.writers[fn] = 1
	}
	return res
}
