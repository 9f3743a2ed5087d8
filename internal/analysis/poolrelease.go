package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// PoolRelease checks that every pooled acquisition — nn.GetTensor /
// GetTensorDirty, imgproc.GetGray, frame.NewPooled — reaches a Release
// (or a finish/forwarding sink) on every intra-function path, or escapes
// the function via return, channel send, queue put, or capture. A pooled
// buffer abandoned on any path is the PR-3 leak bug class: the pool
// refills from the heap and the steady state silently stops being
// allocation-free.
//
// The analysis is a forward dataflow over the structured AST: branch
// states are merged with "still live in any branch ⇒ still live", so a
// release on only one arm of an if is not enough. Aliasing, captures and
// container stores conservatively end tracking (treated as escapes).
// The walker is parameterized by its rule set so the interprocedural
// summaries can run it with acquisitions switched off.
var PoolRelease = &Analyzer{
	Name: "poolrelease",
	Doc:  "every pooled acquisition (nn.GetTensor, imgproc.GetGray, frame.NewPooled, trace.StartFrame) is released or escapes on all paths",
	Run: func(pass *Pass) {
		runPathCheck(pass, poolReleaseRules)
	},
}

// prRules parameterizes the live-value dataflow walker: what starts
// tracking a value, which method calls retire it, and which parameter
// types the interprocedural summaries follow.
type prRules struct {
	// acquire classifies a call as a tracked acquisition, returning a
	// display name ("" otherwise).
	acquire func(info *types.Info, call *ast.CallExpr) string
	// retire names the argument-free methods that end tracking on their
	// receiver.
	retire map[string]bool
	// tracked reports whether a parameter of type t is followed by the
	// interprocedural ownership summaries under this rule set.
	tracked func(t types.Type) bool

	// summaryVariant caches the acquisition-free copy used while
	// computing summaries (the summary walk seeds parameters, not
	// acquisition calls, so local acquisitions inside the callee stay
	// the per-function lint's business).
	summaryVariant *prRules
}

// borrowForSummary returns the rule set with acquisitions disabled, for
// the summary walk. The pointer identity of the parent rules is kept as
// the memoization key, so summaries computed during a summary walk land
// in the same table.
func (r *prRules) borrowForSummary() *prRules {
	if r.summaryVariant != nil {
		return r.summaryVariant
	}
	v := *r
	v.acquire = func(*types.Info, *ast.CallExpr) string { return "" }
	v.summaryVariant = &v
	r.summaryVariant = &v
	return &v
}

var poolReleaseRules = &prRules{
	acquire: acquisitionName,
	retire:  map[string]bool{"Release": true},
	tracked: isPooledType,
}

// isPooledType reports whether t is one of the pooled resource types the
// frame-family summaries follow across calls: *frame.Frame, *nn.Tensor,
// *imgproc.Gray, *trace.FrameTrace.
func isPooledType(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Name() {
	case "Frame":
		return pathIs(obj.Pkg().Path(), "internal/frame")
	case "Tensor":
		return pathIs(obj.Pkg().Path(), "internal/nn")
	case "Gray":
		return pathIs(obj.Pkg().Path(), "internal/imgproc")
	case "FrameTrace":
		return pathIs(obj.Pkg().Path(), "internal/trace")
	}
	return false
}

// prAcq records where a live pooled value was acquired.
type prAcq struct {
	pos  token.Pos
	what string
	name string
}

// prLive is the per-path set of still-unreleased acquisitions.
type prLive map[types.Object]prAcq

func (st prLive) clone() prLive {
	c := make(prLive, len(st))
	for k, v := range st {
		c[k] = v
	}
	return c
}

type prWalker struct {
	pass     *Pass
	rules    *prRules
	reported map[types.Object]bool
	bare     map[*ast.CallExpr]bool // acquisition calls consumed by tracking/escape

	// prog enables interprocedural mode: call sites consult ownership
	// summaries instead of relying solely on the name heuristics. nil
	// keeps the original intra-function behaviour.
	prog  *Program
	depth int
	// collect switches the walker into summary-computation mode: instead
	// of reporting diagnostics, retire/escape/abandon events on the
	// seeded objects are recorded into these flags.
	collect map[types.Object]*outFlags
	// inReturn is set while walking the results of a return statement,
	// so escapes there classify as "returned" rather than "consumed".
	inReturn bool
}

// dropKind classifies why a tracked value stopped being live.
type dropKind uint8

const (
	dropConsumed dropKind = iota // retired, forwarded, stored, captured
	dropReturned                 // flowed out through a return statement
)

// drop ends tracking of obj on this path and, in summary mode, records
// what happened to it.
func (w *prWalker) drop(st prLive, obj types.Object, kind dropKind) {
	if obj == nil {
		return
	}
	if _, live := st[obj]; !live {
		return
	}
	delete(st, obj)
	if w.collect == nil {
		return
	}
	if f, ok := w.collect[obj]; ok {
		if kind == dropReturned {
			f.returned = true
		} else {
			f.consumed = true
		}
	}
}

// runPathCheck runs the shared all-paths dataflow with one rule set.
func runPathCheck(pass *Pass, rules *prRules) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			w := &prWalker{pass: pass, rules: rules, prog: pass.Prog, reported: map[types.Object]bool{}, bare: map[*ast.CallExpr]bool{}}
			st := prLive{}
			if !w.walkStmts(body.List, st) {
				w.leakAll(st, "function return")
			}
			return true
		})
	}
}

// acquisitionName classifies a call as a pooled acquisition, returning
// its display name ("" otherwise).
func acquisitionName(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch {
	case pathIs(fn.Pkg().Path(), "internal/nn") && (fn.Name() == "GetTensor" || fn.Name() == "GetTensorDirty"):
		return "nn." + fn.Name()
	case pathIs(fn.Pkg().Path(), "internal/imgproc") && fn.Name() == "GetGray":
		return "imgproc.GetGray"
	case pathIs(fn.Pkg().Path(), "internal/frame") && fn.Name() == "NewPooled":
		return "frame.NewPooled"
	case pathIs(fn.Pkg().Path(), "internal/trace") && fn.Name() == "StartFrame":
		// FrameTrace records are pool-recycled by the tracer; a record
		// that never reaches Finish (or a frame's Trace field) leaks.
		return "trace.StartFrame"
	}
	return ""
}

// leak reports an acquisition that some path abandons. In summary mode
// it records the abandonment instead of reporting it: a parameter left
// live at a path's end means the callee merely borrowed it.
func (w *prWalker) leak(obj types.Object, a prAcq, where string) {
	if w.collect != nil {
		if obj != nil {
			if f, ok := w.collect[obj]; ok {
				f.abandoned = true
			}
		}
		return
	}
	if obj != nil {
		if w.reported[obj] {
			return
		}
		w.reported[obj] = true
	}
	w.pass.Reportf(a.pos,
		"pooled %s %q is not released on every path (leaks at %s); Release it, forward it, or lint:allow",
		a.what, a.name, where)
}

func (w *prWalker) leakAll(st prLive, where string) {
	for obj, a := range st {
		w.leak(obj, a, where)
	}
}

// walkStmts runs the dataflow over one statement list. It returns true
// when every path through the list terminates (return/branch/panic), so
// callers know not to merge its end state.
func (w *prWalker) walkStmts(stmts []ast.Stmt, st prLive) bool {
	for _, s := range stmts {
		if w.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (w *prWalker) walkStmt(s ast.Stmt, st prLive) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.walkAssign(s, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Names) == 1 && len(vs.Values) == 1 {
					w.trackOrScan(vs.Names[0], vs.Values[0], st)
					continue
				}
				for _, v := range vs.Values {
					w.walkExpr(v, true, st)
				}
			}
		}
	case *ast.ExprStmt:
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		if ok {
			if name := w.rules.acquire(w.pass.Info, call); name != "" && !w.bare[call] {
				// Result dropped on the floor: leaked immediately.
				w.leak(nil, prAcq{pos: call.Pos(), what: name, name: "(discarded)"}, "this statement")
				return false
			}
			if w.isTerminalCall(call) {
				return true
			}
		}
		w.walkExpr(s.X, false, st)
	case *ast.DeferStmt:
		// defer v.Release() (directly or inside a closure) covers every
		// path from here on.
		if w.releasesInDefer(s.Call, st) {
			return false
		}
		w.walkExpr(s.Call, false, st)
	case *ast.ReturnStmt:
		w.inReturn = true
		for _, res := range s.Results {
			w.walkExpr(res, true, st)
		}
		w.inReturn = false
		if len(st) > 0 {
			w.leakAll(st, w.posString(s.Pos()))
		}
		return true
	case *ast.SendStmt:
		w.walkExpr(s.Value, true, st)
		w.walkExpr(s.Chan, false, st)
	case *ast.IncDecStmt:
		w.walkExpr(s.X, false, st)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.walkExpr(s.Cond, false, st)
		thenSt := st.clone()
		tThen := w.walkStmts(s.Body.List, thenSt)
		elseSt := st.clone()
		tElse := false
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				tElse = w.walkStmts(e.List, elseSt)
			default:
				tElse = w.walkStmt(e, elseSt)
			}
		}
		merge(st, branch{thenSt, tThen}, branch{elseSt, tElse})
		return tThen && tElse
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.walkExpr(s.Cond, false, st)
		}
		bodySt := st.clone()
		t := w.walkStmts(s.Body.List, bodySt)
		if s.Post != nil {
			w.walkStmt(s.Post, bodySt)
		}
		// Zero iterations are always possible for for-with-cond; merge the
		// skip path in. (An infinite `for {}` only exits via return/break,
		// both handled inside the body walk.)
		merge(st, branch{bodySt, t}, branch{st.clone(), false})
	case *ast.RangeStmt:
		w.walkExpr(s.X, false, st)
		bodySt := st.clone()
		t := w.walkStmts(s.Body.List, bodySt)
		merge(st, branch{bodySt, t}, branch{st.clone(), false})
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.walkClauses(s, st)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.GoStmt:
		w.walkExpr(s.Call, true, st)
	case *ast.BranchStmt:
		// break/continue/goto leave this list; the target path re-joins
		// below a merge point, so treat as terminated (conservative: may
		// miss a leak, never invents one).
		return true
	}
	return false
}

// walkAssign handles acquisitions, reassignment leaks and aliasing.
func (w *prWalker) walkAssign(s *ast.AssignStmt, st prLive) {
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if id, ok := s.Lhs[0].(*ast.Ident); ok {
			w.trackOrScan(id, s.Rhs[0], st)
			return
		}
	}
	for _, rhs := range s.Rhs {
		w.walkExpr(rhs, true, st)
	}
	for _, lhs := range s.Lhs {
		if _, ok := lhs.(*ast.Ident); !ok {
			w.walkExpr(lhs, false, st)
		}
	}
}

// trackOrScan handles `id := <rhs>` / `id = <rhs>`: a direct acquisition
// starts tracking id; anything else is scanned for escapes, and
// overwriting a still-live id is a leak.
func (w *prWalker) trackOrScan(id *ast.Ident, rhs ast.Expr, st prLive) {
	obj := w.pass.Info.Defs[id]
	if obj == nil {
		obj = w.pass.Info.Uses[id]
	}
	call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
	if isCall {
		if name := w.rules.acquire(w.pass.Info, call); name != "" {
			w.bare[call] = true
			if id.Name == "_" {
				w.leak(nil, prAcq{pos: call.Pos(), what: name, name: "_"}, "this statement")
				return
			}
			if obj != nil {
				if old, live := st[obj]; live {
					w.leak(obj, old, "reassignment at "+w.posString(id.Pos()))
					delete(st, obj)
					w.reported[obj] = false // allow tracking the new value
				}
				st[obj] = prAcq{pos: call.Pos(), what: name, name: id.Name}
			}
			return
		}
	}
	w.walkExpr(rhs, true, st)
	if obj != nil {
		var src types.Object
		if isCall {
			src = w.returnedThrough(call, st)
		}
		if src == obj {
			// `t = clamp(t)`: the summary proves the callee returns its
			// parameter, so the same live value flows back into t — not an
			// overwrite, not a new acquisition.
			return
		}
		if old, live := st[obj]; live {
			// Overwritten while live: the pooled value is unreachable now.
			w.leak(obj, old, "overwrite at "+w.posString(id.Pos()))
			delete(st, obj)
		}
		if src != nil {
			// `x := clamp(f)`: ownership follows the result; tracking (and,
			// in summary mode, the outcome flags) transfers from f to x.
			st[obj] = st[src]
			delete(st, src)
			if w.collect != nil {
				if f, ok := w.collect[src]; ok {
					w.collect[obj] = f
				}
			}
		}
	}
}

// returnedThrough resolves the single live tracked argument that the
// callee's ownership summary proves flows back out through its results.
// Returns nil when the callee is unresolved, unsummarized, no live
// tracked argument is returned, or more than one is (ambiguous).
func (w *prWalker) returnedThrough(call *ast.CallExpr, st prLive) types.Object {
	if w.prog == nil {
		return nil
	}
	fn := calleeFunc(w.pass.Info, call)
	if fn == nil {
		return nil
	}
	sum := w.prog.summaryFor(w.rules, fn, w.depth+1)
	if sum == nil {
		return nil
	}
	var src types.Object
	for i, a := range call.Args {
		ps, ok := sum.paramAt(i)
		if !ok || !ps.Tracked || ps.Outcome != OutReturned {
			continue
		}
		aid, ok := ast.Unparen(a).(*ast.Ident)
		if !ok {
			continue
		}
		aobj := w.pass.Info.Uses[aid]
		if aobj == nil {
			continue
		}
		if _, live := st[aobj]; !live {
			continue
		}
		if src != nil {
			return nil
		}
		src = aobj
	}
	return src
}

// releasesInDefer reports whether a defer releases tracked values, and
// marks them done.
func (w *prWalker) releasesInDefer(call *ast.CallExpr, st prLive) bool {
	released := false
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && w.rules.retire[sel.Sel.Name] {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if obj := w.pass.Info.Uses[id]; obj != nil {
				if _, live := st[obj]; live {
					w.drop(st, obj, dropConsumed)
					released = true
				}
			}
		}
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		for obj := range st {
			if usesObject(w.pass.Info, lit.Body, obj) {
				w.drop(st, obj, dropConsumed) // cleanup closure owns it now
				released = true
			}
		}
	}
	return released
}

// isTerminalCall recognizes calls that end the path (panic, os.Exit,
// testing fatals): a leak on a dying path is not worth a diagnostic.
func (w *prWalker) isTerminalCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Exit", "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Skip", "Skipf":
			return true
		}
	}
	return false
}

// walkExpr scans an expression for state changes on tracked values.
// escaping marks positions whose value flows out of the function's
// control (assignment/return/send roots, composite literals, address-of,
// append): a tracked value used there stops being tracked. Sink calls
// (Release, finish, queue puts) retire tracked arguments anywhere.
func (w *prWalker) walkExpr(e ast.Expr, escaping bool, st prLive) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		if !escaping {
			return
		}
		if obj := w.pass.Info.Uses[e]; obj != nil {
			kind := dropConsumed
			if w.inReturn {
				kind = dropReturned
			}
			w.drop(st, obj, kind)
		}
	case *ast.ParenExpr:
		w.walkExpr(e.X, escaping, st)
	case *ast.CallExpr:
		w.walkCall(e, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.walkExpr(el, true, st)
		}
	case *ast.KeyValueExpr:
		w.walkExpr(e.Value, true, st)
	case *ast.UnaryExpr:
		w.walkExpr(e.X, escaping || e.Op == token.AND, st)
	case *ast.StarExpr:
		w.walkExpr(e.X, escaping, st)
	case *ast.BinaryExpr:
		w.walkExpr(e.X, false, st)
		w.walkExpr(e.Y, false, st)
	case *ast.SelectorExpr:
		w.walkExpr(e.X, false, st)
	case *ast.IndexExpr:
		w.walkExpr(e.X, false, st)
		w.walkExpr(e.Index, false, st)
	case *ast.IndexListExpr:
		w.walkExpr(e.X, false, st)
	case *ast.SliceExpr:
		w.walkExpr(e.X, false, st)
	case *ast.TypeAssertExpr:
		w.walkExpr(e.X, escaping, st)
	case *ast.FuncLit:
		// Captured by a closure: ownership is out of intra-function reach.
		for obj := range st {
			if usesObject(w.pass.Info, e.Body, obj) {
				w.drop(st, obj, dropConsumed)
			}
		}
	}
}

// walkCall applies sink semantics to a call and scans its arguments.
// With a Program attached, arguments whose parameter has an ownership
// summary get precise semantics (consumed ⇒ retired here, borrowed ⇒
// still the caller's problem); everything the summaries cannot cover —
// unresolved callees, variadic tails, type-parameter params — falls back
// to the name heuristics that were the whole story in intra mode.
func (w *prWalker) walkCall(call *ast.CallExpr, st prLive) {
	// A retire method (v.Release()) retires its receiver;
	// only tracked objects are affected, so an unrelated type sharing the
	// method name is a harmless no-op here.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && w.rules.retire[sel.Sel.Name] && len(call.Args) == 0 {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if obj := w.pass.Info.Uses[id]; obj != nil {
				w.drop(st, obj, dropConsumed)
			}
		}
	}
	argsEscape := false
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && w.pass.Info.Uses[id] == nil {
		// Builtin append stores the value in a container.
		argsEscape = true
	}
	if _, _, isPut := queuePutCall(w.pass.Info, call); isPut {
		argsEscape = true // forwarded downstream; the consumer releases
	}
	if isSyncPoolPut(w.pass.Info, call) {
		argsEscape = true // stored in a sync.Pool; the pool owns it now
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "finish", "finishLost", "Finish", "Write":
			argsEscape = true // disposition/forwarding sinks own the frame
		}
	} else if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "finish", "finishLost":
			argsEscape = true
		}
	}

	var sum *FuncSummary
	var fn *types.Func
	if w.prog != nil {
		fn = calleeFunc(w.pass.Info, call)
		if fn != nil {
			sum = w.prog.summaryFor(w.rules, fn, w.depth+1)
		}
		if sum == nil && w.anyLiveTrackedArg(call, st) {
			// Interprocedural blind spot feeding a tracked value: surface it
			// in -debug instead of failing silently.
			switch {
			case fn == nil:
				w.prog.note(w.pass.Fset, call.Pos(), "unresolved callee (function value or interface dispatch) receives a tracked value; using call-site heuristics")
			default:
				w.prog.note(w.pass.Fset, call.Pos(), "no ownership summary for %s (no analyzable body, recursion, or depth bound); using call-site heuristics", fn.Name())
			}
		}
	}

	// A method whose summary proves the receiver is consumed retires it.
	if sum != nil && sum.Recv.Tracked && sum.Recv.Outcome == OutConsumed {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if rid, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				w.drop(st, w.pass.Info.Uses[rid], dropConsumed)
			}
		}
	}

	w.walkExpr(call.Fun, false, st)
	for i, a := range call.Args {
		if sum != nil {
			if ps, ok := sum.paramAt(i); ok && ps.Tracked {
				if aid, ok := ast.Unparen(a).(*ast.Ident); ok {
					if aobj := w.pass.Info.Uses[aid]; aobj != nil {
						if _, live := st[aobj]; live {
							switch ps.Outcome {
							case OutConsumed:
								w.drop(st, aobj, dropConsumed)
							case OutBorrowed:
								// Callee only inspects it: still the caller's
								// to retire — even if a name heuristic would
								// have trusted the call. This is the
								// cross-function leak class intra mode misses.
							case OutReturned:
								if w.inReturn {
									// `return clamp(f)`: the value rides the
									// result out to our own caller.
									w.drop(st, aobj, dropReturned)
								}
								// Otherwise trackOrScan transfers tracking to
								// the assignment destination; a discarded
								// result keeps the value live (and leaks).
							case OutConditional:
								// The callee itself cannot promise an outcome;
								// fall back to the call-site heuristics.
								w.prog.note(w.pass.Fset, a.Pos(), "conditional ownership summary for %s; using call-site heuristics", sum.Fn.Name())
								if argsEscape {
									w.drop(st, aobj, dropConsumed)
								}
							}
							continue
						}
					}
				}
			}
		}
		w.walkExpr(a, argsEscape, st)
	}
}

// anyLiveTrackedArg reports whether any argument is a live tracked ident.
func (w *prWalker) anyLiveTrackedArg(call *ast.CallExpr, st prLive) bool {
	for _, a := range call.Args {
		if aid, ok := ast.Unparen(a).(*ast.Ident); ok {
			if aobj := w.pass.Info.Uses[aid]; aobj != nil {
				if _, live := st[aobj]; live {
					return true
				}
			}
		}
	}
	return false
}

// walkClauses handles switch/type-switch/select merging.
func (w *prWalker) walkClauses(s ast.Stmt, st prLive) bool {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.walkExpr(s.Tag, false, st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
		hasDefault = true // select blocks until some clause runs
	}
	branches := []branch{}
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				stmts = append([]ast.Stmt{c.Comm}, c.Body...)
			} else {
				stmts = c.Body
			}
		}
		cs := st.clone()
		t := w.walkStmts(stmts, cs)
		branches = append(branches, branch{cs, t})
	}
	if !hasDefault || len(branches) == 0 {
		branches = append(branches, branch{st.clone(), false}) // skip path
	}
	merge(st, branches...)
	for _, b := range branches {
		if !b.terminated {
			return false
		}
	}
	return true
}

type branch struct {
	st         prLive
	terminated bool
}

// merge rebuilds st as the union of live sets over non-terminated
// branches: a value must be retired on every continuing path to count as
// retired.
func merge(st prLive, branches ...branch) {
	for k := range st {
		delete(st, k)
	}
	for _, b := range branches {
		if b.terminated {
			continue
		}
		for k, v := range b.st {
			st[k] = v
		}
	}
}

func (w *prWalker) posString(p token.Pos) string {
	pos := w.pass.Fset.Position(p)
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}
