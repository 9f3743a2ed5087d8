package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Outcome is one point of the ownership lattice: what a function does
// with a tracked resource (frame, tensor, gray plane, trace record) it
// receives as a parameter.
//
//	Borrowed    — the function only inspects the value; the caller still
//	              owns it and must retire it.
//	Consumed    — on every path the function retires the value (releases
//	              it, finishes it, forwards it into a queue/channel, or
//	              stores it somewhere that owns it). The caller must not
//	              touch it again.
//	Returned    — on every path the value flows back out through the
//	              return values; ownership follows the result.
//	Conditional — consumed on some paths, not on others (or mixed with
//	              returning it). The caller cannot know who owns the
//	              value without the same branch information, so the
//	              analyzers conservatively keep tracking it.
type Outcome uint8

const (
	OutBorrowed Outcome = iota
	OutConsumed
	OutReturned
	OutConditional
)

func (o Outcome) String() string {
	switch o {
	case OutBorrowed:
		return "borrowed"
	case OutConsumed:
		return "consumed"
	case OutReturned:
		return "returned"
	case OutConditional:
		return "conditional"
	}
	return "unknown"
}

// ParamSummary is the ownership verdict for one parameter (or the
// receiver). Tracked is false for parameters whose type the rule set
// does not follow (ints, configs, type parameters): for those the
// call-site heuristics stay in force.
type ParamSummary struct {
	Name    string
	Tracked bool
	Outcome Outcome
}

// FuncSummary is one function's ownership summary: the receiver plus
// each parameter, in declaration order.
type FuncSummary struct {
	Fn       *types.Func
	Recv     ParamSummary
	Params   []ParamSummary
	Variadic bool
}

// paramAt maps a call-site argument index to its parameter summary.
// Arguments swallowed by a variadic tail get no summary (ok=false): the
// walker falls back to the call-site heuristics for them.
func (s *FuncSummary) paramAt(i int) (ParamSummary, bool) {
	if i >= len(s.Params) || (s.Variadic && i >= len(s.Params)-1) {
		return ParamSummary{}, false
	}
	return s.Params[i], true
}

// String renders the summary for ffslint -summary.
func (s *FuncSummary) String() string {
	var parts []string
	if s.Recv.Tracked {
		parts = append(parts, fmt.Sprintf("recv %s: %s", s.Recv.Name, s.Recv.Outcome))
	}
	for _, p := range s.Params {
		if p.Tracked {
			parts = append(parts, fmt.Sprintf("%s: %s", p.Name, p.Outcome))
		}
	}
	if len(parts) == 0 {
		return "(no tracked parameters)"
	}
	return strings.Join(parts, ", ")
}

// outFlags accumulates what the summary walk observed happening to one
// tracked parameter across all paths.
type outFlags struct {
	consumed  bool // retired, forwarded, stored, or captured somewhere
	returned  bool // flowed out through a return statement
	abandoned bool // still live at the end of some path (or overwritten)
}

func (f *outFlags) outcome() Outcome {
	switch {
	case f.abandoned && !f.consumed && !f.returned:
		return OutBorrowed
	case f.abandoned:
		return OutConditional
	case f.consumed && f.returned:
		return OutConditional
	case f.returned:
		return OutReturned
	case f.consumed:
		return OutConsumed
	default:
		// Never consumed and never observed live at a path end — a body
		// that cannot fall through (infinite loop). Treat as borrowed:
		// the conservative direction for the caller is to keep tracking.
		return OutBorrowed
	}
}

// summaryFor computes (memoized) the ownership summary of fn under one
// rule set, descending into callees up to maxSummaryDepth. It returns
// nil when the function has no analyzable body, is already being
// summarized (recursion), or sits past the depth bound — the callers
// treat nil as "unknown" and keep their conservative behaviour.
func (p *Program) summaryFor(rules *prRules, fn *types.Func, depth int) *FuncSummary {
	if p == nil || fn == nil {
		return nil
	}
	// Normalize to the acquisition-free summary variant so lookups from
	// report-mode walkers and summary-mode walkers share one memo table.
	rules = rules.borrowForSummary()
	fn = fn.Origin()
	memo := p.sums[rules]
	if memo == nil {
		memo = map[*types.Func]*FuncSummary{}
		p.sums[rules] = memo
	}
	if s, ok := memo[fn]; ok {
		return s
	}
	di := p.declOf(fn)
	if di == nil {
		return nil
	}
	if p.inProgress[fn] {
		p.note(di.pkg.Fset, di.decl.Pos(), "ownership summary: recursion on %s; treating as unknown", fn.Name())
		return nil
	}
	if depth > maxSummaryDepth {
		p.note(di.pkg.Fset, di.decl.Pos(), "ownership summary: call depth bound (%d) reached at %s; treating as unknown", maxSummaryDepth, fn.Name())
		return nil
	}

	sig := fn.Signature()
	sum := &FuncSummary{Fn: fn, Variadic: sig.Variadic()}
	seeds := map[types.Object]*outFlags{}
	seed := func(id *ast.Ident) (types.Object, *ParamSummary) {
		ps := &ParamSummary{Name: id.Name}
		if id.Name == "_" {
			return nil, ps
		}
		obj := di.pkg.Info.Defs[id]
		if obj == nil || !rules.tracked(obj.Type()) {
			return nil, ps
		}
		ps.Tracked = true
		seeds[obj] = &outFlags{}
		return obj, ps
	}

	recvObjs := map[types.Object]*ParamSummary{}
	if di.decl.Recv != nil && len(di.decl.Recv.List) == 1 && len(di.decl.Recv.List[0].Names) == 1 {
		obj, ps := seed(di.decl.Recv.List[0].Names[0])
		sum.Recv = *ps
		if obj != nil {
			recvObjs[obj] = &sum.Recv
		}
	}
	paramObjs := map[types.Object]int{}
	for _, field := range di.decl.Type.Params.List {
		names := field.Names
		if len(names) == 0 {
			// Unnamed parameter: nothing can reference it, so the callee
			// cannot retire it either — borrowed by construction.
			sum.Params = append(sum.Params, ParamSummary{Name: "_", Tracked: rules.tracked(di.pkg.Info.TypeOf(field.Type))})
			continue
		}
		for _, id := range names {
			obj, ps := seed(id)
			if obj != nil {
				paramObjs[obj] = len(sum.Params)
			}
			sum.Params = append(sum.Params, *ps)
		}
	}

	if len(seeds) == 0 {
		memo[fn] = sum
		return sum
	}

	p.inProgress[fn] = true
	pass := &Pass{
		Fset:    di.pkg.Fset,
		Files:   di.pkg.Files,
		PkgPath: di.pkg.Path,
		Pkg:     di.pkg.Types,
		Info:    di.pkg.Info,
		Prog:    p,
	}
	w := &prWalker{
		pass:     pass,
		rules:    rules,
		prog:     p,
		depth:    depth,
		collect:  seeds,
		reported: map[types.Object]bool{},
		bare:     map[*ast.CallExpr]bool{},
	}
	st := prLive{}
	for obj := range seeds {
		st[obj] = prAcq{pos: di.decl.Pos(), what: "param", name: obj.Name()}
	}
	if !w.walkStmts(di.decl.Body.List, st) {
		w.leakAll(st, "function end")
	}
	delete(p.inProgress, fn)

	for obj, flags := range seeds {
		out := flags.outcome()
		if i, ok := paramObjs[obj]; ok {
			sum.Params[i].Outcome = out
		}
		if ps, ok := recvObjs[obj]; ok {
			ps.Outcome = out
		}
	}
	memo[fn] = sum
	return sum
}

// SummaryOf is the public entry for ffslint -summary: the ownership
// summary of fn under the frame-family rules (nil when unknown).
func (p *Program) SummaryOf(fn *types.Func) *FuncSummary {
	return p.summaryFor(poolReleaseRules, fn, 0)
}

// Summaries computes and returns the frame-family summaries of every
// declared function in pkg that has at least one tracked parameter or
// receiver, sorted by source position.
func (p *Program) Summaries(pkg *Package) []*FuncSummary {
	var out []*FuncSummary
	for fn, di := range p.decls {
		if di.pkg != pkg {
			continue
		}
		s := p.summaryFor(poolReleaseRules, fn, 0)
		if s == nil {
			continue
		}
		tracked := s.Recv.Tracked
		for _, ps := range s.Params {
			tracked = tracked || ps.Tracked
		}
		if tracked {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return p.decls[out[i].Fn].decl.Pos() < p.decls[out[j].Fn].decl.Pos()
	})
	return out
}
