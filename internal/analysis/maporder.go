package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags `range` over a map whose loop body reaches a
// deterministic output — event logs, the Perfetto trace export, Report
// printing, the evaluation tables. Go randomizes map iteration order, so
// such a loop makes byte-identical seeded runs impossible: the fix is
// always to collect the keys, sort them, and range over the sorted
// slice. That idiom is naturally silent here, because the collect loop's
// body contains no output sink.
//
// A sink is a fmt Print*/Fprint* call, a Write/WriteString/Encode/...
// method call, or string concatenation building output. With a Program
// attached the check is interprocedural: a call to a module function
// that transitively reaches such a sink also counts (memoized in
// Program.writers).
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "no ranging over a map directly into a deterministic output (logs, exports, reports); iterate sorted keys",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.Info.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				if sink := orderedSinkIn(pass.Info, rs.Body, pass.Prog, 0); sink != "" {
					pass.Reportf(rs.Pos(),
						"map iteration order is random but the loop body reaches a deterministic output (%s); range over sorted keys instead",
						sink)
				}
				return true
			})
		}
	},
}

// orderedSinkIn scans a node for the first ordered-output sink and
// returns its description ("" when none).
func orderedSinkIn(info *types.Info, body ast.Node, prog *Program, depth int) string {
	sink := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			// s += ... accumulates ordered text.
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if t := info.TypeOf(n.Lhs[0]); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						sink = "string concatenation"
					}
				}
			}
		case *ast.CallExpr:
			sink = callSink(info, n, prog, depth)
		}
		return sink == ""
	})
	return sink
}

// callSink classifies one call as an ordered-output sink.
func callSink(info *types.Info, call *ast.CallExpr, prog *Program, depth int) string {
	fn := calleeFunc(info, call)
	if fn == nil {
		return ""
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return "fmt." + fn.Name()
	}
	if fn.Signature().Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Encode", "Print", "Printf", "Println":
			return fn.Name() + " method"
		}
	}
	if prog != nil && depth < maxSummaryDepth {
		if prog.fnWrites(fn, depth+1) {
			return fn.Name() + ", which writes output transitively"
		}
	}
	return ""
}
