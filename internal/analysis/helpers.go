package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// modulePrefix is the import-path prefix of this repository's packages.
// Analyzer type tests key on path suffixes under it so the suite keeps
// working if the module is ever renamed or vendored.
const modulePrefix = "ffsva"

// pathIs reports whether pkg path equals the module-relative path rel
// (e.g. rel "internal/queue").
func pathIs(path, rel string) bool {
	return path == modulePrefix+"/"+rel || strings.HasSuffix(path, "/"+rel)
}

// pkgNameOf resolves an expression to the package it names, if it is a
// bare package qualifier (the `time` in time.Now).
func pkgNameOf(info *types.Info, e ast.Expr) *types.PkgName {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	pn, _ := info.Uses[id].(*types.PkgName)
	return pn
}

// queuePutCall reports whether call is queue.Queue.Put or TryPut, and
// returns the method name and element argument.
func queuePutCall(info *types.Info, call *ast.CallExpr) (method string, elem ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	name := sel.Sel.Name
	if name != "Put" && name != "TryPut" {
		return "", nil, false
	}
	s, isMethod := info.Selections[sel]
	if !isMethod || s.Kind() != types.MethodVal {
		return "", nil, false
	}
	named := namedOf(s.Recv())
	if named == nil {
		return "", nil, false
	}
	obj := named.Origin().Obj()
	if obj.Name() != "Queue" || obj.Pkg() == nil || !pathIs(obj.Pkg().Path(), "internal/queue") {
		return "", nil, false
	}
	if len(call.Args) != 1 {
		return "", nil, false
	}
	return name, call.Args[0], true
}

// namedOf unwraps pointers to reach a named type.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// calleeFunc resolves a call to the *types.Func it invokes (package
// function or method), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// isSyncPoolPut reports whether call is (*sync.Pool).Put: storing a
// value there transfers ownership to the pool.
func isSyncPoolPut(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != "Put" {
		return false
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	return named != nil && named.Obj().Name() == "Pool" &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}

// usesObject reports whether any identifier inside n resolves to obj.
func usesObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
