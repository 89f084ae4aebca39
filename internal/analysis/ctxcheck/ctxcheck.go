// Package ctxcheck enforces context discipline below cmd/: remote
// round-trips must thread the caller's context.Context, and library
// code must not mint fresh root contexts with context.Background() or
// context.TODO(). A Background() mid-stack detaches the work from the
// caller's deadline and cancellation — exactly how a shed or expired
// query keeps burning a branch server after nobody wants the answer.
//
// Two idioms stay legal without an escape hatch, because they preserve
// rather than break the discipline:
//
//   - the ctx-less public wrapper, a single-return delegation such as
//     `func Call(...) { return CallContext(context.Background(), ...) }`;
//   - the nil-default guard `if cfg.Context == nil { cfg.Context =
//     context.Background() }`.
//
// Resolution is by go/types object, so an aliased or dot import of
// context, or a ctx-less remote call reached under a renamed import,
// is flagged the same as the direct spelling.
package ctxcheck

import (
	"go/ast"
	"go/types"

	"ivdss/internal/analysis"
)

// Analyzer is the ctxcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxcheck",
	Doc: "remote round-trips must thread context.Context; no context.Background()/TODO() below cmd/ " +
		"outside ctx-less delegating wrappers and nil-default guards",
	Run: run,
}

// ctxless lists, per import-path suffix, the package-level functions
// that drop the caller's context and therefore must not be called from
// library code (each has a Context-taking sibling).
var ctxless = []struct {
	suffix string
	names  map[string]bool
}{
	{"internal/netproto", map[string]bool{"Call": true, "Dial": true}},
}

// rootCtxFn classifies fn as context.Background or context.TODO.
func rootCtxFn(fn *types.Func) (string, bool) {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	if fn.Name() == "Background" || fn.Name() == "TODO" {
		return fn.Name(), true
	}
	return "", false
}

// ctxlessRemote classifies fn as one of the banned ctx-less remote
// round-trip entry points.
func ctxlessRemote(fn *types.Func) (pkg, name string, ok bool) {
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", "", false
	}
	for _, entry := range ctxless {
		if analysis.PathEndsWith(fn.Pkg().Path(), entry.suffix) && entry.names[fn.Name()] {
			return fn.Pkg().Name(), fn.Name(), true
		}
	}
	return "", "", false
}

func run(pass *analysis.Pass) {
	if pass.PkgName() == "main" {
		return
	}
	for _, f := range pass.Files {
		checkFile(pass, f)
	}
}

func checkFile(pass *analysis.Pass, f *ast.File) {
	for _, decl := range f.Decls {
		fn, isFunc := decl.(*ast.FuncDecl)
		if isFunc && fn.Body == nil {
			continue
		}
		// A ctx-less delegating wrapper: the whole body is one return
		// that hands a fresh root to the Context-taking sibling. The
		// root is born and consumed on the same line, so nothing
		// mid-stack can capture it.
		if isFunc && isDelegatingWrapper(pass, fn) {
			continue
		}
		exempt := map[*ast.CallExpr]bool{}
		if isFunc {
			markNilDefaults(pass, fn.Body, exempt)
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := pass.CalleeOf(call)
			if !exempt[call] {
				if name, ok := rootCtxFn(callee); ok {
					pass.Reportf(call.Pos(),
						"ctxcheck: context.%s below cmd/ detaches from the caller's deadline: accept and thread a ctx", name)
					return true
				}
			}
			if pkg, name, ok := ctxlessRemote(callee); ok {
				pass.Reportf(call.Pos(),
					"ctxcheck: %s.%s drops the caller's context: call %s.%sContext and thread ctx", pkg, name, pkg, name)
			}
			return true
		})
	}
}

// isDelegatingWrapper reports whether fn's body is exactly one return
// statement that passes context.Background()/TODO() as an argument of a
// call (the sanctioned ctx-less public wrapper shape).
func isDelegatingWrapper(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if len(fn.Body.List) != 1 {
		return false
	}
	ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	for _, arg := range call.Args {
		if inner, ok := arg.(*ast.CallExpr); ok {
			if _, ok := rootCtxFn(pass.CalleeOf(inner)); ok {
				return true
			}
		}
	}
	return false
}

// markNilDefaults records Background/TODO calls of the shape
//
//	if x == nil { x = context.Background() }
//
// (either comparison order) as exempt.
func markNilDefaults(pass *analysis.Pass, body *ast.BlockStmt, exempt map[*ast.CallExpr]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		target := nilComparee(ifs.Cond)
		if target == "" {
			return true
		}
		for _, stmt := range ifs.Body.List {
			asg, ok := stmt.(*ast.AssignStmt)
			if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
				continue
			}
			if types.ExprString(asg.Lhs[0]) != target {
				continue
			}
			call, ok := asg.Rhs[0].(*ast.CallExpr)
			if !ok {
				continue
			}
			if _, ok := rootCtxFn(pass.CalleeOf(call)); ok {
				exempt[call] = true
			}
		}
		return true
	})
}

// nilComparee returns the printed form of X for a condition `X == nil`
// or `nil == X`, and "" otherwise.
func nilComparee(cond ast.Expr) string {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || bin.Op.String() != "==" {
		return ""
	}
	if id, ok := bin.Y.(*ast.Ident); ok && id.Name == "nil" {
		return types.ExprString(bin.X)
	}
	if id, ok := bin.X.(*ast.Ident); ok && id.Name == "nil" {
		return types.ExprString(bin.Y)
	}
	return ""
}
