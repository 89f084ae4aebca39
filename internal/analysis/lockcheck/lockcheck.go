// Package lockcheck flags calls that can block on the network while a
// sync.Mutex/RWMutex locked in the same function is still held. A
// round-trip under the server lock turns one slow branch site into a
// full coordinator stall — the hazard the copy-on-write replica swap
// exists to avoid. The walk is linear and type-aware: Lock/RLock and
// Unlock/RUnlock pairs are tracked by receiver expression within a
// function body (a deferred unlock holds to function end), and only
// methods resolved to the sync package count as lock operations — so a
// type that merely embeds a mutex is tracked, and an unrelated Lock
// method is not. Blocking callees are classified by their package's
// import path (netproto/replsync under any alias) or by a
// known round-trip method name. lockflowcheck extends the same walk
// across function boundaries via the package call graph.
package lockcheck

import (
	"go/ast"
	"go/types"
	"sort"

	"ivdss/internal/analysis"
)

// Analyzer is the lockcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "no network-blocking calls while a sync.Mutex/RWMutex is held: snapshot under the lock, call after unlocking",
	Run:  run,
}

// blockingPkgs are import-path suffixes whose package-level calls may
// block on the network.
var blockingPkgs = [2]string{"internal/netproto", "internal/replsync"}

// blockingMethods are method names that perform a remote round-trip
// regardless of receiver (client pools, retriers).
var blockingMethods = map[string]bool{
	"CallContext":      true,
	"RoundTripContext": true,
	"DoContext":        true,
	"FetchContext":     true,
}

// Blocking classifies call as a potential network round-trip and
// returns a printable name for it. Package-level functions of the
// blocking packages count when called from *outside* that package
// (inside it, reachability is lockflowcheck's job — a same-package
// helper is not a round-trip just because of where it lives). The
// callee may be nil (dynamic call): then only the method-name
// heuristic applies.
func Blocking(pass *analysis.Pass, call *ast.CallExpr, callee *types.Func) (string, bool) {
	if callee != nil && callee.Pkg() != pass.Types &&
		callee.Type().(*types.Signature).Recv() == nil {
		for _, suffix := range blockingPkgs {
			if analysis.FuncIn(callee, suffix) {
				return callee.Pkg().Name() + "." + callee.Name(), true
			}
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && blockingMethods[sel.Sel.Name] {
		return types.ExprString(call.Fun), true
	}
	return "", false
}

func run(pass *analysis.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ForEachHeldCall(pass, fn, func(call *ast.CallExpr, lockName string) {
				if name, ok := Blocking(pass, call, pass.CalleeOf(call)); ok {
					pass.Reportf(call.Pos(),
						"lockcheck: %s may block on the network while %s is held: snapshot under the lock, call after unlocking", name, lockName)
				}
			})
		}
	}
}

// ForEachHeldCall walks fn's body linearly, tracking the set of held
// sync.Mutex/RWMutex receivers, and invokes visit for every call made
// while at least one is held (function literals excluded: their bodies
// run later, without these locks). lockflowcheck shares this walk.
func ForEachHeldCall(pass *analysis.Pass, fn *ast.FuncDecl, visit func(call *ast.CallExpr, lockName string)) {
	w := &walker{pass: pass, visit: visit}
	w.scanBlock(fn.Body.List, map[string]bool{})
}

type walker struct {
	pass  *analysis.Pass
	visit func(call *ast.CallExpr, lockName string)
}

// lockOp classifies a statement's expression as a Lock/RLock or
// Unlock/RUnlock call on a sync mutex (direct field or embedded) and
// returns the receiver's printed form.
func (w *walker) lockOp(expr ast.Expr) (recv string, acquire, release bool) {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return "", false, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	callee := w.pass.CalleeOf(call)
	if callee == nil || !analysis.FuncIn(callee, "sync") {
		return "", false, false
	}
	switch callee.Name() {
	case "Lock", "RLock":
		return types.ExprString(sel.X), true, false
	case "Unlock", "RUnlock":
		return types.ExprString(sel.X), false, true
	}
	return "", false, false
}

// scanBlock walks stmts linearly with the set of held lock receivers,
// recursing into nested blocks with a copy; after a nested block, any
// lock it unlocks anywhere inside is treated as released (conservative
// toward silence — path-sensitive analysis is out of scope).
func (w *walker) scanBlock(stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if recv, acquire, release := w.lockOp(s.X); acquire {
				held[recv] = true
				continue
			} else if release {
				delete(held, recv)
				continue
			}
			w.checkCalls(s, held)
		case *ast.DeferStmt:
			// `defer mu.Unlock()` keeps the lock held to function end:
			// leave it in the set. Deferred blocking calls run after the
			// body, beyond a linear pass's reach — skip them.
			continue
		case *ast.GoStmt:
			// A spawned goroutine does not hold this function's locks.
			continue
		case *ast.BlockStmt:
			w.scanBlock(s.List, copyHeld(held))
			w.releaseUnlocked(held, s)
		case *ast.IfStmt:
			if s.Init != nil {
				w.checkCalls(s.Init, held)
			}
			w.checkCalls(s.Cond, held)
			w.scanBlock(s.Body.List, copyHeld(held))
			if s.Else != nil {
				w.scanBlock([]ast.Stmt{s.Else}, copyHeld(held))
			}
			w.releaseUnlocked(held, s)
		case *ast.ForStmt:
			w.scanBlock(s.Body.List, copyHeld(held))
			w.releaseUnlocked(held, s)
		case *ast.RangeStmt:
			w.checkCalls(s.X, held)
			w.scanBlock(s.Body.List, copyHeld(held))
			w.releaseUnlocked(held, s)
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			for _, clause := range clauseBodies(s) {
				w.scanBlock(clause, copyHeld(held))
			}
			w.releaseUnlocked(held, s)
		default:
			w.checkCalls(stmt, held)
			w.releaseUnlocked(held, stmt)
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

// releaseUnlocked drops from held any lock that stmt unlocks somewhere
// inside (conservative toward silence).
func (w *walker) releaseUnlocked(held map[string]bool, stmt ast.Stmt) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if expr, ok := n.(*ast.CallExpr); ok {
			if recv, _, release := w.lockOp(expr); release {
				delete(held, recv)
			}
		}
		return true
	})
}

// clauseBodies returns the statement lists of a switch/select's clauses.
func clauseBodies(stmt ast.Stmt) [][]ast.Stmt {
	var body *ast.BlockStmt
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	var out [][]ast.Stmt
	for _, clause := range body.List {
		switch c := clause.(type) {
		case *ast.CaseClause:
			out = append(out, c.Body)
		case *ast.CommClause:
			out = append(out, c.Body)
		}
	}
	return out
}

// checkCalls visits every call inside n while any lock is held,
// skipping function literals (their bodies run later, without these
// locks) and the lock operations themselves.
func (w *walker) checkCalls(n ast.Node, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	names := make([]string, 0, len(held))
	for recv := range held {
		names = append(names, recv)
	}
	sort.Strings(names)
	lockName := names[0]
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, _, release := w.lockOp(call); release {
			return true
		}
		w.visit(call, lockName)
		return true
	})
}
