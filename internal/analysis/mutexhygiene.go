package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// mutexHygiene enforces three locking rules.
//
// Copy-by-value (module-wide): no receiver, parameter or result passes
// a sync.Mutex/sync.RWMutex — or a struct containing one — by value. A
// copied mutex guards nothing; go vet's copylocks catches many such
// sites, this rule pins the signature-level cases the repo cares about
// even when vet is not run.
//
// Lock-across-I/O (Policy.MutexScope, i.e. the observability layer):
// within a scope package, no function calls directly into a
// Policy.MutexForbidden package (internal/iosim) while a mutex is
// held. This is the scrape-lock-free promise: /metrics and the flight
// recorder snapshot atomics under short mutexes and must never sit on a
// lock waiting for simulated disk I/O.
//
// Lock-across-join (Policy.MutexJoinScope, i.e. the front ends under
// cmd/): within a scope package, no function calls a facade
// (module-root) function whose name starts with Join while a mutex is
// held. A handler that runs a whole join under a lock serializes every
// concurrent request behind that join's simulated device I/O — the
// serving path snapshots a view under a short lock and joins unlocked
// (DESIGN.md §13).
//
// Both held-lock analyses are per function body, straight-line by
// source position, and intentionally direct-call only. A deferred
// Unlock does not release — the lock is genuinely held for the rest of
// the function, so a forbidden call after `defer mu.Unlock()` is a
// real finding. Function literals are separate scopes (a closure body
// does not run under the lock state of its definition site).
type mutexHygiene struct{ pol *Policy }

func (a *mutexHygiene) Name() string { return "mutexhygiene" }
func (a *mutexHygiene) Doc() string {
	return "no mutex copied by value in signatures; no lock held across a direct call into iosim in the scrape-lock-free packages; no lock held across a facade Join* call in the serving front ends"
}
func (a *mutexHygiene) NeedsTypes() bool { return true }

func (a *mutexHygiene) Check(p *Package) []Diagnostic {
	if p.Info == nil {
		return nil
	}
	var diags []Diagnostic
	forbidden := make(map[string]bool, len(a.pol.MutexForbidden))
	for _, rel := range a.pol.MutexForbidden {
		forbidden[p.Module+"/"+rel] = true
	}
	if !containsString(a.pol.MutexScope, p.Rel) {
		forbidden = nil
	}
	joinScope := containsString(a.pol.MutexJoinScope, p.Rel)

	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			diags = append(diags, a.checkSignature(p, fd)...)
			if (len(forbidden) == 0 && !joinScope) || fd.Body == nil {
				continue
			}
			for _, scope := range functionScopes(fd.Body) {
				diags = append(diags, a.checkLockHeld(p, fd, scope, forbidden, joinScope)...)
			}
		}
	}
	return diags
}

// checkSignature flags by-value mutexes in receiver, params, results.
func (a *mutexHygiene) checkSignature(p *Package, fd *ast.FuncDecl) []Diagnostic {
	var diags []Diagnostic
	var fields []*ast.Field
	if fd.Recv != nil {
		fields = append(fields, fd.Recv.List...)
	}
	if fd.Type.Params != nil {
		fields = append(fields, fd.Type.Params.List...)
	}
	if fd.Type.Results != nil {
		fields = append(fields, fd.Type.Results.List...)
	}
	for _, field := range fields {
		tv, ok := p.Info.Types[field.Type]
		if !ok {
			continue
		}
		if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if containsLockType(tv.Type, make(map[types.Type]bool)) {
			diags = append(diags, p.diag(a.Name(), field.Type.Pos(),
				"%s passes a mutex by value (%s); a copied mutex guards nothing — use a pointer",
				fd.Name.Name, tv.Type.String()))
		}
	}
	return diags
}

// functionScopes returns body plus every function-literal body inside
// it, each to be analyzed as its own straight-line scope.
func functionScopes(body *ast.BlockStmt) []*ast.BlockStmt {
	scopes := []*ast.BlockStmt{body}
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			scopes = append(scopes, fl.Body)
		}
		return true
	})
	return scopes
}

type lockEvent struct {
	pos  token.Pos
	kind int // 0 lock, 1 unlock, 2 forbidden call, 3 facade join call
	name string
}

// checkLockHeld scans one function scope in source order and reports
// forbidden-package calls (and, in the join scope, facade Join* calls)
// made between a Lock and its Unlock.
func (a *mutexHygiene) checkLockHeld(p *Package, fd *ast.FuncDecl, scope *ast.BlockStmt, forbidden map[string]bool, joinScope bool) []Diagnostic {
	deferred := make(map[*ast.CallExpr]bool)
	var events []lockEvent
	inspectScope(scope, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if ok {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if isMutexExpr(p, sel.X) && !deferred[n] {
						events = append(events, lockEvent{n.Pos(), 0, ""})
						return
					}
				case "Unlock", "RUnlock":
					if isMutexExpr(p, sel.X) {
						if !deferred[n] {
							events = append(events, lockEvent{n.Pos(), 1, ""})
						}
						return
					}
				}
			}
			switch path, name, bare := calleePackage(p, n); {
			case forbidden[path]:
				events = append(events, lockEvent{n.Pos(), 2, name})
			case joinScope && path == p.Module && strings.HasPrefix(bare, "Join"):
				events = append(events, lockEvent{n.Pos(), 3, name})
			}
		}
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	var diags []Diagnostic
	held := 0
	for _, e := range events {
		switch e.kind {
		case 0:
			held++
		case 1:
			if held > 0 {
				held--
			}
		case 2:
			if held > 0 {
				diags = append(diags, p.diag(a.Name(), e.pos,
					"%s calls %s while holding a mutex; the scrape-lock-free layer must not block on simulated I/O under a lock",
					fd.Name.Name, e.name))
			}
		case 3:
			if held > 0 {
				diags = append(diags, p.diag(a.Name(), e.pos,
					"%s calls %s while holding a mutex; serve joins from a snapshot view instead of locking across the whole join",
					fd.Name.Name, e.name))
			}
		}
	}
	return diags
}

// inspectScope walks scope without descending into nested function
// literals (each literal is its own scope).
func inspectScope(scope *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(scope, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != scope {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// calleePackage resolves the defining package path, display name and
// bare function name of a call's callee, or "" when unresolvable.
func calleePackage(p *Package, call *ast.CallExpr) (string, string, string) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return "", "", ""
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", "", ""
	}
	return fn.Pkg().Path(), fn.Pkg().Name() + "." + fn.Name(), fn.Name()
}

// isMutexExpr reports whether e's type is (a pointer to) sync.Mutex,
// sync.RWMutex or the sync.Locker interface.
func isMutexExpr(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return isSyncLockType(t)
}

// isSyncLockType matches the lockable sync types. The Locker
// interface counts for held-lock tracking but not for the copy check —
// copying an interface value does not copy the mutex behind it.
func isSyncLockType(t types.Type) bool {
	return isNamedSync(t, "Mutex") || isNamedSync(t, "RWMutex") || isNamedSync(t, "Locker")
}

func isNamedSync(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// containsLockType reports whether t holds a sync mutex by value,
// walking named types, structs and arrays (seen guards recursion).
func containsLockType(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	if isNamedSync(t, "Mutex") || isNamedSync(t, "RWMutex") {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLockType(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLockType(u.Elem(), seen)
	}
	return false
}
