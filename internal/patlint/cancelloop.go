package patlint

import (
	"go/ast"
	"go/types"
)

// checkCancelLoop is the interprocedural completion of ctxloop. ctxloop
// only recognizes iteration-scale work syntactically: a nested loop, or
// a direct call to a ctx-taking callee. A loop that calls a ctx-less
// wrapper (Frontier instead of FrontierContext, a convenience helper
// three calls above the DP) does the same work but shows none of those
// markers, which is exactly the gap the PR 6 fuzzer exposed in dw. The
// facts table closes it: ctxWork marks every function that transitively
// reaches a ctx-taking callee, so a loop in a context-aware function
// that calls a no-ctx-param member of that set without the loop ever
// touching ctx is uncancellable routing work.
//
// Both rules walk the same uncovered loops (eachUncoveredLoop); the
// loops ctxloop flags (loopIsHeavy) are skipped here so one defect
// yields one finding.
func checkCancelLoop(p *Pass) {
	eachUncoveredLoop(p.Pkg, func(loop ast.Node, body *ast.BlockStmt) {
		if loopIsHeavy(p.Pkg.Info, body) {
			return
		}
		if callee := hiddenCtxWork(p.Pkg.Info, p.Facts, body); callee != nil {
			p.Reportf(loop.Pos(),
				"loop calls %s, which transitively reaches cancellable routing work, but never checks the context (use ctx.Err() or a ctx-taking variant)",
				callee.Name())
		}
	})
}

// hiddenCtxWork returns a callee in body (closures excluded) that has no
// context parameter itself but transitively reaches ctx-taking work, or
// nil if there is none.
func hiddenCtxWork(info *types.Info, facts *Facts, body *ast.BlockStmt) types.Object {
	var found types.Object
	inspectOutsideFuncLits(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeObj(info, call)
		if callee != nil && facts.ctxWork[callee] && !signatureTakesContext(callee) {
			found = callee
			return false
		}
		return true
	})
	return found
}

// usesAnyObj reports whether any identifier under n resolves to one of
// the given objects.
func usesAnyObj(info *types.Info, n ast.Node, objs []types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok {
			obj := info.Uses[id]
			for _, o := range objs {
				if obj == o {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}
