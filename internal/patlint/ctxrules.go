package patlint

import (
	"go/ast"
	"go/types"
)

// The ctx rules enforce the context-propagation discipline of the
// routing packages (PR 3 threaded ctx at iteration granularity):
//
//   - ctxbg: a function that accepts a context.Context must not call
//     context.Background() or context.TODO(). Manufacturing a fresh root
//     context severs the caller's deadline and cancellation; only
//     ctx-less entry points (the public patlabor wrappers, rsmt.Tree) may
//     do that, and they have no ctx parameter so the rule does not see
//     them.
//   - ctxloop: a loop doing iteration-scale work — a nested loop, or a
//     call into a context-aware callee — must reach a cancellation check:
//     the loop body, or an enclosing loop's body, must use the ctx
//     parameter (ctx.Err(), or passing ctx onward). A cancelled batch
//     must stop between iterations, not run a degree-9 DP to completion.

// eachCtxFunc invokes fn on every declared function of the package that
// takes a context.Context parameter.
func eachCtxFunc(p *Package, fn func(*ast.FuncDecl, []types.Object)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctxParams := contextParams(p.Info, fd)
			if len(ctxParams) == 0 {
				continue
			}
			fn(fd, ctxParams)
		}
	}
}

// contextParams returns the objects of fd's context.Context parameters.
func contextParams(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// checkCtxBg is the ctxbg analyzer: in every context-aware function it
// flags context.Background()/context.TODO() anywhere in the body
// (closures included — a closure capturing ctx has no excuse either).
func checkCtxBg(p *Pass) {
	eachCtxFunc(p.Pkg, func(fd *ast.FuncDecl, _ []types.Object) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || pkgNameOf(p.Pkg.Info, sel.X) != "context" {
				return true
			}
			if name := sel.Sel.Name; name == "Background" || name == "TODO" {
				p.Reportf(call.Pos(), "context.%s() inside a context-aware function severs cancellation; thread the ctx parameter", name)
			}
			return true
		})
	})
}

// checkCtxLoops is the ctxloop analyzer: it flags the uncovered loops
// that do iteration-scale work (loopIsHeavy).
func checkCtxLoops(p *Pass) {
	eachUncoveredLoop(p.Pkg, func(loop ast.Node, body *ast.BlockStmt) {
		if loopIsHeavy(p.Pkg.Info, body) {
			p.Report(loop.Pos(), "loop does iteration-scale work but never reaches a cancellation check (use ctx.Err() or pass ctx into the body)")
		}
	})
}

// eachUncoveredLoop calls fn on every for or range loop of every
// context-aware function that never reaches a cancellation check: no ctx
// parameter is used in its body or in any enclosing loop's body. Closures
// are skipped, since their call sites are unknown. ctxloop and cancelloop
// share this walk and split its loops between them.
func eachUncoveredLoop(pkg *Package, fn func(loop ast.Node, body *ast.BlockStmt)) {
	eachCtxFunc(pkg, func(fd *ast.FuncDecl, ctxParams []types.Object) {
		var walk func(n ast.Node, covered bool)
		walk = func(n ast.Node, covered bool) {
			switch n.(type) {
			case *ast.FuncLit:
				return
			case *ast.ForStmt, *ast.RangeStmt:
				body := loopBody(n)
				covered = covered || usesAnyObj(pkg.Info, body, ctxParams)
				if !covered {
					fn(n, body)
				}
				for _, st := range body.List {
					walk(st, covered)
				}
				return
			}
			// Generic recursion over non-loop nodes, preserving coverage.
			children(n, func(c ast.Node) { walk(c, covered) })
		}
		for _, st := range fd.Body.List {
			walk(st, false)
		}
	})
}

// loopBody returns the block of a for or range statement.
func loopBody(n ast.Node) *ast.BlockStmt {
	switch s := n.(type) {
	case *ast.ForStmt:
		return s.Body
	case *ast.RangeStmt:
		return s.Body
	}
	return nil
}

// loopIsHeavy reports whether the loop body does iteration-scale work: it
// contains a nested loop, or calls a function that itself takes a
// context.Context (i.e. a callee designed to be cancellable). Closures
// are skipped. Bookkeeping loops (appends, arithmetic, plain calls) pass.
func loopIsHeavy(info *types.Info, body *ast.BlockStmt) bool {
	heavy := false
	ast.Inspect(body, func(n ast.Node) bool {
		if heavy {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			heavy = true
			return false
		case *ast.CallExpr:
			if sig, ok := info.Types[n.Fun].Type.(*types.Signature); ok {
				params := sig.Params()
				for i := 0; i < params.Len(); i++ {
					if isContextType(params.At(i).Type()) {
						heavy = true
						return false
					}
				}
			}
		}
		return true
	})
	return heavy
}

// children invokes fn on each direct child node of n. ast.Inspect has no
// depth-one walk, so emulate it by stopping recursion after one level.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if first {
			first = false
			return true
		}
		fn(c)
		return false
	})
}
