// Package ctxrules seeds violations for the patlint ctxbg and ctxloop
// analyzers: the fixture is classified like a routing package, so
// context-aware functions must propagate their ctx.
package ctxrules

import "context"

// Work is a cancellable leaf the other fixtures call.
func Work(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	return n
}

// Detached manufactures a root context inside a context-aware function —
// a ctxbg finding.
func Detached(ctx context.Context, n int) int {
	return Work(context.Background(), n) // want(ctxbg): context.Background() inside a context-aware function severs cancellation; thread the ctx parameter
}

// Sweep does nested-loop work without ever consulting ctx — a ctxloop
// finding on the outer loop.
func Sweep(ctx context.Context, xs []int) int {
	s := 0
	for _, x := range xs { // want(ctxloop): loop does iteration-scale work but never reaches a cancellation check (use ctx.Err() or pass ctx into the body)
		for y := 0; y < x; y++ {
			s += y
		}
	}
	return s
}

// CallsWithoutCtx invokes a cancellable callee per element but severs the
// caller's ctx — a ctxbg finding for the TODO and a ctxloop finding for
// the loop.
func CallsWithoutCtx(ctx context.Context, xs []int) int {
	s := 0
	for _, x := range xs { // want(ctxloop): loop does iteration-scale work but never reaches a cancellation check (use ctx.Err() or pass ctx into the body)
		s += Work(context.TODO(), x) // want(ctxbg): context.TODO() inside a context-aware function severs cancellation; thread the ctx parameter
	}
	return s
}

// Covered reaches a cancellation check every iteration — no findings.
func Covered(ctx context.Context, xs []int) int {
	s := 0
	for _, x := range xs {
		if ctx.Err() != nil {
			return s
		}
		for y := 0; y < x; y++ {
			s += y
		}
	}
	return s
}

// Propagates passes ctx into the callee each iteration — no findings.
func Propagates(ctx context.Context, xs []int) int {
	s := 0
	for _, x := range xs {
		s += Work(ctx, x)
	}
	return s
}

// Shim is the documented compat pattern: no ctx parameter, so wrapping a
// Background context is legitimate — no findings.
func Shim(xs []int) int {
	return Covered(context.Background(), xs)
}
