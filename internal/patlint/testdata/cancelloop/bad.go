// Package cancelloop seeds violations for the cancellation-loop
// analyzer: loops that transitively reach cancellable routing work
// through ctx-less wrappers without ever checking the context.
package cancelloop

import "context"

// routeOne is cancellable routing work: it takes a context.
func routeOne(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	return n + 1
}

// wrapper hides the context: it calls ctx-taking work but takes no ctx
// itself, so a syntactic loop check cannot see the work. The facts table
// marks it ctxWork.
func wrapper(n int) int {
	return routeOne(context.Background(), n)
}

// BatchHidden loops over the ctx-less wrapper without checking ctx: the
// batch cannot be cancelled between iterations. ctxloop does not fire
// (no nested loop, no direct ctx-taking callee); cancelloop does.
func BatchHidden(ctx context.Context, nets []int) int {
	total := 0
	for _, n := range nets { // want(cancelloop): loop calls wrapper, which transitively reaches cancellable routing work, but never checks the context (use ctx.Err() or a ctx-taking variant)
		total += wrapper(n)
	}
	return total
}
