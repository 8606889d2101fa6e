package main

import (
	"context"
	"fmt"
	"hash/fnv"

	"patlabor/internal/core"
	"patlabor/internal/dw"
	"patlabor/internal/lut"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// exactDegree is the largest degree whose frontier the checker recomputes
// with the concrete DP (the paper's λ): every table answer and every DP
// answer up to it is compared with dw.FrontierSols.
const exactDegree = core.DefaultLambda

// check verifies one routed net from scratch, independently of the
// router's caches: every tree realises the net, every reported (w, d)
// matches the tree, the Sols are strictly Pareto in ascending-w order, and
// small nets match the concrete DP. exact outputs must also equal a
// cacheless core.Route of the net byte for byte.
func check(ctx context.Context, o output, tab *lut.Table) error {
	if o.err != nil {
		return o.err
	}
	if len(o.items) == 0 {
		return fmt.Errorf("empty frontier")
	}
	sols := make([]pareto.Sol, len(o.items))
	for i, it := range o.items {
		if it.Val == nil {
			return fmt.Errorf("item %d has no tree", i)
		}
		if err := it.Val.Validate(o.net); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
		if got := it.Val.Sol(); got != it.Sol {
			return fmt.Errorf("item %d reports %v, its tree has %v", i, it.Sol, got)
		}
		sols[i] = it.Sol
	}
	if !pareto.IsFrontier(sols) {
		return fmt.Errorf("sols %v are not strictly Pareto in ascending w", sols)
	}
	if o.net.Degree() <= exactDegree {
		want, err := dw.FrontierSolsContext(ctx, o.net, dw.DefaultOptions())
		if err != nil {
			return fmt.Errorf("concrete DP: %w", err)
		}
		if !equalSols(sols, want) {
			return fmt.Errorf("sols %v, concrete DP %v", sols, want)
		}
	}
	if o.exact {
		want, err := core.RouteContext(ctx, o.net, core.Options{Table: tab, NoCache: true})
		if err != nil {
			return fmt.Errorf("core.Route: %w", err)
		}
		if fingerprint(o.items) != fingerprint(want) {
			return fmt.Errorf("frontier differs from core.Route of the post-edit net")
		}
	}
	return nil
}

func equalSols(a, b []pareto.Sol) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// fingerprint hashes a frontier's Sols and trees byte for byte. Passes
// after the fully checked one must reproduce it exactly.
func fingerprint(items []pareto.Item[*tree.Tree]) uint64 {
	h := fnv.New64a()
	var buf []byte
	put := func(xs ...int64) {
		for _, x := range xs {
			buf = append(buf, byte(x), byte(x>>8), byte(x>>16), byte(x>>24),
				byte(x>>32), byte(x>>40), byte(x>>48), byte(x>>56))
		}
	}
	for _, it := range items {
		buf = buf[:0]
		if it.Val == nil {
			put(it.Sol.W, it.Sol.D, -1)
			h.Write(buf)
			continue
		}
		put(it.Sol.W, it.Sol.D, int64(len(it.Val.Nodes)), int64(it.Val.Root))
		for i, nd := range it.Val.Nodes {
			put(nd.P.X, nd.P.Y, int64(nd.Pin), int64(it.Val.Parent[i]))
		}
		h.Write(buf)
	}
	return h.Sum64()
}
