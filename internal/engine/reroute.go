package engine

import (
	"context"
	"fmt"

	"patlabor/internal/eco"
	"patlabor/internal/tree"
)

// Rerouter returns the engine's incremental-rerouting session (ECO
// mode), sharing the engine's lookup table and sub-frontier memo — a
// net rerouted incrementally warms the same window cache batch routing
// uses. It is nil for baseline-method engines: incremental rerouting is
// defined by byte-identity to the patlabor method.
func (e *Engine) Rerouter() *eco.Session { return e.eco }

// Track registers every net with the engine's eco session, routing each
// through the worker pool, and returns the handles positionally aligned
// with nets. Routed nets count toward the engine's statistics exactly
// like a RouteAll batch; the lowest-index failure wins, as everywhere.
func (e *Engine) Track(ctx context.Context, nets []tree.Net) ([]*eco.Handle, error) {
	if e.eco == nil {
		return nil, fmt.Errorf("engine: method %q does not support incremental rerouting", e.method.Name())
	}
	handles := make([]*eco.Handle, len(nets))
	err := e.run(ctx, batch{n: len(nets), route: func(ctx context.Context, i int) (int, error) {
		var err error
		handles[i], err = e.eco.Track(ctx, nets[i])
		return nets[i].Degree(), err
	}})
	if err != nil {
		return nil, err
	}
	return handles, nil
}

// RerouteBatch applies edits[i] to handles[i] across the worker pool and
// returns the post-edit Pareto frontiers in input order — each
// byte-identical to routing the post-edit net from scratch. Per-method
// and per-degree statistics accumulate as for RouteAll; the eco counters
// (EcoHits, DirtySubtrees, CacheInvalidations) surface through Stats.
func (e *Engine) RerouteBatch(ctx context.Context, handles []*eco.Handle, edits [][]eco.Edit) ([]Result, error) {
	if e.eco == nil {
		return nil, fmt.Errorf("engine: method %q does not support incremental rerouting", e.method.Name())
	}
	if len(handles) != len(edits) {
		return nil, fmt.Errorf("engine: %d handles but %d edit batches", len(handles), len(edits))
	}
	out := make([]Result, len(handles))
	err := e.run(ctx, batch{n: len(handles), route: func(ctx context.Context, i int) (int, error) {
		var err error
		out[i], err = handles[i].Reroute(ctx, edits[i])
		return handles[i].Degree(), err
	}})
	if err != nil {
		return nil, err
	}
	return out, nil
}
