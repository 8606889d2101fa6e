// Package core implements PatLabor (§V of the paper), the practical method
// for Pareto optimisation of timing-driven routing trees:
//
//   - Small-degree nets (n ≤ λ): the exact Pareto frontier, answered from
//     the lookup tables of internal/lut when the degree is covered and by
//     the concrete Pareto-DW of internal/dw otherwise — both produce the
//     identical exact result; the table is purely an accelerator.
//
//   - Large-degree nets (n > λ): local search. A Pareto set of trees T is
//     maintained, seeded with an RSMT T₀ (FLUTE's role). Each iteration
//     selects λ−1 pins of the current descent base with the policy π
//     (internal/policy), regenerates the topology of those pins plus the
//     source through the small-net engine, grafts each frontier subtree
//     back, refines SALT-style, Pareto-merges the candidates, and advances
//     the base to the best-delay candidate so improvements compound (see
//     DESIGN.md substitution 8). The loop runs ⌊n/λ⌋ times as in the
//     paper.
package core

import (
	"context"
	"fmt"
	"sync"

	"patlabor/internal/dw"
	"patlabor/internal/geom"
	"patlabor/internal/hanan"
	"patlabor/internal/lut"
	"patlabor/internal/pareto"
	"patlabor/internal/policy"
	"patlabor/internal/rsmt"
	"patlabor/internal/salt"
	"patlabor/internal/tree"
)

// Options configures PatLabor.
type Options struct {
	// Lambda is the small-net threshold λ. 0 defaults to DefaultLambda
	// (see Resolve). Values outside [2, dw.MaxExactDegree] are rejected.
	Lambda int
	// Table answers small-net queries; nil uses lut.Default() (see
	// Resolve). Degrees the table does not cover fall back to the exact
	// DP.
	Table *lut.Table
	// Params overrides the selection policy parameters; nil uses the
	// trained defaults per degree.
	Params *policy.Params
	// Iterations overrides the local-search iteration count; 0 uses the
	// paper's ⌊n/λ⌋.
	Iterations int
	// NoRefine disables the SALT-style post-processing of rebuilt trees
	// (for ablation).
	NoRefine bool
	// RandomSelection replaces the policy with a deterministic
	// round-robin pin chunking (for ablation of π).
	RandomSelection bool
	// Cache optionally shares a sub-frontier memo across Route calls (the
	// batch engine passes one per engine so windows recur across nets).
	// nil gives each local search a private memo unless NoCache is set.
	Cache *SubCache
	// Trace, when set together with Cache, records every sub-frontier
	// window the local search consults (memo key + parent-net pin
	// indices) so the incremental rerouter (internal/eco) can later evict
	// exactly the cached windows an edit dirties. The trace never alters
	// routing results. Ignored without a cache — windows are not keyed
	// then.
	Trace *SubTrace
	// NoCache disables all result caching: the sub-frontier memo and the
	// unchanged-base rebalance skip. Results are byte-identical either
	// way; NoCache exists to prove that (and for memory-constrained
	// runs).
	NoCache bool
}

// DefaultLambda is the paper's λ = 9.
const DefaultLambda = 9

// Resolve fills in the defaults in place: λ = 0 becomes DefaultLambda
// and a nil Table the shared lut.Default(). It rejects a λ outside
// [2, dw.MaxExactDegree]: every n ≤ λ must be solvable exactly, and a
// window of λ pins needs a sink besides the source. Every entry point
// resolves its options once; resolving twice changes nothing.
func (o *Options) Resolve() error {
	if o.Lambda == 0 {
		o.Lambda = DefaultLambda
	}
	if o.Lambda < 2 || o.Lambda > dw.MaxExactDegree {
		return fmt.Errorf("core: lambda %d out of range [2,%d]", o.Lambda, dw.MaxExactDegree)
	}
	if o.Table == nil {
		o.Table = lut.Default()
	}
	return nil
}

// NetCanonical reports whether a whole net of degree n is memoized (and
// deduplicated) under its canonical symmetry key rather than its
// translation key: iff small answers it (n ≤ λ) from the table, whose
// query is equivariant under all 8 plane symmetries. Larger nets run the
// local search and uncovered small ones the DP, and both only
// reproduce their trees exactly under translation. lambda must be
// resolved; a nil table means no coverage.
func NetCanonical(n, lambda int, table *lut.Table) bool {
	return n <= lambda && table != nil && table.Covers(n)
}

// RouteContext computes a Pareto set of routing trees for the net: the
// exact frontier for degree ≤ λ, a locally searched approximation
// otherwise. Items are in canonical frontier order. The context is checked
// once per local-search iteration (and threaded into the exact DP's subset
// loop), so a deadline aborts within one step of whichever engine is
// running.
func RouteContext(ctx context.Context, net tree.Net, opts Options) ([]pareto.Item[*tree.Tree], error) {
	n := net.Degree()
	if n == 0 {
		return nil, fmt.Errorf("core: empty net")
	}
	if err := opts.Resolve(); err != nil {
		return nil, err
	}
	if n <= opts.Lambda {
		return small(ctx, net, opts)
	}
	return localSearch(ctx, net, opts)
}

// FrontierContext returns only the objective vectors of RouteContext.
func FrontierContext(ctx context.Context, net tree.Net, opts Options) ([]pareto.Sol, error) {
	items, err := RouteContext(ctx, net, opts)
	if err != nil {
		return nil, err
	}
	sols := make([]pareto.Sol, len(items))
	for i, it := range items {
		sols[i] = it.Sol
	}
	return sols, nil
}

// small answers a small-degree net exactly: lookup table when covered,
// concrete Pareto-DW otherwise. opts must be resolved.
func small(ctx context.Context, net tree.Net, opts Options) ([]pareto.Item[*tree.Tree], error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if items, ok, err := opts.Table.Query(net); err == nil && ok {
		return items, nil
	} else if err != nil {
		return nil, err
	}
	return dw.FrontierContext(ctx, net, dw.DefaultOptions())
}

func localSearch(ctx context.Context, net tree.Net, opts Options) ([]pareto.Item[*tree.Tree], error) {
	n, lambda := net.Degree(), opts.Lambda
	iters := opts.Iterations
	if iters <= 0 {
		iters = n / lambda
		if iters < 1 {
			iters = 1
		}
	}
	// One evaluator serves every tree evaluation of this search — policy
	// scoring, rebuild compaction, Steinerisation, rebalancing — so the
	// steady state allocates only the candidate trees themselves.
	ev := tree.NewEvaluator()
	cache := opts.Cache
	if cache == nil && !opts.NoCache {
		cache = NewSubCache(0)
	}
	var key hanan.Key
	t0 := rsmt.Tree(net)
	set := &pareto.Set[*tree.Tree]{}
	set.Add(ev.Sol(t0), t0)

	// The descent base: the tree whose worst pins the next iteration
	// regenerates. Starting from T0 and advancing to the best-delay
	// candidate of each round makes improvements compound — after ⌊n/λ⌋
	// rounds every pin has been regenerated roughly once (the Pareto-KS
	// connection of Remark 1). Rebuilding only the Pareto set's max-delay
	// element would rebuild T0 (which stays Pareto-optimal as the min-wire
	// point) forever and never reach the low-delay end of the frontier.
	base := t0
	// rebalance runs the SALT-style ε grid over t (§V-B "post-processing
	// techniques as in SALT"). When t is structurally identical to the
	// last tree the grid ran on, the pass is skipped: Rebalance is
	// deterministic and pareto.Set.Add rejects duplicate solutions, so
	// rerunning it on an unchanged base cannot change the set.
	var rebalanced *tree.Tree
	rebalance := func(t *tree.Tree) {
		if !opts.NoCache && rebalanced != nil && treesEqual(t, rebalanced) {
			return
		}
		for _, eps := range rebalanceGrid {
			v := salt.RebalanceWith(t, net, eps, ev)
			set.Add(ev.Sol(v), v)
		}
		rebalanced = t
	}
	// SALT-style post-processing of the seed: the rebalanced variants of
	// T0 give the frontier its shallow-tree backbone, which later rebuilds
	// refine; without them the first iterations explore only around the
	// RSMT end.
	if !opts.NoRefine {
		rebalance(t0)
	}
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var sel []int
		if opts.RandomSelection {
			sel = chunkSelection(n, lambda-1, it)
		} else {
			params := policy.DefaultParams(n)
			if opts.Params != nil {
				params = *opts.Params
			}
			sel = policy.SelectWith(net, base, lambda-1, params, ev)
		}
		if len(sel) == 0 {
			break
		}
		subFront, err := subFrontier(ctx, net, sel, opts, cache, &key)
		if err != nil {
			return nil, err
		}
		var next *tree.Tree
		var nextD int64
		for _, st := range subFront {
			cand, err := rebuildWith(net, base, sel, st.Val, ev)
			if err != nil {
				return nil, err
			}
			if !opts.NoRefine {
				cand.SteinerizeWith(ev)
			}
			sol := ev.Sol(cand)
			set.Add(sol, cand)
			if next == nil || sol.D < nextD {
				next, nextD = cand, sol.D
			}
			// Wirelength-greedy variant (may trade delay for wirelength).
			if !opts.NoRefine {
				v := cand.Clone()
				if v.RelocateSteinersWith(ev) {
					v.SteinerizeWith(ev)
					set.Add(ev.Sol(v), v)
				}
			}
		}
		if next == nil {
			break
		}
		base = next
		// Rebalanced variants of the current base repair paths that the
		// local window could not see — rebuilt subtrees may intersect the
		// other n−λ pins' routing.
		if !opts.NoRefine {
			rebalance(base)
		}
	}
	return set.Items(), nil
}

// treesEqual reports structural equality: same nodes, parents and root.
func treesEqual(a, b *tree.Tree) bool {
	if a.Root != b.Root || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] || a.Parent[i] != b.Parent[i] {
			return false
		}
	}
	return true
}

// rebalanceGrid is the ε grid of the SALT-style post-processing passes.
var rebalanceGrid = []float64{0, 0.02, 0.05, 0.1, 0.15, 0.25, 0.4, 0.6, 0.9, 1.3, 2}

// chunkSelection deterministically rotates through the sinks (the
// random-selection ablation baseline). The k window indices
// 1+(start+i)%sinks for i < k ≤ sinks are distinct by construction.
func chunkSelection(n, k, round int) []int {
	sinks := n - 1
	if k > sinks {
		k = sinks
	}
	sel := make([]int, 0, k)
	start := (round * k) % sinks
	for i := 0; i < k; i++ {
		sel = append(sel, 1+(start+i)%sinks)
	}
	return sel
}

// subFrontier computes the exact Pareto frontier of source + selected
// pins, with trees relabelled into the parent net's pin frame.
func subFrontier(ctx context.Context, net tree.Net, sel []int, opts Options, cache *SubCache, key *hanan.Key) ([]pareto.Item[*tree.Tree], error) {
	return windowFrontier(ctx, net, append([]int{0}, sel...), opts, cache, key)
}

// windowKeys pools memo keys for WindowFrontier callers that have no
// per-search key of their own (the hierarchical router's cluster fan-out
// runs thousands of windows per net across workers).
var windowKeys = sync.Pool{New: func() any { return new(hanan.Key) }}

// WindowFrontier computes the exact Pareto frontier of the window given by
// parent-net pin indices — pins[0] is the window's source — with trees
// relabelled into the parent net's pin frame. It is the local search's
// sub-frontier solve exposed for external window decompositions
// (internal/hier routes every cluster through it): the window hits the
// lookup table's symbolic path when its degree is covered and the
// sub-frontier memo passed in opts.Cache (nil means no memo), so results
// are byte-identical with the memo cold, warm, or absent.
func WindowFrontier(ctx context.Context, net tree.Net, pins []int, opts Options) ([]pareto.Item[*tree.Tree], error) {
	if err := opts.Resolve(); err != nil {
		return nil, err
	}
	if len(pins) < 2 {
		return nil, fmt.Errorf("core: window needs at least 2 pins, got %d", len(pins))
	}
	for _, p := range pins {
		if p < 0 || p >= net.Degree() {
			return nil, fmt.Errorf("core: window pin %d out of range [0,%d)", p, net.Degree())
		}
	}
	cache := opts.Cache
	if opts.NoCache {
		cache = nil
	}
	key := windowKeys.Get().(*hanan.Key)
	defer windowKeys.Put(key)
	return windowFrontier(ctx, net, pins, opts, cache, key)
}

// windowFrontier computes the exact Pareto frontier of the window of
// parent-net pin indices pins (pins[0] is the window source), with trees
// relabelled into the parent net's pin frame. With a cache, the window is
// answered from the memo when an equivalent window was solved before. A
// window is keyed canonically iff the table covers its degree: small
// answers every window exactly, so the table's symmetry equivariance is
// the only condition (see SubCache). opts must be resolved.
func windowFrontier(ctx context.Context, net tree.Net, pins []int, opts Options, cache *SubCache, key *hanan.Key) ([]pareto.Item[*tree.Tree], error) {
	sub := tree.Net{Pins: make([]geom.Point, len(pins))}
	for i, p := range pins {
		sub.Pins[i] = net.Pins[p]
	}
	var items []pareto.Item[*tree.Tree]
	hit := false
	if cache != nil {
		key.Set(sub, opts.Table.Covers(sub.Degree()))
		if opts.Trace != nil {
			opts.Trace.Windows = append(opts.Trace.Windows, TraceWindow{
				Key:  string(key.Bytes()),
				Pins: append([]int(nil), pins...),
			})
		}
		items, _, hit = cache.Get(key)
	}
	if !hit {
		var err error
		if items, err = small(ctx, sub, opts); err != nil {
			return nil, err
		}
		if cache != nil {
			cache.Put(key, items, nil)
		}
	}
	for _, it := range items {
		if err := it.Val.RelabelPins(pins); err != nil {
			return nil, err
		}
	}
	return items, nil
}

// StepHypervolume executes one local-search step on base with the given
// pin selection and returns the hypervolume (w.r.t. ref) of the Pareto set
// of {base} ∪ rebuilt candidates. It is the selection-quality signal the
// policy trainer optimises (examples/training).
func StepHypervolume(net tree.Net, base *tree.Tree, sel []int, ref pareto.Sol) (float64, error) {
	var opts Options
	if err := opts.Resolve(); err != nil {
		return 0, err
	}
	subFront, err := subFrontier(context.Background(), net, sel, opts, nil, nil)
	if err != nil {
		return 0, err
	}
	ev := tree.GetEvaluator()
	defer tree.PutEvaluator(ev)
	sols := []pareto.Sol{ev.Sol(base)}
	for _, st := range subFront {
		cand, err := rebuildWith(net, base, sel, st.Val, ev)
		if err != nil {
			return 0, err
		}
		cand.SteinerizeWith(ev)
		sols = append(sols, ev.Sol(cand))
	}
	return pareto.Hypervolume(sols, ref), nil
}

// rebuildWith clones base, detaches the selected pins (demoting their
// nodes to Steiner points so downstream subtrees stay connected), grafts
// the regenerated subtree at the root, and compacts, evaluating through
// ev's scratch.
func rebuildWith(net tree.Net, base *tree.Tree, sel []int, sub *tree.Tree, ev *tree.Evaluator) (*tree.Tree, error) {
	out := base.Clone()
	for _, pin := range sel {
		if err := out.RemovePinWith(pin, ev); err != nil {
			return nil, err
		}
	}
	out.GraftWith(sub, out.Root, ev)
	out.CompactWith(ev)
	if err := out.Validate(net); err != nil {
		return nil, fmt.Errorf("core: rebuilt tree invalid: %w", err)
	}
	return out, nil
}
