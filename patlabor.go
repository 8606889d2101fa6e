// Package patlabor is a from-scratch Go implementation of PatLabor
// ("Pareto Optimization of Timing-Driven Routing Trees", DAC 2025):
// bicriterion routing-tree construction that returns the Pareto frontier
// of total wirelength w(T) and source-to-sink delay d(T) instead of a
// single parameter-tuned compromise.
//
// The entry point is Route: exact Pareto frontiers for small-degree nets
// (lookup tables / Pareto-DW dynamic programming) and policy-guided local
// search for large-degree nets. The baselines the paper compares against
// (SALT, YSD, Prim–Dijkstra, RSMT/FLUTE-role, RSMA/CL-role, Pareto-KS) are
// exposed for benchmarking. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record.
//
//	net := patlabor.NewNet(patlabor.Pt(0, 0), patlabor.Pt(40, 10), patlabor.Pt(35, -20))
//	cands, err := patlabor.Route(net, patlabor.Options{})
//	for _, c := range cands {
//	    fmt.Println(c.Sol.W, c.Sol.D) // one tree per Pareto point in c.Val
//	}
package patlabor

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"patlabor/internal/bookshelf"
	"patlabor/internal/core"
	"patlabor/internal/dw"
	"patlabor/internal/eco"
	"patlabor/internal/elmore"
	"patlabor/internal/engine"
	"patlabor/internal/geom"
	"patlabor/internal/ks"
	"patlabor/internal/lut"
	"patlabor/internal/method"
	"patlabor/internal/pareto"
	"patlabor/internal/pd"
	"patlabor/internal/policy"
	"patlabor/internal/rsma"
	"patlabor/internal/rsmt"
	"patlabor/internal/salt"
	"patlabor/internal/tree"
	"patlabor/internal/ysd"
)

// Point is a pin position in the rectilinear plane.
type Point = geom.Point

// Pt constructs a Point.
func Pt(x, y int64) Point { return geom.Pt(x, y) }

// Net is a routing instance: Pins[0] is the source, the rest are sinks.
type Net = tree.Net

// NewNet builds a net from a source and its sinks.
func NewNet(source Point, sinks ...Point) Net { return tree.NewNet(source, sinks...) }

// Tree is a rooted rectilinear Steiner routing tree.
type Tree = tree.Tree

// Solution is one objective vector (wirelength W, delay D).
type Solution = pareto.Sol

// Candidate pairs a Pareto-optimal objective vector with a tree attaining
// it.
type Candidate = pareto.Item[*tree.Tree]

// Options configures Route.
type Options struct {
	// Lambda is the small-net threshold λ (default 9): nets with at most
	// λ pins are solved exactly; larger nets use local search with
	// λ-pin lookup-table regeneration steps.
	Lambda int
	// Iterations overrides the local-search iteration count (default
	// ⌊n/λ⌋ as in the paper).
	Iterations int
	// TablePath optionally points at a flat lookup-table file (.plut)
	// produced by cmd/lutgen; its degrees are merged over the built-in
	// eager tables. The file is memory-mapped read-only: queries start in
	// milliseconds and every process mapping the same file shares one
	// page-cache copy. Any other file content is an error.
	TablePath string
	// PolicyParams overrides the trained pin-selection policy weights.
	PolicyParams *PolicyParams
	// NoCache disables the local search's sub-frontier memo and, for
	// batch routing, the cross-net dedup. Frontiers are byte-identical
	// either way; the flag exists for A-B benchmarking and for runs that
	// must not retain per-batch cache memory.
	NoCache bool
}

// PolicyParams are the four selection-policy weights of §V-B.
type PolicyParams = policy.Params

// Route computes a Pareto set of routing trees for the net: the exact
// frontier when the degree is at most λ, a locally searched approximation
// otherwise. Candidates are ordered by increasing wirelength (and thus
// decreasing delay).
func Route(net Net, opts Options) ([]Candidate, error) {
	return RouteContext(context.Background(), net, opts)
}

// RouteContext is Route under a context: cancelling ctx (or letting its
// deadline expire) aborts the exact DP at subset granularity and the local
// search at iteration granularity.
func RouteContext(ctx context.Context, net Net, opts Options) ([]Candidate, error) {
	copts, err := prepareOptions(opts)
	if err != nil {
		return nil, err
	}
	return core.RouteContext(ctx, net, copts)
}

// Methods lists the registered routing methods (primary names, in
// registration order): PatLabor plus every baseline. Any of them — or
// their aliases such as "pd", "ks", "dw" — can be passed to RouteWith.
func Methods() []string { return method.Names() }

// RouteWith routes the net with the named registry method (case-
// insensitive; see Methods). The "patlabor" method honours opts; baselines
// route with their own defaults and ignore opts.
func RouteWith(ctx context.Context, name string, net Net, opts Options) ([]Candidate, error) {
	if name == "" || method.Key(name) == "patlabor" {
		return RouteContext(ctx, net, opts)
	}
	m, ok := method.Get(name)
	if !ok {
		return nil, fmt.Errorf("patlabor: unknown method %q (have %s)",
			name, strings.Join(method.Names(), ", "))
	}
	return m.Frontier(ctx, net)
}

// tableCache memoizes lookup-table files by path: loading and eager
// generation are expensive, and Route may be called per net, so each path
// is read and resolved exactly once per process.
var tableCache struct {
	mu     sync.Mutex
	tables map[string]*lut.Table
}

// loadTable returns the resolved table for path, reading the file on the
// first call only. The mutex covers the load, so concurrent first calls
// do not read the file twice.
func loadTable(path string) (*lut.Table, error) {
	tableCache.mu.Lock()
	defer tableCache.mu.Unlock()
	if t, ok := tableCache.tables[path]; ok {
		return t, nil
	}
	t, err := lut.Open(path)
	if err != nil {
		return nil, fmt.Errorf("patlabor: loading table: %w", err)
	}
	if tableCache.tables == nil {
		tableCache.tables = map[string]*lut.Table{}
	}
	tableCache.tables[path] = t
	return t, nil
}

// prepareOptions resolves the public Options into the core configuration.
func prepareOptions(opts Options) (core.Options, error) {
	copts := core.Options{
		Lambda:     opts.Lambda,
		Iterations: opts.Iterations,
		Params:     opts.PolicyParams,
		NoCache:    opts.NoCache,
	}
	if opts.TablePath != "" {
		t, err := loadTable(opts.TablePath)
		if err != nil {
			return core.Options{}, err
		}
		copts.Table = t
	}
	return copts, nil
}

// ExactFrontier computes the provably exact Pareto frontier with the
// Pareto-DW dynamic program. The degree must be at most MaxExactDegree,
// and the pins' half-perimeter at most MaxInt64/(4m) for m distinct
// sinks, the bound under which no objective sum can overflow; larger
// nets return an error.
func ExactFrontier(net Net) ([]Candidate, error) {
	return dw.FrontierContext(context.Background(), net, dw.DefaultOptions())
}

// MaxExactDegree is the largest degree ExactFrontier accepts.
const MaxExactDegree = dw.MaxExactDegree

// RSMT returns a low-wirelength Steiner tree (FLUTE's role in the paper):
// exact minimum wirelength for small degrees, strong heuristics beyond.
func RSMT(net Net) *Tree { return rsmt.Tree(net) }

// RSMA returns a shortest-path Steiner arborescence (the Córdova–Lee
// role): every sink is reached with minimum possible delay.
func RSMA(net Net) *Tree { return rsma.Tree(net) }

// SALTSweep runs the SALT baseline across an ε grid (nil for defaults) and
// returns the Pareto set of the produced trees.
func SALTSweep(net Net, epsilons []float64) []Candidate {
	return salt.Sweep(net, epsilons)
}

// YSDSweep runs the YSD weighted-sum baseline across a β grid (nil for
// defaults).
func YSDSweep(net Net, betas []float64) ([]Candidate, error) {
	return ysd.SweepContext(context.Background(), net, betas)
}

// PDSweep runs the Prim–Dijkstra baseline across an α grid (nil for
// defaults).
func PDSweep(net Net, alphas []float64) []Candidate {
	return pd.Sweep(net, alphas)
}

// KSFrontier runs the Pareto-KS divide-and-conquer approximation (§IV-B).
func KSFrontier(net Net) ([]Candidate, error) {
	return ks.FrontierContext(context.Background(), net, ks.Options{})
}

// RouteAll routes many nets concurrently on a worker pool (workers <= 0
// uses GOMAXPROCS) via the batch engine (internal/engine). Results are
// positionally aligned with nets and identical to routing each net
// serially with Route; the lowest-index failure aborts the batch. For
// cumulative statistics (cache hit rates, per-degree latency histograms)
// construct an Engine directly.
func RouteAll(nets []Net, opts Options, workers int) ([][]Candidate, error) {
	return RouteAllContext(context.Background(), nets, opts, workers)
}

// RouteAllContext is RouteAll under a context: cancellation stops
// dispatching new nets, aborts in-flight nets at their next iteration
// check, and returns ctx.Err() with nil results.
func RouteAllContext(ctx context.Context, nets []Net, opts Options, workers int) ([][]Candidate, error) {
	eopts, err := engineOptions(opts, workers)
	if err != nil {
		return nil, err
	}
	return engine.RouteAll(ctx, nets, eopts)
}

// Engine is the reusable batch router: it keeps the resolved options and
// accumulates EngineStats across RouteAll calls.
type Engine = engine.Engine

// EngineStats is a snapshot of a batch engine's counters.
type EngineStats = engine.Stats

// NewEngine builds a batch engine routing on the given worker-pool size
// (<=0 uses GOMAXPROCS).
func NewEngine(opts Options, workers int) (*Engine, error) {
	eopts, err := engineOptions(opts, workers)
	if err != nil {
		return nil, err
	}
	return engine.New(eopts)
}

// engineOptions resolves public options for the batch engine, sharing the
// process-wide memoized table cache (the engine would otherwise re-read
// the file per NewEngine call).
func engineOptions(opts Options, workers int) (engine.Options, error) {
	eopts := engine.Options{
		Workers:    workers,
		Lambda:     opts.Lambda,
		Iterations: opts.Iterations,
		Params:     opts.PolicyParams,
		NoCache:    opts.NoCache,
	}
	if opts.TablePath != "" {
		t, err := loadTable(opts.TablePath)
		if err != nil {
			return engine.Options{}, err
		}
		eopts.Table = t
	}
	return eopts, nil
}

// Edit is one incremental net mutation (ECO mode): construct edits with
// MovePin, AddSink, RemoveSink and PerturbCoords, then feed them to
// Reroute.
type Edit = eco.Edit

// MovePin repositions pin (the source is allowed) to the absolute
// position p.
func MovePin(pin int, p Point) Edit { return eco.MovePin(pin, p) }

// AddSink appends a sink at p as the highest pin index.
func AddSink(p Point) Edit { return eco.AddSink(p) }

// RemoveSink deletes sink pin (never the source), shifting higher pin
// indices down by one; the net must keep at least two pins.
func RemoveSink(pin int) Edit { return eco.RemoveSink(pin) }

// PerturbCoords nudges pin (the source is allowed) by the relative
// offset d.
func PerturbCoords(pin int, d Point) Edit { return eco.PerturbCoords(pin, d) }

// ApplyEdits applies edits to net in order and returns the post-edit net
// without routing anything; the input net is not mutated. It is the pure
// mutation underlying Reroute, exposed so callers can maintain their own
// net state.
func ApplyEdits(net Net, edits []Edit) (Net, error) {
	next, _, err := eco.Apply(net, edits)
	return next, err
}

// Rerouter is an incremental-rerouting session (ECO mode): nets are
// registered once with Track, then rerouted after each edit batch with
// Reroute at a fraction of the from-scratch cost — while every result
// stays byte-identical to Route on the post-edit net. The speedup comes
// from exactness-preserving reuse only (revisited geometries answered by
// verified isometries, warm sub-frontier windows); see internal/eco. A
// Rerouter is safe for concurrent use. For pooled batch rerouting with
// statistics, use Engine.Track and Engine.RerouteBatch instead.
type Rerouter = eco.Session

// Tracked is one net registered with a Rerouter (or an Engine).
type Tracked = eco.Handle

// RerouteStats is a snapshot of a Rerouter's counters.
type RerouteStats = eco.Stats

// NewRerouter builds an incremental-rerouting session with the resolved
// options (the same resolution Route uses, including the memoized
// lookup-table cache).
func NewRerouter(opts Options) (*Rerouter, error) {
	copts, err := prepareOptions(opts)
	if err != nil {
		return nil, err
	}
	return eco.NewSession(copts)
}

// Reroute applies edits to the tracked net and returns the post-edit
// Pareto frontier, byte-identical to Route on the post-edit net.
//
//	r, _ := patlabor.NewRerouter(patlabor.Options{})
//	h, _ := r.Track(ctx, net)
//	cands, _ := patlabor.Reroute(ctx, h, []patlabor.Edit{
//	    patlabor.MovePin(3, patlabor.Pt(120, -40)),
//	})
func Reroute(ctx context.Context, h *Tracked, edits []Edit) ([]Candidate, error) {
	return h.Reroute(ctx, edits)
}

// ElmoreParams are the RC parameters of the Elmore delay model (see
// internal/elmore): an evaluation-model extension beyond the paper's
// path-length delay.
type ElmoreParams = elmore.Params

// TypicalElmoreParams returns plausible normalised RC parameters.
func TypicalElmoreParams() ElmoreParams { return elmore.TypicalParams() }

// ElmoreDelay returns the maximum sink Elmore delay of a tree.
func ElmoreDelay(t *Tree, p ElmoreParams) float64 { return elmore.MaxDelay(t, p) }

// ElmoreRank returns the indices of the candidates that remain Pareto
// optimal when delay is re-evaluated under the Elmore model.
func ElmoreRank(cands []Candidate, p ElmoreParams) []int { return elmore.Rank(cands, p) }

// NamedNet pairs a net with a name, as read from net files.
type NamedNet = bookshelf.NamedNet

// ReadNets parses a Bookshelf-style net file (see internal/bookshelf for
// the format).
func ReadNets(path string) ([]NamedNet, error) { return bookshelf.ReadFile(path) }

// WriteNets writes nets in the format ReadNets parses.
func WriteNets(path string, nets []NamedNet) error { return bookshelf.WriteFile(path, nets) }
