package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"patlabor/internal/core"
	"patlabor/internal/dw"
	"patlabor/internal/geom"
	"patlabor/internal/hier"
	"patlabor/internal/lut"
	"patlabor/internal/rsmt"
	"patlabor/internal/tree"
)

// layerSumTolerance is how far the layers' self times may sum from the
// operation total before the traced run flags the breakdown.
const layerSumTolerance = 0.05

// tracedPassFactor is a traced pass's nominal duration relative to an
// untraced one: the replays route every net a second time.
const tracedPassFactor = 3

// traceDir is where a traced run writes its spans, relative to the
// directory it runs in.
const traceDir = ".bench_build/traces"

// span is one timed call at a layer boundary. The root span of an
// operation is the call the untraced run times; the layer calls replayed
// after it on the same inputs are its children by attribution, not by
// time. A layer's self time is its spans' durations minus its children's.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps one pass's spans in memory.
type tracer struct {
	origin time.Time
	spans  []span
}

// timed runs fn inside a new span and returns the span's index.
func (t *tracer) timed(name string, op, parent int, fn func()) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(t.origin))})
	fn()
	t.spans[id].End = int64(time.Since(t.origin))
	return id
}

// layer aggregates the spans of one name: their count and busy time, and
// the busy time of their children.
type layer struct {
	busy, children time.Duration
	count          int
}

// self is the layer's busy time minus its children's, clamped at zero:
// children replayed slower than the call they explain would otherwise
// read as negative time. The clamp is what makes the layer sum exceed
// the operation total.
func (l *layer) self() time.Duration { return max(0, l.busy-l.children) }

// addLayers folds the pass's spans into acc and returns the total of its
// root spans.
func (t *tracer) addLayers(acc map[string]*layer) (rootTotal time.Duration) {
	get := func(name string) *layer {
		l := acc[name]
		if l == nil {
			l = &layer{}
			acc[name] = l
		}
		return l
	}
	for _, s := range t.spans {
		l := get(s.Name)
		l.busy += s.dur()
		l.count++
		if s.Parent < 0 {
			rootTotal += s.dur()
		} else {
			get(t.spans[s.Parent].Name).children += s.dur()
		}
	}
	return rootTotal
}

// replayer calls the layers' public functions on the inputs of a traced
// operation: core.RouteContext with a mirror sub-frontier memo and a
// SubTrace, rsmt.Tree, and for each window the memo saw first (a miss)
// the lut.Table.Query and, when the table misses, dw.FrontierContext the
// router ran.
type replayer struct {
	tr      *tracer
	tab     *lut.Table
	mirror  *core.SubCache
	seen    map[string]bool
	windows int64 // windows the replayed routes consulted, hits included
}

func newReplayer(tr *tracer, tab *lut.Table) *replayer {
	return &replayer{tr: tr, tab: tab, mirror: core.NewSubCache(0), seen: map[string]bool{}}
}

// warm routes net through the mirror memo without spans, so windows an
// untraced set-up step solved count as seen.
func (r *replayer) warm(ctx context.Context, net tree.Net) error {
	st := &core.SubTrace{}
	if _, err := core.RouteContext(ctx, net, core.Options{Table: r.tab, Cache: r.mirror, Trace: st}); err != nil {
		return err
	}
	for _, w := range st.Windows {
		r.seen[w.Key] = true
	}
	return nil
}

// route replays one flat route of net under parent.
func (r *replayer) route(ctx context.Context, net tree.Net, op, parent int) error {
	st := &core.SubTrace{}
	var err error
	id := r.tr.timed("core.route", op, parent, func() {
		_, err = core.RouteContext(ctx, net, core.Options{Table: r.tab, Cache: r.mirror, Trace: st})
	})
	if err != nil {
		return err
	}
	if net.Degree() > core.DefaultLambda {
		r.tr.timed("rsmt.tree", op, id, func() { rsmt.Tree(net) })
	} else if err := r.small(ctx, net, op, id); err != nil {
		return err
	}
	return r.replayWindows(ctx, net, st.Windows, op, id)
}

// replayWindows replays the table and DP calls of the windows seen for
// the first time.
func (r *replayer) replayWindows(ctx context.Context, net tree.Net, ws []core.TraceWindow, op, parent int) error {
	for _, w := range ws {
		r.windows++
		if r.seen[w.Key] {
			continue
		}
		r.seen[w.Key] = true
		sub := tree.Net{Pins: make([]geom.Point, len(w.Pins))}
		for i, p := range w.Pins {
			sub.Pins[i] = net.Pins[p]
		}
		if err := r.small(ctx, sub, op, parent); err != nil {
			return err
		}
	}
	return nil
}

// small replays core's exact path: the table query, then the concrete DP
// when the table does not cover the net.
func (r *replayer) small(ctx context.Context, net tree.Net, op, parent int) error {
	var ok bool
	var err error
	r.tr.timed("lut.query", op, parent, func() { _, ok, err = r.tab.Query(net) })
	if err != nil || ok {
		return err
	}
	r.tr.timed("dw.frontier", op, parent, func() { _, err = dw.FrontierContext(ctx, net, dw.DefaultOptions()) })
	return err
}

// hier replays the hierarchical router's steps on net: the partition and
// ports, one window per non-singleton cluster rooted at its port, then the
// top-level net over the ports, recursively above the crossover.
func (r *replayer) hier(ctx context.Context, net tree.Net, op, parent int) error {
	if net.Degree() <= hier.DefaultCrossover {
		return r.route(ctx, net, op, parent)
	}
	var clusters [][]int
	var ports []int
	r.tr.timed("hier.partition", op, parent, func() {
		clusters = hier.Partition(net, hierClusterSize(r.tab))
		ports = make([]int, len(clusters))
		for i, cl := range clusters {
			ports[i] = hier.Port(net, cl)
		}
	})
	for i, cl := range clusters {
		if len(cl) == 1 {
			continue
		}
		pins := []int{ports[i]}
		for _, p := range cl {
			if p != ports[i] {
				pins = append(pins, p)
			}
		}
		st := &core.SubTrace{}
		var err error
		id := r.tr.timed("hier.window", op, parent, func() {
			_, err = core.WindowFrontier(ctx, net, pins, core.Options{Table: r.tab, Cache: r.mirror, Trace: st})
		})
		if err != nil {
			return err
		}
		if err := r.replayWindows(ctx, net, st.Windows, op, id); err != nil {
			return err
		}
	}
	top := tree.Net{Pins: []geom.Point{net.Pins[0]}}
	for _, p := range ports {
		top.Pins = append(top.Pins, net.Pins[p])
	}
	return r.hier(ctx, top, op, parent)
}

// hierClusterSize is hier's adaptive cluster size: the largest degree the
// table covers up to λ, at least hier.MinClusterSize.
func hierClusterSize(tab *lut.Table) int {
	return max(hier.MinClusterSize, tab.MaxCovered(core.DefaultLambda))
}

// counts are the exact counters of the traced passes, read around the
// root calls only, so the replays never count.
type counts struct {
	passes, ops                    int64
	lutHits, lutMisses             int64
	evaluated, materialized        int64
	subHits, subMisses, subEntries int64
	dedupHits, dedupMisses         int64
	ecoHits, reroutes              int64
	invalidations, dirtySubtrees   int64
	hierClusters                   int64
	windows                        int64
	hitMS, fullMS                  []float64
}

// tableDelta runs fn and adds the table traffic it caused to c.
func (c *counts) tableDelta(tab *lut.Table, fn func()) {
	h0, m0 := tab.Counters()
	e0, z0 := tab.EvalCounters()
	fn()
	h1, m1 := tab.Counters()
	e1, z1 := tab.EvalCounters()
	c.lutHits += h1 - h0
	c.lutMisses += m1 - m0
	c.evaluated += e1 - e0
	c.materialized += z1 - z0
}

// traceBatch traces one pass of engine.RouteAll calls: the call is the
// root span; each routed net is replayed flat (iccad_mix, small_nets) or
// hierarchically (hugenet) under it. Planted copies are skipped: the
// engine's dedup answers them without routing.
func traceBatch(ctx context.Context, d *batchRunner, rp *replayer, c *counts) error {
	for i, chunk := range d.chunks {
		var id int
		c.tableDelta(rp.tab, func() {
			id = rp.tr.timed("engine.route_all", i, -1, func() { _ = d.do(ctx, i) })
		})
		c.ops += int64(len(chunk))
		for j, net := range chunk {
			if d.copies != nil && d.copies[i][j] {
				continue
			}
			var err error
			if d.method == "hier" {
				err = rp.hier(ctx, net, i, id)
			} else {
				err = rp.route(ctx, net, i, id)
			}
			if err != nil {
				return err
			}
		}
	}
	s := d.eng.Stats()
	c.subHits += s.SubFrontierHits
	c.subMisses += s.SubFrontierMisses
	c.subEntries += int64(rp.mirror.Len())
	c.dedupHits += s.DedupHits
	c.dedupMisses += s.DedupMisses
	c.hierClusters += s.HierClusters
	return nil
}

// traceEco traces one pass of reroutes: Handle.Reroute is the root span,
// tagged as a memo hit or a full reroute by the session's counters; a
// full reroute is replayed flat on the post-edit net under it. The mirror
// memo must already hold the tracked nets' windows (replayer.warm).
func traceEco(ctx context.Context, d *ecoRunner, rp *replayer, c *counts) error {
	sess := d.eng.Rerouter()
	sh0, sm0 := sess.SubCache().Counters()
	for i := 0; i < d.calls(); i++ {
		before := sess.Stats()
		var id int
		c.tableDelta(rp.tab, func() {
			id = rp.tr.timed("eco.reroute", i, -1, func() { _ = d.do(ctx, i) })
		})
		after := sess.Stats()
		c.ops++
		c.reroutes += after.Reroutes - before.Reroutes
		c.ecoHits += after.EcoHits - before.EcoHits
		c.invalidations += after.CacheInvalidations - before.CacheInvalidations
		c.dirtySubtrees += after.DirtySubtrees - before.DirtySubtrees
		lat := ms(rp.tr.spans[id].dur())
		if after.FullReroutes == before.FullReroutes {
			c.hitMS = append(c.hitMS, lat)
			continue
		}
		c.fullMS = append(c.fullMS, lat)
		if err := rp.route(ctx, d.post[i], i, id); err != nil {
			return err
		}
	}
	sh1, sm1 := sess.SubCache().Counters()
	c.subHits += sh1 - sh0
	c.subMisses += sm1 - sm0
	c.subEntries += int64(sess.SubCache().Len())
	return nil
}

// gcReading is the runtime's cumulative GC accounting.
type gcReading struct {
	gcCPU, totalCPU float64
	cycles          uint32
}

func readGC() gcReading {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcReading{gcCPU: samples[0].Value.Float64(), totalCPU: samples[1].Value.Float64(), cycles: m.NumGC - m.NumForcedGC}
}

// traceRun is the traced run: set-up, a warm-up pass, one untraced pass
// on block 1 (GC accounting, and the throughput the tracing overhead is
// measured against), then traced passes on blocks 1, 2, ... It writes the
// first traced pass's spans to traceDir.
func traceRun(ctx context.Context, w *workload, seed int64, seconds float64, stderr io.Writer) (*result, error) {
	d, tab, _, err := setUp(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	runPass(ctx, d)

	d = nil
	if d, err = next(ctx, w, seed, 1, tab); err != nil {
		return nil, err
	}
	res := &result{digest: d.digest()}
	g0 := readGC()
	p := runPass(ctx, d)
	runtime.GC()
	g1 := readGC()
	verify(ctx, d, tab, res, nil)
	untraced := float64(p.ops) / p.wall.Seconds()

	acc := map[string]*layer{}
	var c counts
	var opTotal, tracedWall time.Duration
	var first []span
	passes := max(1, int(math.Round(seconds/(tracedPassFactor*w.passSeconds))))
	for k := 0; k < passes; k++ {
		d = nil
		if d, err = next(ctx, w, seed, 1+k%w.blocks, tab); err != nil {
			return nil, err
		}
		tr := &tracer{origin: time.Now()}
		rp := newReplayer(tr, tab)
		if ed, ok := d.(*ecoRunner); ok {
			for _, net := range ed.nets {
				if err := rp.warm(ctx, net); err != nil {
					return nil, err
				}
			}
		}
		start := time.Now()
		switch d := d.(type) {
		case *batchRunner:
			err = traceBatch(ctx, d, rp, &c)
		case *ecoRunner:
			err = traceEco(ctx, d, rp, &c)
		}
		if err != nil {
			return nil, err
		}
		tracedWall += time.Since(start)
		opTotal += tr.addLayers(acc)
		c.windows += rp.windows
		c.passes++
		if first == nil {
			first = tr.spans
		}
	}
	if err := writeSpans(traceDir, w.name, seed, first); err != nil {
		return nil, err
	}

	perPass := func(x int64) float64 { return float64(x) / float64(c.passes) }
	sec := func(name string, self bool) float64 {
		l := acc[name]
		if l == nil {
			return 0
		}
		if self {
			return l.self().Seconds() / float64(c.passes)
		}
		return l.busy.Seconds() / float64(c.passes)
	}
	perCall := func(name string, unit time.Duration) float64 {
		if l := acc[name]; l != nil && l.count > 0 {
			return float64(l.busy) / float64(l.count) / float64(unit)
		}
		return 0
	}
	total := opTotal.Seconds() / float64(c.passes)
	share := func(x float64) float64 { return ratio(x, total) }

	res.set("lut.calls", perPass(c.lutHits+c.lutMisses), "count")
	res.set("lut.busy_s", sec("lut.query", false), "s")
	res.set("lut.us_per_call", perCall("lut.query", time.Microsecond), "us")
	res.set("lut.hit_ratio", ratio(float64(c.lutHits), float64(c.lutHits+c.lutMisses)), "1")
	res.set("lut.materialized_per_evaluated", ratio(float64(c.materialized), float64(c.evaluated)), "1")
	// Every table miss of the root calls is one concrete DP run.
	res.set("dw.calls", perPass(c.lutMisses), "count")
	res.set("dw.busy_s", sec("dw.frontier", false), "s")
	res.set("dw.ms_per_call", perCall("dw.frontier", time.Millisecond), "ms")
	res.set("dw.share", share(sec("dw.frontier", false)), "1")
	res.set("rsmt.calls", perPass(int64(countOf(acc, "rsmt.tree"))), "count")
	res.set("rsmt.busy_s", sec("rsmt.tree", false), "s")
	res.set("rsmt.share", share(sec("rsmt.tree", false)), "1")
	res.set("core.windows_per_op", ratio(float64(c.windows), float64(c.ops)), "1/op")
	res.set("core.self_s", sec("core.route", true), "s")
	res.set("core.share", share(sec("core.route", true)), "1")
	res.set("subcache.hit_ratio", ratio(float64(c.subHits), float64(c.subHits+c.subMisses)), "1")
	res.set("subcache.entries", perPass(c.subEntries), "count")
	res.set("engine.dedup_hit_ratio", ratio(float64(c.dedupHits), float64(c.dedupHits+c.dedupMisses)), "1")
	stitch := 0.0
	engineSelf := sec("engine.route_all", true)
	if bd, ok := d.(*batchRunner); ok && bd.method == "hier" {
		// The hierarchical router's combine step runs inside the engine
		// call with no public entry point of its own.
		stitch, engineSelf = engineSelf, 0
	}
	res.set("engine.self_s", engineSelf, "s")
	res.set("eco.hit_ratio", ratio(float64(c.ecoHits), float64(c.reroutes)), "1")
	res.set("eco.invalidations_per_op", ratio(float64(c.invalidations), float64(c.reroutes)), "1/op")
	res.set("eco.dirty_subtrees_per_op", ratio(float64(c.dirtySubtrees), float64(c.reroutes)), "1/op")
	res.set("eco.hit_ms_p50", quantile(c.hitMS, 0.5), "ms")
	res.set("eco.full_ms_p50", quantile(c.fullMS, 0.5), "ms")
	res.set("hier.partition_s", sec("hier.partition", false), "s")
	res.set("hier.window_s", sec("hier.window", false), "s")
	res.set("hier.stitch_s", stitch, "s")
	res.set("hier.clusters_per_op", ratio(float64(c.hierClusters), float64(c.ops)), "1/op")
	res.set("runtime.gc_cpu_frac", ratio(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU), "1")
	res.set("runtime.gc_cycles_per_op", ratio(float64(g1.cycles-g0.cycles), float64(p.ops)), "1/op")

	var selfSum time.Duration
	for _, l := range acc {
		selfSum += l.self()
	}
	sum := ratio(selfSum.Seconds(), opTotal.Seconds())
	flagged := 0.0
	if math.Abs(sum-1) > layerSumTolerance {
		flagged = 1
		fmt.Fprintf(stderr, "perfbench: %s: layer self times sum to %.3f of the operation total\n", w.name, sum)
	}
	if replays := countOf(acc, "dw.frontier"); int64(replays) != c.lutMisses {
		fmt.Fprintf(stderr, "perfbench: %s: %d DP replays for %d table misses\n", w.name, replays, c.lutMisses)
	}
	res.set("trace.layer_sum_ratio", sum, "1")
	res.set("trace.layer_sum_flagged", flagged, "1")
	res.set("trace.ops_per_s", ratio(float64(c.ops), tracedWall.Seconds()), "op/s")
	res.set("trace.untraced_ops_per_s", untraced, "op/s")
	res.set("trace.overhead", ratio(untraced*tracedWall.Seconds(), float64(c.ops)), "1")
	return res, nil
}

func countOf(acc map[string]*layer, name string) int {
	if l := acc[name]; l != nil {
		return l.count
	}
	return 0
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes spans as JSON to dir/<workload>-seed<seed>.json.
func writeSpans(dir, name string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)), b, 0o644)
}
