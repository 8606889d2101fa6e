package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"patlabor/internal/eco"
	"patlabor/internal/engine"
	"patlabor/internal/geom"
	"patlabor/internal/lut"
	"patlabor/internal/netgen"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// Workload sizes. A pass routes one input block on a fresh engine or
// session. Blocks are generated from the seed and the block index, so a
// run that averages over many blocks averages over many placements.
const (
	dieSpan = 100000 // die width and height

	// iccad_mix: every RouteAll call routes iccadChunk nets whose degrees
	// are the decile midpoints of netgen.ICCADMix, so all calls carry the
	// same degree mix and only the placements vary with the seed.
	iccadChunk  = 10
	iccadChunks = 5

	// small_nets: degrees 2-5 in equal shares; every fourth net is a
	// translated and reflected copy of an earlier net of its call.
	smallChunk  = 250
	smallChunks = 80

	// hugenet: one degree-hugeDegree net per RouteAll call on method hier.
	hugeDegree = 1024
	hugeNets   = 10

	// eco_churn: ecoNets tracked nets of degree ecoMinDegree..ecoMaxDegree,
	// ecoSteps edit batches each, rerouted round-robin.
	ecoNets         = 6
	ecoSteps        = 8
	ecoAlternatives = 2
	ecoMinDegree    = 32
	ecoMaxDegree    = 48
	ecoStructPct    = 10
	ecoSampleMask   = 7 // one reroute in eight is also compared with core.Route
)

// workload is one named input family and how it is driven.
type workload struct {
	name string
	// blocks is the number of distinct input blocks a run times.
	blocks int
	// passSeconds is one pass's nominal duration on the reference host
	// (METRICS.md). The number of timed passes depends on --seconds only,
	// so the same seed and --seconds do the same work on any machine.
	passSeconds float64
	// build generates one input block and its runner on tab; the runner's
	// engine or session is built by reset.
	build func(rng *rand.Rand, tab *lut.Table) (runner, error)
}

var workloads = map[string]*workload{
	"iccad_mix":  {name: "iccad_mix", blocks: 5, passSeconds: 1.0, build: buildICCAD},
	"small_nets": {name: "small_nets", blocks: 4, passSeconds: 0.085, build: buildSmall},
	"eco_churn":  {name: "eco_churn", blocks: 5, passSeconds: 0.9, build: buildEco},
	"hugenet":    {name: "hugenet", blocks: 10, passSeconds: 0.45, build: buildHuge},
}

// repeats is how often a run of seconds times each block.
func (w *workload) repeats(seconds float64) int {
	return max(minRepeats, int(math.Round(seconds/(w.passSeconds*float64(w.blocks)))))
}

// block generates input block b of seed; block 0 is the set-up's.
func (w *workload) block(seed int64, b int, tab *lut.Table) (runner, error) {
	// splitmix64 of (seed, b): distinct seeds never share a block.
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(b)*0xbf58476d1ce4e5b9 + 1
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return w.build(rand.New(rand.NewSource(int64(z))), tab)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runner runs a workload's calls against a fresh engine or session per
// pass. A call is what a caller waits on: one RouteAll batch or one
// Reroute. An operation is one net routed or one reroute.
type runner interface {
	// reset replaces the engine or session with a fresh one, so the memo
	// starts cold as in a CLI run.
	reset(ctx context.Context) error
	calls() int
	// do runs call i. It is the only code inside the timed region.
	do(ctx context.Context, i int) error
	// ops is the number of operations call i completes.
	ops(i int) int
	// outputs returns call i's nets and frontiers once do has returned.
	outputs(i int) []output
	// digest identifies the generated inputs.
	digest() string
}

// output is one routed net as the checker sees it.
type output struct {
	net   tree.Net
	items []pareto.Item[*tree.Tree]
	err   error
	// exact asks the checker to also compare the frontier byte for byte
	// with a cacheless core.Route of net.
	exact bool
}

// batchRunner routes fixed chunks of nets with engine.RouteAll.
type batchRunner struct {
	tab    *lut.Table
	method string
	chunks [][]tree.Net
	// copies marks nets planted as isometric copies of a batch-mate; the
	// engine's dedup answers them without routing.
	copies [][]bool
	eng    *engine.Engine
	res    [][]engine.Result
	errs   []error
}

func (d *batchRunner) reset(context.Context) error {
	eng, err := engine.New(engine.Options{Workers: workers, Table: d.tab, Method: d.method})
	if err != nil {
		return err
	}
	d.eng = eng
	d.res = make([][]engine.Result, len(d.chunks))
	d.errs = make([]error, len(d.chunks))
	return nil
}

func (d *batchRunner) calls() int     { return len(d.chunks) }
func (d *batchRunner) digest() string { return digestNets(d.chunks) }
func (d *batchRunner) ops(i int) int  { return len(d.chunks[i]) }

func (d *batchRunner) do(ctx context.Context, i int) error {
	d.res[i], d.errs[i] = d.eng.RouteAll(ctx, d.chunks[i])
	return d.errs[i]
}

func (d *batchRunner) outputs(i int) []output {
	out := make([]output, len(d.chunks[i]))
	for j, net := range d.chunks[i] {
		out[j] = output{net: net, err: d.errs[i]}
		if d.errs[i] == nil {
			out[j].items = d.res[i][j]
		}
	}
	return out
}

// ecoRunner tracks nets on an engine's session and reroutes them
// round-robin: call i applies edit batch i/len(nets) to net i%len(nets).
type ecoRunner struct {
	tab     *lut.Table
	nets    []tree.Net
	streams [][][]eco.Edit
	// post is the net after call i's edits, derived with eco.Apply.
	post    []tree.Net
	sample  []bool
	eng     *engine.Engine
	handles []*eco.Handle
	res     [][]pareto.Item[*tree.Tree]
	errs    []error
}

func (d *ecoRunner) reset(ctx context.Context) error {
	eng, err := engine.New(engine.Options{Workers: workers, Table: d.tab})
	if err != nil {
		return err
	}
	handles, err := eng.Track(ctx, d.nets)
	if err != nil {
		return err
	}
	d.eng, d.handles = eng, handles
	d.res = make([][]pareto.Item[*tree.Tree], d.calls())
	d.errs = make([]error, d.calls())
	return nil
}

func (d *ecoRunner) calls() int     { return len(d.nets) * ecoSteps }
func (d *ecoRunner) digest() string { return digestEco(d.nets, d.streams) }
func (d *ecoRunner) ops(int) int    { return 1 }

func (d *ecoRunner) do(ctx context.Context, i int) error {
	k, step := i%len(d.nets), i/len(d.nets)
	d.res[i], d.errs[i] = d.handles[k].Reroute(ctx, d.streams[k][step])
	return d.errs[i]
}

func (d *ecoRunner) outputs(i int) []output {
	return []output{{net: d.post[i], items: d.res[i], err: d.errs[i], exact: d.sample[i]}}
}

// buildICCAD generates an iccad_mix block.
func buildICCAD(rng *rand.Rand, tab *lut.Table) (runner, error) {
	degrees := make([]int, iccadChunk)
	mix := netgen.ICCADMix()
	for k := range degrees {
		degrees[k] = mixQuantile(mix, (float64(k)+0.5)/iccadChunk)
	}
	d := &batchRunner{tab: tab, chunks: make([][]tree.Net, iccadChunks)}
	for c := range d.chunks {
		chunk := make([]tree.Net, iccadChunk)
		for j, k := range rng.Perm(iccadChunk) {
			deg := degrees[k]
			// netgen.Suite's placement: clustered sinks, displaced source,
			// clusters that widen with degree above 9.
			cspan := int64(4000)
			if deg > 9 {
				cspan *= int64(1 + deg/10)
			}
			chunk[j] = netgen.ClusteredDriver(rng, deg, dieSpan, cspan)
		}
		d.chunks[c] = chunk
	}
	return d, nil
}

// mixQuantile returns the degree at cumulative share q of the mix.
func mixQuantile(mix netgen.DegreeMix, q float64) int {
	var total float64
	for _, e := range mix {
		total += e.Weight
	}
	x := q * total
	for _, e := range mix {
		if x < e.Weight {
			return e.Degree
		}
		x -= e.Weight
	}
	return mix[len(mix)-1].Degree
}

// buildSmall generates a small_nets block.
func buildSmall(rng *rand.Rand, tab *lut.Table) (runner, error) {
	d := &batchRunner{tab: tab, chunks: make([][]tree.Net, smallChunks), copies: make([][]bool, smallChunks)}
	for c := range d.chunks {
		chunk := make([]tree.Net, smallChunk)
		copies := make([]bool, smallChunk)
		var originals []int
		for j := range chunk {
			if j%4 == 3 {
				chunk[j] = isometricCopy(rng, chunk[originals[rng.Intn(len(originals))]])
				copies[j] = true
				continue
			}
			chunk[j] = netgen.ClusteredDriver(rng, 2+len(originals)%4, dieSpan, 4000)
			originals = append(originals, j)
		}
		d.chunks[c], d.copies[c] = chunk, copies
	}
	return d, nil
}

// isometricCopy maps net through a random one of the 8 plane symmetries
// and translates it to a random spot on the die: bit-slice replication.
func isometricCopy(rng *rand.Rand, net tree.Net) tree.Net {
	sym := rng.Intn(8)
	pins := make([]geom.Point, len(net.Pins))
	lo := geom.Pt(1<<62, 1<<62)
	for i, p := range net.Pins {
		x, y := p.X, p.Y
		if sym&1 != 0 {
			x = -x
		}
		if sym&2 != 0 {
			y = -y
		}
		if sym&4 != 0 {
			x, y = y, x
		}
		pins[i] = geom.Pt(x, y)
		lo = geom.Pt(min(lo.X, x), min(lo.Y, y))
	}
	off := geom.Pt(rng.Int63n(dieSpan/2), rng.Int63n(dieSpan/2))
	for i := range pins {
		pins[i] = pins[i].Sub(lo).Add(off)
	}
	return tree.Net{Pins: pins}
}

// buildHuge generates a hugenet block, routed on method hier.
func buildHuge(rng *rand.Rand, tab *lut.Table) (runner, error) {
	d := &batchRunner{tab: tab, method: "hier", chunks: make([][]tree.Net, hugeNets)}
	for i := range d.chunks {
		// The blob layout of cmd/netgen's -megadeg nets.
		d.chunks[i] = []tree.Net{netgen.MegaClustered(rng, hugeDegree, 10*dieSpan, hugeDegree/80+2, 30000)}
	}
	return d, nil
}

// buildEco generates an eco_churn block: the nets, their edit streams
// and the post-edit nets. reset tracks the nets on a fresh session.
//
// Each net toggles between ecoAlternatives candidate edits, the
// try-and-compare loop of a timing ECO: step 2j applies alternative j mod
// ecoAlternatives to the tracked geometry and step 2j+1 reverts it. Only
// the first try of each alternative routes; every revert and every
// retry revisits a routed geometry, which the net memo answers. The fixed
// schedule fixes the memo-hit share at 1 - ecoAlternatives/ecoSteps, away
// from 50% and 90% so that neither latency percentile sits on the
// boundary between hits and full reroutes. Each alternative is one
// netgen.EditStream step.
func buildEco(rng *rand.Rand, tab *lut.Table) (runner, error) {
	d := &ecoRunner{tab: tab, nets: make([]tree.Net, ecoNets), streams: make([][][]eco.Edit, ecoNets)}
	for k := range d.nets {
		deg := ecoMinDegree + k*(ecoMaxDegree-ecoMinDegree)/(ecoNets-1)
		d.nets[k] = netgen.Clustered(rng, deg, dieSpan, 4000)
		alts := make([][]eco.Edit, ecoAlternatives)
		for j := range alts {
			alts[j] = netgen.EditStream(rng, d.nets[k], netgen.EditStreamOptions{
				Steps:             1,
				EditsPerStep:      max(1, deg/10),
				StructuralPercent: ecoStructPct,
				Span:              dieSpan,
			})[0]
		}
		cur := d.nets[k]
		for step := 0; step < ecoSteps; step++ {
			edits := alts[step/2%ecoAlternatives]
			if step%2 == 1 {
				edits = revertEdits(cur, d.nets[k])
			}
			next, _, err := eco.Apply(cur, edits)
			if err != nil {
				return nil, fmt.Errorf("edit stream of net %d, step %d: %w", k, step, err)
			}
			d.streams[k] = append(d.streams[k], edits)
			cur = next
		}
	}
	d.post = make([]tree.Net, d.calls())
	d.sample = make([]bool, d.calls())
	cur := append([]tree.Net(nil), d.nets...)
	for i := range d.post {
		k, step := i%ecoNets, i/ecoNets
		next, _, err := eco.Apply(cur[k], d.streams[k][step])
		if err != nil {
			return nil, err
		}
		cur[k], d.post[i] = next, next
		d.sample[i] = rng.Intn(ecoSampleMask+1) == 0
	}
	return d, nil
}

// revertEdits returns the edits that take net cur back to net to: degree
// adjustments first, so pin indices line up, then a move of every pin that
// differs.
func revertEdits(cur, to tree.Net) []eco.Edit {
	var edits []eco.Edit
	pins := append([]geom.Point(nil), cur.Pins...)
	for len(pins) > to.Degree() {
		edits = append(edits, eco.RemoveSink(len(pins)-1))
		pins = pins[:len(pins)-1]
	}
	for len(pins) < to.Degree() {
		edits = append(edits, eco.AddSink(to.Pins[len(pins)]))
		pins = append(pins, to.Pins[len(pins)])
	}
	for i, p := range pins {
		if p != to.Pins[i] {
			edits = append(edits, eco.MovePin(i, to.Pins[i]))
		}
	}
	return edits
}

// combineDigests hashes the digests of a run's input blocks, in pass
// order.
func combineDigests(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// digestNets hashes every pin of every chunk, in order.
func digestNets(chunks [][]tree.Net) string {
	h := sha256.New()
	var buf []byte
	for _, chunk := range chunks {
		buf = binary.AppendUvarint(buf[:0], uint64(len(chunk)))
		h.Write(buf)
		for _, net := range chunk {
			h.Write(appendNet(buf[:0], net))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// digestEco hashes the tracked nets and every edit of their streams.
func digestEco(nets []tree.Net, streams [][][]eco.Edit) string {
	h := sha256.New()
	var buf []byte
	for k, net := range nets {
		h.Write(appendNet(buf[:0], net))
		for _, step := range streams[k] {
			buf = binary.AppendUvarint(buf[:0], uint64(len(step)))
			for _, e := range step {
				buf = append(buf, byte(e.Op))
				buf = binary.AppendVarint(buf, int64(e.Pin))
				buf = binary.AppendVarint(buf, e.P.X)
				buf = binary.AppendVarint(buf, e.P.Y)
			}
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func appendNet(buf []byte, net tree.Net) []byte {
	buf = binary.AppendUvarint(buf, uint64(net.Degree()))
	for _, p := range net.Pins {
		buf = binary.AppendVarint(buf, p.X)
		buf = binary.AppendVarint(buf, p.Y)
	}
	return buf
}

// describe names a call's first net for failure reports.
func describe(o output) string {
	return fmt.Sprintf("degree-%d net at %v", o.net.Degree(), o.net.Source())
}
