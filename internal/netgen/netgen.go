// Package netgen generates routing instances for tests, experiments and
// benchmarks: uniform and κ-smoothed nets (Definition 1 of the paper),
// clustered placements, the Theorem-1 gadget family with exponentially
// many Pareto-optimal solutions, and an ICCAD-15-like synthetic benchmark
// suite whose per-degree net counts follow the proportions of Table III
// (see DESIGN.md, substitution 1).
package netgen

import (
	"fmt"
	"math/rand"

	"patlabor/internal/geom"
	"patlabor/internal/tree"
)

// Uniform returns a net with n pins placed independently and uniformly on
// the [0,span)² die. Pin 0 is the source.
func Uniform(rng *rand.Rand, n int, span int64) tree.Net {
	pins := make([]geom.Point, n)
	for i := range pins {
		pins[i] = geom.Pt(rng.Int63n(span), rng.Int63n(span))
	}
	return tree.Net{Pins: pins}
}

// Smoothed returns a κ-smoothed net per Definition 1: every coordinate is
// drawn uniformly from a random subinterval of length span/κ, so its
// probability density is at most κ/span everywhere (κ=1 is the uniform
// average case; growing κ approaches worst-case placements).
func Smoothed(rng *rand.Rand, n int, kappa float64, span int64) tree.Net {
	if kappa < 1 {
		kappa = 1
	}
	window := int64(float64(span) / kappa)
	if window < 1 {
		window = 1
	}
	coord := func() int64 {
		lo := int64(0)
		if span > window {
			lo = rng.Int63n(span - window + 1)
		}
		return lo + rng.Int63n(window)
	}
	pins := make([]geom.Point, n)
	for i := range pins {
		pins[i] = geom.Pt(coord(), coord())
	}
	return tree.Net{Pins: pins}
}

// Clustered returns a net whose pins are placed inside a window of size
// clusterSpan positioned uniformly on the die — the placement shape of
// real netlists, where a net's pins sit near their cells.
func Clustered(rng *rand.Rand, n int, span, clusterSpan int64) tree.Net {
	if clusterSpan < 1 {
		clusterSpan = 1
	}
	if clusterSpan > span {
		clusterSpan = span
	}
	lox := rng.Int63n(span - clusterSpan + 1)
	loy := rng.Int63n(span - clusterSpan + 1)
	pins := make([]geom.Point, n)
	for i := range pins {
		pins[i] = geom.Pt(lox+rng.Int63n(clusterSpan), loy+rng.Int63n(clusterSpan))
	}
	return tree.Net{Pins: pins}
}

// ClusteredDriver returns a net shaped like a placed standard-cell net:
// the sinks cluster inside a window, while the source (the driver pin)
// sits displaced from the cluster by roughly the cluster size in a random
// direction. Driver displacement is what creates wirelength/delay tension
// — sinks on the far side of the cluster can be reached through the
// cluster's trunks (cheap, slow) or directly (expensive, fast).
func ClusteredDriver(rng *rand.Rand, n int, span, clusterSpan int64) tree.Net {
	net := Clustered(rng, n, span, clusterSpan)
	if n < 2 {
		return net
	}
	// Displace the source from the cluster centre by 0.5-1.5 cluster
	// sizes in a random direction, clamped to the die.
	src := net.Pins[0]
	d := clusterSpan/2 + rng.Int63n(clusterSpan+1)
	switch rng.Intn(4) {
	case 0:
		src.X += d
	case 1:
		src.X -= d
	case 2:
		src.Y += d
	default:
		src.Y -= d
	}
	src.X = clampCoord(src.X, span)
	src.Y = clampCoord(src.Y, span)
	net.Pins[0] = src
	return net
}

// MegaClustered returns a huge-degree net (internal/hier territory,
// degree 10³–10⁴) shaped like a placed high-fanout net — a clock or reset
// spine: the sinks fall into `blobs` pin clusters of window size blobSpan
// scattered uniformly on the die, and the source sits at an independent
// uniform position (a driver far from most blobs). The blob structure is
// what the hierarchical router's geometric partition should rediscover.
func MegaClustered(rng *rand.Rand, n int, span int64, blobs int, blobSpan int64) tree.Net {
	if n < 2 {
		n = 2
	}
	if blobs < 1 {
		blobs = 1
	}
	if blobSpan < 1 {
		blobSpan = 1
	}
	if blobSpan > span {
		blobSpan = span
	}
	centers := make([]geom.Point, blobs)
	for i := range centers {
		centers[i] = geom.Pt(rng.Int63n(span-blobSpan+1), rng.Int63n(span-blobSpan+1))
	}
	pins := make([]geom.Point, n)
	pins[0] = geom.Pt(rng.Int63n(span), rng.Int63n(span))
	for i := 1; i < n; i++ {
		c := centers[rng.Intn(blobs)]
		pins[i] = geom.Pt(c.X+rng.Int63n(blobSpan), c.Y+rng.Int63n(blobSpan))
	}
	return tree.Net{Pins: pins}
}

func clampCoord(x, span int64) int64 {
	if x < 0 {
		return 0
	}
	if x >= span {
		return span - 1
	}
	return x
}

// SGadget builds the Theorem-1 instance family: m chained "S-shape"
// gadgets placed diagonally with geometrically decreasing scale. Each
// gadget hangs a bait cluster (three sinks) above its through-axis and a
// victim sink below-left; riding the trunk through the bait cluster saves
// wirelength but detours the victim — and the victim is the entry of the
// next gadget, so detour penalties accumulate along the chain. With
// per-gadget savings and penalties scaled by powers of four, the 2^m
// choice combinations are pairwise Pareto-incomparable, giving a frontier
// of size 2^Ω(n) on n = 4m+1 pins (the paper's gadget uses 11 pins each;
// this compaction preserves the exponential lower bound, see DESIGN.md).
func SGadget(m int) tree.Net {
	if m < 1 {
		m = 1
	}
	pins := []geom.Point{geom.Pt(0, 0)} // source = entry of gadget 1
	entry := geom.Pt(0, 0)
	s := int64(1)
	for k := 1; k <= m; k++ {
		// Scale grows by 8× per gadget going away from the source, so each
		// deeper gadget's wire/delay tradeoff dominates all shallower ones
		// and the 2^m choice combinations stay pairwise incomparable.
		//
		// Local motif (entry-relative): bait cluster D, C, B riding from
		// the entry toward the upper-left, victim A below-left. Taken from
		// a verified 3-point-frontier instance (see package tests).
		d := geom.Pt(entry.X-4*s, entry.Y+9*s)
		c := geom.Pt(entry.X-8*s, entry.Y+3*s)
		b := geom.Pt(entry.X-13*s, entry.Y+7*s)
		a := geom.Pt(entry.X-13*s, entry.Y-7*s)
		pins = append(pins, a, b, c, d)
		entry = a // the victim is the next gadget's entry
		s *= 8
	}
	return tree.Net{Pins: pins}
}

// Design is one synthetic benchmark design: a named collection of nets.
type Design struct {
	Name string
	Nets []tree.Net
}

// DegreeMix is a discrete distribution over net degrees.
type DegreeMix []struct {
	Degree int
	Weight float64
}

// ICCADMix returns the degree distribution of the synthetic suite: degrees
// 4..9 in the exact proportions of the paper's Table III net counts
// (degree-2/3 nets are omitted as trivial, as in the paper), plus a
// geometric tail over degrees 10..100 carrying the ~30% of nets the
// ICCAD-15 benchmark has above degree 9 (most nets below 50 pins).
func ICCADMix() DegreeMix {
	mix := DegreeMix{
		{4, 0.403 * 0.70}, {5, 0.284 * 0.70}, {6, 0.114 * 0.70},
		{7, 0.083 * 0.70}, {8, 0.047 * 0.70}, {9, 0.069 * 0.70},
	}
	// Geometric tail 10..100.
	const tailMass = 0.30
	const decay = 0.93
	var norm float64
	w := 1.0
	for d := 10; d <= 100; d++ {
		norm += w
		w *= decay
	}
	w = 1.0
	for d := 10; d <= 100; d++ {
		mix = append(mix, struct {
			Degree int
			Weight float64
		}{d, tailMass * w / norm})
		w *= decay
	}
	return mix
}

// Sample draws a degree from the mix.
func (m DegreeMix) Sample(rng *rand.Rand) int {
	var total float64
	for _, e := range m {
		total += e.Weight
	}
	x := rng.Float64() * total
	for _, e := range m {
		if x < e.Weight {
			return e.Degree
		}
		x -= e.Weight
	}
	return m[len(m)-1].Degree
}

// SuiteConfig parameterises the synthetic ICCAD-15-like benchmark.
type SuiteConfig struct {
	Seed          int64
	Designs       int   // number of designs (paper: 8)
	NetsPerDesign int   // nets per design (scaled down from ~160k)
	Span          int64 // die width/height
	ClusterSpan   int64 // pin spread of one net
	Mix           DegreeMix
}

// DefaultSuiteConfig mirrors the paper's setup at laptop scale: 8 designs,
// clustered pins on a 100k×100k die.
func DefaultSuiteConfig() SuiteConfig {
	return SuiteConfig{
		Seed:          1,
		Designs:       8,
		NetsPerDesign: 800,
		Span:          100000,
		ClusterSpan:   4000,
		Mix:           ICCADMix(),
	}
}

// Suite generates the synthetic benchmark.
func Suite(cfg SuiteConfig) []Design {
	if cfg.Designs <= 0 {
		cfg.Designs = 8
	}
	if cfg.NetsPerDesign <= 0 {
		cfg.NetsPerDesign = 800
	}
	if cfg.Span <= 0 {
		cfg.Span = 100000
	}
	if cfg.ClusterSpan <= 0 {
		cfg.ClusterSpan = cfg.Span / 25
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = ICCADMix()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	designs := make([]Design, cfg.Designs)
	for d := range designs {
		designs[d].Name = fmt.Sprintf("synth%02d", d+1)
		designs[d].Nets = make([]tree.Net, cfg.NetsPerDesign)
		for i := range designs[d].Nets {
			deg := cfg.Mix.Sample(rng)
			// Cluster size grows gently with degree: high-fanout nets
			// spread further across the die.
			cspan := cfg.ClusterSpan
			if deg > 9 {
				cspan = cfg.ClusterSpan * int64(1+deg/10)
			}
			designs[d].Nets[i] = ClusteredDriver(rng, deg, cfg.Span, cspan)
		}
	}
	return designs
}

// NetsInDegreeRange collects nets with degree in [lo, hi].
func NetsInDegreeRange(designs []Design, lo, hi int) []tree.Net {
	var out []tree.Net
	for _, d := range designs {
		for _, net := range d.Nets {
			if n := net.Degree(); n >= lo && n <= hi {
				out = append(out, net)
			}
		}
	}
	return out
}
