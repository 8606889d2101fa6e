// Package elmore evaluates routing trees under the Elmore RC delay model,
// the standard first-order interconnect timing metric. The paper optimises
// rectilinear path length as its delay proxy (linear delay); Elmore
// evaluation is the "other metrics" extension its conclusion points to:
// Pareto candidate sets produced under the path-length proxy can be
// re-ranked or filtered under Elmore delay without re-routing.
//
// Model: each wire segment of length L has resistance R·L and capacitance
// C·L (lumped as π-model halves), the driver has output resistance Rd and
// every sink pin a load capacitance Cs. The Elmore delay of sink t is
//
//	delay(t) = Σ_{edges e on path(root→t)} R(e) · ( C(e)/2 + Cdown(e) )
//	         + Rd · Ctotal
//
// where Cdown(e) is all capacitance downstream of e.
package elmore

import (
	"patlabor/internal/geom"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// Params are the RC technology parameters. Zero values are valid (they
// simply zero the corresponding contribution).
type Params struct {
	RUnit   float64 // wire resistance per unit length
	CUnit   float64 // wire capacitance per unit length
	DriverR float64 // source driver output resistance
	SinkCap float64 // load capacitance of every sink pin
}

// TypicalParams returns a set of plausible normalised parameters (65nm-ish
// ratios) usable for experiments when absolute calibration is irrelevant.
func TypicalParams() Params {
	return Params{RUnit: 0.1, CUnit: 0.2, DriverR: 25, SinkCap: 2}
}

// Delays returns the Elmore delay of every sink pin of the tree (keyed by
// pin index; the source pin 0 is excluded).
func Delays(t *tree.Tree, p Params) map[int]float64 {
	n := t.Len()
	order := t.TopoOrder()
	// Downstream capacitance per node: subtree wire cap + sink loads.
	cdown := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		nd := t.Nodes[v]
		if nd.Pin >= 1 {
			cdown[v] += p.SinkCap
		}
		if par := t.Parent[v]; par >= 0 {
			wire := float64(geom.Dist(nd.P, t.Nodes[par].P)) * p.CUnit
			cdown[par] += cdown[v] + wire
		}
	}
	ctotal := cdown[t.Root]
	// Accumulate delay root-first.
	delay := make([]float64, n)
	delay[t.Root] = p.DriverR * ctotal
	for _, v := range order {
		par := t.Parent[v]
		if par < 0 {
			continue
		}
		wireLen := float64(geom.Dist(t.Nodes[v].P, t.Nodes[par].P))
		r := wireLen * p.RUnit
		c := wireLen * p.CUnit
		delay[v] = delay[par] + r*(c/2+cdown[v])
	}
	out := make(map[int]float64)
	for v, nd := range t.Nodes {
		if nd.Pin >= 1 {
			if cur, ok := out[nd.Pin]; !ok || delay[v] > cur {
				out[nd.Pin] = delay[v]
			}
		}
	}
	return out
}

// MaxDelay returns the largest sink Elmore delay (0 for sink-less trees).
func MaxDelay(t *tree.Tree, p Params) float64 {
	var m float64
	for _, d := range Delays(t, p) {
		if d > m {
			m = d
		}
	}
	return m
}

// Rank re-evaluates Pareto candidates under Elmore delay and returns the
// indices of candidates on the (wirelength, Elmore delay) frontier, in
// increasing wirelength order. Because path length is only a proxy,
// some path-length-Pareto candidates collapse under Elmore — Rank tells
// the caller which ones survive.
func Rank(cands []pareto.Item[*tree.Tree], p Params) []int {
	type scored struct {
		idx int
		w   int64
		d   float64
	}
	s := make([]scored, len(cands))
	for i, c := range cands {
		s[i] = scored{idx: i, w: c.Sol.W, d: MaxDelay(c.Val, p)}
	}
	// Candidates arrive in increasing-W order; keep those with strictly
	// decreasing Elmore delay.
	var out []int
	best := -1.0
	for _, x := range s {
		if best < 0 || x.d < best {
			out = append(out, x.idx)
			best = x.d
		}
	}
	return out
}
