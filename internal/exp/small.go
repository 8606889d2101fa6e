package exp

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"patlabor/internal/dw"
	"patlabor/internal/method"
	"patlabor/internal/netgen"
	"patlabor/internal/pareto"
	"patlabor/internal/pool"
	"patlabor/internal/stats"
	"patlabor/internal/textplot"
)

// DegreeAgg aggregates the small-net pass for one degree: the inputs to
// Table III (non-optimal ratios), Table IV (frontier solutions found) and
// Figure 6 (maximum frontier size).
type DegreeAgg struct {
	Degree       int
	Nets         int
	MaxFrontier  int
	FrontierSols int            // total Pareto-optimal solutions (truth)
	Found        map[string]int // per method: frontier solutions attained
	NonOptimal   map[string]int // per method: nets missing >=1 frontier point
}

// SmallResult is the outcome of the single pass over all degree-4..9 nets
// of the suite, feeding Figure 6, Table III, Table IV and Figure 7(a).
type SmallResult struct {
	Methods []string
	Agg     []*DegreeAgg
	Fit     stats.LinFit             // Figure 6 linear fit
	Curves  map[string]*Curve        // Figure 7(a): averaged on non-optimal nets
	Runtime map[string]time.Duration // total construction time per method
	NonOpt  int                      // nets where SALT or YSD is non-optimal
}

// Curve is an averaged normalised Pareto curve: D[i] is the mean
// normalised delay attainable at normalised wirelength at most Grid[i].
type Curve struct {
	Grid []float64
	D    []float64
	cnt  []int
}

func newCurve() *Curve {
	c := &Curve{}
	for g := 1.0; g <= 1.6+1e-9; g += 0.025 {
		c.Grid = append(c.Grid, g)
		c.D = append(c.D, 0)
		c.cnt = append(c.cnt, 0)
	}
	return c
}

// add accumulates one net's solution set normalised by (wNorm, dNorm).
// The step function is extended flat below the cheapest solution.
func (c *Curve) add(sols []pareto.Sol, wNorm, dNorm int64) {
	if len(sols) == 0 || wNorm <= 0 || dNorm <= 0 {
		return
	}
	for i, g := range c.Grid {
		best := float64(sols[0].D) / float64(dNorm)
		for _, s := range sols {
			if float64(s.W)/float64(wNorm) <= g+1e-12 {
				if d := float64(s.D) / float64(dNorm); d < best {
					best = d
				}
			}
		}
		c.D[i] += best
		c.cnt[i]++
	}
}

func (c *Curve) finalize() {
	for i := range c.D {
		if c.cnt[i] > 0 {
			c.D[i] /= float64(c.cnt[i])
		}
	}
}

// RunSmall executes the small-degree pass over the suite under ctx.
func RunSmall(ctx context.Context, cfg Config, designs []netgen.Design) (*SmallResult, error) {
	methods := method.Standard(false)
	res := &SmallResult{
		Curves:  map[string]*Curve{},
		Runtime: map[string]time.Duration{},
	}
	aggBy := map[int]*DegreeAgg{}
	for d := 4; d <= 9; d++ {
		aggBy[d] = &DegreeAgg{
			Degree:     d,
			Found:      map[string]int{},
			NonOptimal: map[string]int{},
		}
	}
	for _, m := range methods {
		res.Methods = append(res.Methods, m.Name())
		res.Curves[m.Name()] = newCurve()
	}

	nets := netgen.NetsInDegreeRange(designs, 4, 9)
	if cfg.Quick && len(nets) > 150 {
		nets = nets[:150]
	}
	// Evaluate nets on the worker pool — each net's truth frontier and
	// per-method runs land in its own slot — then aggregate serially in
	// input order, so every table is identical at any worker count.
	type netEval struct {
		truth []pareto.Sol
		sols  map[string][]pareto.Sol
		dur   map[string]time.Duration
	}
	evals := make([]netEval, len(nets))
	err := pool.Each(ctx, len(nets), cfg.Workers, func(_, i int) error {
		net := nets[i]
		truth, err := dw.FrontierSolsContext(ctx, net, dw.DefaultOptions())
		if err != nil {
			return fmt.Errorf("exp: truth for degree-%d net: %w", net.Degree(), err)
		}
		ev := netEval{
			truth: truth,
			sols:  map[string][]pareto.Sol{},
			dur:   map[string]time.Duration{},
		}
		for _, m := range methods {
			var sols []pareto.Sol
			var acc time.Duration
			err := timed(&acc, func() error {
				items, err := m.Frontier(ctx, net)
				if err != nil {
					return err
				}
				sols = itemSols(items)
				return nil
			})
			if err != nil {
				return fmt.Errorf("exp: %s on degree-%d net: %w", m.Name(), net.Degree(), err)
			}
			ev.sols[m.Name()] = sols
			ev.dur[m.Name()] = acc
		}
		evals[i] = ev
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, net := range nets {
		ev := evals[i]
		truth := ev.truth
		agg := aggBy[net.Degree()]
		agg.Nets++
		if len(truth) > agg.MaxFrontier {
			agg.MaxFrontier = len(truth)
		}
		agg.FrontierSols += len(truth)
		for _, m := range methods {
			res.Runtime[m.Name()] += ev.dur[m.Name()]
			found := pareto.CountCovered(ev.sols[m.Name()], truth)
			agg.Found[m.Name()] += found
			if found < len(truth) {
				agg.NonOptimal[m.Name()]++
			}
		}
		// PatLabor must be exact on small nets — a broken table or DP
		// would silently skew every downstream number, so verify here.
		if pareto.CountCovered(ev.sols["PatLabor"], truth) != len(truth) {
			return nil, fmt.Errorf("exp: PatLabor non-optimal on a degree-%d net (pins %v)",
				net.Degree(), net.Pins)
		}
		// Figure 7(a) averages over nets where SALT or YSD miss a point.
		saltNon := pareto.CountCovered(ev.sols["SALT"], truth) < len(truth)
		ysdNon := pareto.CountCovered(ev.sols["YSD"], truth) < len(truth)
		if saltNon || ysdNon {
			res.NonOpt++
			wN, dN := truth[0].W, truth[len(truth)-1].D
			for _, m := range methods {
				res.Curves[m.Name()].add(ev.sols[m.Name()], wN, dN)
			}
		}
	}
	for _, c := range res.Curves {
		c.finalize()
	}
	for d := 4; d <= 9; d++ {
		res.Agg = append(res.Agg, aggBy[d])
	}
	slices.SortFunc(res.Agg, func(a, b *DegreeAgg) int { return a.Degree - b.Degree })

	// Figure 6: linear fit of max frontier size vs degree.
	var xs, ys []float64
	for _, a := range res.Agg {
		if a.Nets > 0 {
			xs = append(xs, float64(a.Degree))
			ys = append(ys, float64(a.MaxFrontier))
		}
	}
	if len(xs) >= 2 {
		fit, err := stats.LinearRegression(xs, ys)
		if err == nil {
			res.Fit = fit
		}
	}
	return res, nil
}

// RenderFig6 renders the Figure 6 reproduction.
func (r *SmallResult) RenderFig6() string {
	rows := make([][]string, 0, len(r.Agg))
	var series textplot.Series
	series.Label = "max frontier size"
	for _, a := range r.Agg {
		rows = append(rows, []string{
			strconv.Itoa(a.Degree), strconv.Itoa(a.Nets), strconv.Itoa(a.MaxFrontier),
			fmt.Sprintf("%.2f", avgFrontier(a)),
		})
		series.X = append(series.X, float64(a.Degree))
		series.Y = append(series.Y, float64(a.MaxFrontier))
	}
	out := "Figure 6 — maximum Pareto frontier size per degree\n"
	out += textplot.Table([]string{"degree", "#nets", "max |frontier|", "avg |frontier|"}, rows)
	out += "fitted line: " + r.Fit.String() + " (paper: y=2.85x-10.9)\n"
	out += textplot.Plot([]textplot.Series{series}, 44, 10)
	return out
}

func avgFrontier(a *DegreeAgg) float64 {
	if a.Nets == 0 {
		return 0
	}
	return float64(a.FrontierSols) / float64(a.Nets)
}

// RenderTable3 renders the Table III reproduction: the ratio of nets on
// which each method misses at least one Pareto-optimal solution.
func (r *SmallResult) RenderTable3() string {
	header := append([]string{"degree", "#nets"}, r.Methods...)
	var rows [][]string
	totals := map[string]int{}
	totalNets := 0
	for _, a := range r.Agg {
		row := []string{strconv.Itoa(a.Degree), strconv.Itoa(a.Nets)}
		for _, m := range r.Methods {
			row = append(row, ratio(a.NonOptimal[m], a.Nets))
			totals[m] += a.NonOptimal[m]
		}
		totalNets += a.Nets
		rows = append(rows, row)
	}
	row := []string{"total", strconv.Itoa(totalNets)}
	for _, m := range r.Methods {
		row = append(row, ratio(totals[m], totalNets))
	}
	rows = append(rows, row)
	return "Table III — ratio of non-optimal nets (n ≤ 9)\n" +
		textplot.Table(header, rows)
}

// RenderTable4 renders the Table IV reproduction: frontier solutions found.
func (r *SmallResult) RenderTable4() string {
	header := append([]string{"degree", "|frontier|"}, r.Methods...)
	var rows [][]string
	found := map[string]int{}
	total := 0
	for _, a := range r.Agg {
		row := []string{strconv.Itoa(a.Degree), strconv.Itoa(a.FrontierSols)}
		for _, m := range r.Methods {
			row = append(row, strconv.Itoa(a.Found[m]))
			found[m] += a.Found[m]
		}
		total += a.FrontierSols
		rows = append(rows, row)
	}
	row := []string{"total", strconv.Itoa(total)}
	for _, m := range r.Methods {
		if total > 0 {
			row = append(row, fmt.Sprintf("%.3f", float64(found[m])/float64(total)))
		} else {
			row = append(row, "-")
		}
	}
	rows = append(rows, row)
	return "Table IV — Pareto-optimal solutions found (n ≤ 9; total row is the fraction of all)\n" +
		textplot.Table(header, rows)
}

// RenderFig7a renders the Figure 7(a) reproduction: averaged normalised
// Pareto curves on non-optimal nets plus total running times.
func (r *SmallResult) RenderFig7a() string {
	out := fmt.Sprintf("Figure 7(a) — averaged Pareto curves on %d non-optimal small nets\n", r.NonOpt)
	out += renderCurves(r.Methods, r.Curves)
	out += "total construction time:\n"
	for _, m := range r.Methods {
		out += fmt.Sprintf("  %-10s %s\n", m, fmtDur(r.Runtime[m]))
	}
	return out
}

// methodGlyphs disambiguates plot characters (three method names start
// with 'P').
var methodGlyphs = map[string]byte{
	"PatLabor": 'P', "SALT": 'S', "YSD": 'Y', "PD-II": 'D', "Pareto-KS": 'K',
}

func renderCurves(methods []string, curves map[string]*Curve) string {
	// Paint PatLabor last so it stays visible where curves overlap.
	ordered := make([]string, 0, len(methods))
	for _, m := range methods {
		if m != "PatLabor" {
			ordered = append(ordered, m)
		}
	}
	ordered = append(ordered, "PatLabor")
	var series []textplot.Series
	for _, m := range ordered {
		c := curves[m]
		if c == nil {
			continue
		}
		series = append(series, textplot.Series{
			Label: m, Glyph: methodGlyphs[m], X: c.Grid, Y: c.D,
		})
	}
	out := textplot.Plot(series, 56, 14)
	out += "x: w / w(RSMT)   y: mean d / d(arborescence)\n"
	return out
}

func ratio(num, den int) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}
