package exp

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"patlabor/internal/method"
	"patlabor/internal/netgen"
	"patlabor/internal/pareto"
	"patlabor/internal/pool"
	"patlabor/internal/rsma"
	"patlabor/internal/rsmt"
	"patlabor/internal/tree"
)

// LargeResult is the outcome of a large-net comparison (Figure 7(b)/(c)):
// averaged normalised Pareto curves, runtimes and mean hypervolume.
type LargeResult struct {
	Title       string
	Nets        int
	Methods     []string
	Curves      map[string]*Curve
	Runtime     map[string]time.Duration
	Hypervolume map[string]float64 // mean normalised hypervolume, ref (1.6, 1.6)
}

// RunLarge compares all methods on the given nets, fanning nets out on
// cfg.Workers workers. Wirelength is normalised by the RSMT engine's tree
// (FLUTE's role) and delay by the shortest-path arborescence delay (CL's
// role), exactly as in Figure 7.
func RunLarge(ctx context.Context, cfg Config, title string, nets []tree.Net, allMethods bool) (*LargeResult, error) {
	methods := method.Standard(allMethods)
	res := &LargeResult{
		Title:       title,
		Nets:        len(nets),
		Curves:      map[string]*Curve{},
		Runtime:     map[string]time.Duration{},
		Hypervolume: map[string]float64{},
	}
	for _, m := range methods {
		res.Methods = append(res.Methods, m.Name())
		res.Curves[m.Name()] = newCurve()
	}
	ref := pareto.Sol{W: 160, D: 160} // on the ×100 normalised scale below
	// Per-net evaluation runs on the worker pool; each net fills its own
	// slot and the curves/hypervolume accumulate serially afterwards, so
	// the rendered figure is identical at any worker count.
	type netEval struct {
		wN, dN int64
		sols   map[string][]pareto.Sol
		dur    map[string]time.Duration
	}
	evals := make([]netEval, len(nets))
	err := pool.Each(ctx, len(nets), cfg.Workers, func(_, i int) error {
		net := nets[i]
		ev := netEval{
			wN:   rsmt.Wirelength(net),
			dN:   rsma.MinDelay(net),
			sols: map[string][]pareto.Sol{},
			dur:  map[string]time.Duration{},
		}
		if ev.wN > 0 && ev.dN > 0 {
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
		}
		evals[i] = ev
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, ev := range evals {
		if ev.wN <= 0 || ev.dN <= 0 {
			continue
		}
		for _, m := range methods {
			res.Runtime[m.Name()] += ev.dur[m.Name()]
			sols := ev.sols[m.Name()]
			res.Curves[m.Name()].add(sols, ev.wN, ev.dN)
			// Normalised hypervolume on a ×100 integer scale.
			norm := make([]pareto.Sol, 0, len(sols))
			for _, s := range sols {
				norm = append(norm, pareto.Sol{
					W: s.W * 100 / ev.wN,
					D: s.D * 100 / ev.dN,
				})
			}
			res.Hypervolume[m.Name()] += pareto.Hypervolume(norm, ref)
		}
	}
	for _, c := range res.Curves {
		c.finalize()
	}
	if res.Nets > 0 {
		for m := range res.Hypervolume {
			res.Hypervolume[m] /= float64(res.Nets)
		}
	}
	return res, nil
}

// LargeSuiteNets picks the large-degree nets of the suite (Figure 7(b)).
func LargeSuiteNets(cfg Config, designs []netgen.Design) []tree.Net {
	nets := netgen.NetsInDegreeRange(designs, 10, 100)
	limit := 300
	if cfg.Quick {
		limit = 12
	}
	if len(nets) > limit {
		nets = nets[:limit]
	}
	return nets
}

// Degree100Nets synthesises the Figure 7(c) workload: random degree-100
// nets, uniform pins.
func Degree100Nets(cfg Config) []tree.Net {
	count := 100
	if cfg.Quick {
		count = 3
	}
	rng := rand.New(rand.NewSource(42))
	nets := make([]tree.Net, count)
	for i := range nets {
		nets[i] = netgen.Uniform(rng, 100, 100000)
	}
	return nets
}

// Render renders the large-net comparison.
func (r *LargeResult) Render() string {
	out := fmt.Sprintf("%s — %d nets\n", r.Title, r.Nets)
	out += renderCurves(r.Methods, r.Curves)
	out += "method       total time   mean hypervolume (ref 1.6,1.6; higher = tighter)\n"
	for _, m := range r.Methods {
		out += fmt.Sprintf("  %-10s %-12s %.1f\n", m, fmtDur(r.Runtime[m]), r.Hypervolume[m])
	}
	return out
}
