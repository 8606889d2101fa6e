package hier

import (
	"context"
	"math/rand"
	"testing"

	"patlabor/internal/core"
	"patlabor/internal/netgen"
)

// TestQualityRegression freezes the approximation quality of the
// hierarchical router against the flat local search on a seeded 50-net
// sample at degrees 65–128 (the first band routed hierarchically under
// the default crossover). The sample is deterministic, so the measured
// ratios are exact reference points; the bounds below add headroom over
// the values measured when the test was frozen —
//
//	per-net worst:  best-D 1.87×, best-W 2.19×
//	sample mean:    best-D 1.11×, best-W 1.46×
//
// — so the test fails only if a change makes hierarchical quality
// meaningfully worse, not on noise (there is none: everything here is
// deterministic). Ratios are compared in scaled int64 arithmetic; see
// EXPERIMENTS.md "Hierarchical routing" for the quality table.
func TestQualityRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const (
		nets         = 50
		perNetDMilli = 2000 // per-net best-D ratio bound: 2.00×
		perNetWMilli = 2400 // per-net best-W ratio bound: 2.40×
		meanDMilli   = 1250 // sample mean best-D bound: 1.25×
		meanWMilli   = 1600 // sample mean best-W bound: 1.60×
	)
	var sumDMilli, sumWMilli int64
	for i := 0; i < nets; i++ {
		deg := 65 + rng.Intn(64)
		net := netgen.MegaClustered(rng, deg, 100000, 2+rng.Intn(6), 8000)
		if i%3 == 2 {
			net = netgen.Uniform(rng, deg, 50000)
		}
		h, err := RouteContext(context.Background(), net, Options{})
		if err != nil {
			t.Fatalf("net %d (degree %d): hier: %v", i, deg, err)
		}
		f, err := core.RouteContext(context.Background(), net, core.Options{})
		if err != nil {
			t.Fatalf("net %d (degree %d): flat: %v", i, deg, err)
		}
		// Canonical frontier order: minimum W first, minimum D last.
		bestDh, bestWh := h[len(h)-1].Sol.D, h[0].Sol.W
		bestDf, bestWf := f[len(f)-1].Sol.D, f[0].Sol.W
		if bestDf <= 0 || bestWf <= 0 {
			// All pins coincident with the source; any tree is optimal.
			continue
		}
		if bestDh*1000 > bestDf*perNetDMilli {
			t.Errorf("net %d (degree %d): best-D %d vs flat %d exceeds %.2fx",
				i, deg, bestDh, bestDf, float64(perNetDMilli)/1000)
		}
		if bestWh*1000 > bestWf*perNetWMilli {
			t.Errorf("net %d (degree %d): best-W %d vs flat %d exceeds %.2fx",
				i, deg, bestWh, bestWf, float64(perNetWMilli)/1000)
		}
		sumDMilli += bestDh * 1000 / bestDf
		sumWMilli += bestWh * 1000 / bestWf
	}
	if sumDMilli > nets*meanDMilli {
		t.Errorf("mean best-D ratio %dm exceeds bound %dm", sumDMilli/nets, meanDMilli)
	}
	if sumWMilli > nets*meanWMilli {
		t.Errorf("mean best-W ratio %dm exceeds bound %dm", sumWMilli/nets, meanWMilli)
	}
}
