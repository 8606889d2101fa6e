package method

import (
	"context"
	"math/rand"
	"testing"

	"patlabor/internal/netgen"
	"patlabor/internal/tree"
)

// maxPropertyDegree caps the net degree the property test feeds a method.
// The exact DP is exponential in the degree, so the Pareto-DW entrant is
// held to small instances; every other method takes the full 2..12 range.
func maxPropertyDegree(name string) int {
	if name == "Pareto-DW" {
		return 8
	}
	return 12
}

// TestRegistryFrontierProperties is the registry-wide contract: every
// registered method, on ~200 random nets of degree 2..12, returns trees
// that validate against the net, a frontier in canonical order (W strictly
// increasing, D strictly decreasing), and objective vectors that match the
// tree's recomputed (Wirelength, MaxDelay).
func TestRegistryFrontierProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20250806))
	const count = 200
	nets := make([]tree.Net, count)
	for i := range nets {
		deg := 2 + rng.Intn(11) // 2..12
		if i%2 == 0 {
			nets[i] = netgen.Uniform(rng, deg, 5000)
		} else {
			nets[i] = netgen.Clustered(rng, deg, 20000, 1500)
		}
	}
	ctx := context.Background()
	for _, name := range Names() {
		m, _ := Get(name)
		maxDeg := maxPropertyDegree(m.Name())
		checked := 0
		for i, net := range nets {
			if net.Degree() > maxDeg {
				continue
			}
			items, err := m.Frontier(ctx, net)
			if err != nil {
				t.Fatalf("%s net %d (degree %d): %v", m.Name(), i, net.Degree(), err)
			}
			if len(items) == 0 {
				t.Fatalf("%s net %d (degree %d): empty frontier", m.Name(), i, net.Degree())
			}
			for k, it := range items {
				if err := it.Val.Validate(net); err != nil {
					t.Fatalf("%s net %d item %d: invalid tree: %v", m.Name(), i, k, err)
				}
				if got := it.Val.Sol(); got != it.Sol {
					t.Fatalf("%s net %d item %d: Sol %v but tree recomputes %v",
						m.Name(), i, k, it.Sol, got)
				}
				if k > 0 {
					prev := items[k-1].Sol
					if it.Sol.W <= prev.W || it.Sol.D >= prev.D {
						t.Fatalf("%s net %d: frontier not canonical at %d: %v then %v",
							m.Name(), i, k, prev, it.Sol)
					}
				}
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("%s: no nets within degree cap", m.Name())
		}
		t.Logf("%s: %d nets pass", m.Name(), checked)
	}
}
