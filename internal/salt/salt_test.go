package salt

import (
	"math"
	"math/rand"
	"testing"

	"patlabor/internal/geom"
	"patlabor/internal/pareto"
	"patlabor/internal/rsma"
	"patlabor/internal/rsmt"
	"patlabor/internal/tree"
)

func randNet(rng *rand.Rand, n int, span int64) tree.Net {
	pins := make([]geom.Point, n)
	for i := range pins {
		pins[i] = geom.Pt(rng.Int63n(span), rng.Int63n(span))
	}
	return tree.Net{Pins: pins}
}

func TestBuildRespectsShallownessBound(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(20)
		net := randNet(rng, n, 200)
		for _, eps := range []float64{0, 0.1, 0.5, 1, 2} {
			tr := Build(net, eps)
			if err := tr.Validate(net); err != nil {
				t.Fatalf("trial %d eps %v: %v", trial, eps, err)
			}
			delays := tree.NewEvaluator().SinkDelaysInto(tr, n)
			for pin := 1; pin < n; pin++ {
				bound := (1 + eps) * float64(geom.Dist(net.Source(), net.Pins[pin]))
				if float64(delays[pin]) > bound+1e-9 {
					t.Fatalf("trial %d eps %v pin %d: delay %d exceeds bound %.1f",
						trial, eps, pin, delays[pin], bound)
				}
			}
		}
	}
}

func TestBuildEpsZeroIsShortestPath(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 20; trial++ {
		net := randNet(rng, 4+rng.Intn(12), 150)
		tr := Build(net, 0)
		if tr.MaxDelay() != rsma.MinDelay(net) {
			t.Fatalf("trial %d: eps=0 delay %d, want %d", trial, tr.MaxDelay(), rsma.MinDelay(net))
		}
	}
}

func TestBuildEpsInfIsSMT(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 20; trial++ {
		net := randNet(rng, 4+rng.Intn(6), 100)
		tr := Build(net, math.Inf(1))
		smt := rsmt.Tree(net)
		if tr.Wirelength() > smt.Wirelength() {
			t.Fatalf("trial %d: eps=inf wirelength %d exceeds SMT %d",
				trial, tr.Wirelength(), smt.Wirelength())
		}
	}
}

func TestSweepIsFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 15; trial++ {
		net := randNet(rng, 5+rng.Intn(15), 200)
		items := Sweep(net, nil)
		if len(items) == 0 {
			t.Fatal("empty sweep")
		}
		sols := make([]pareto.Sol, len(items))
		for i, it := range items {
			sols[i] = it.Sol
			if err := it.Val.Validate(net); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if it.Val.Sol() != it.Sol {
				t.Fatalf("trial %d: objective mismatch", trial)
			}
		}
		if !pareto.IsFrontier(sols) {
			t.Fatalf("trial %d: sweep not a canonical frontier: %v", trial, sols)
		}
	}
}

func TestRebalanceDoesNotModifyInput(t *testing.T) {
	net := randNet(rand.New(rand.NewSource(65)), 8, 100)
	base := rsmt.Tree(net)
	w, d := base.Wirelength(), base.MaxDelay()
	_ = Rebalance(base, net, 0)
	if base.Wirelength() != w || base.MaxDelay() != d {
		t.Fatal("Rebalance modified its input tree")
	}
}

func TestSweepContainsExactRSMTEndpoint(t *testing.T) {
	// For degrees where the RSMT engine is exact, the sweep's cheapest
	// solution must be exactly the minimum wirelength.
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 15; trial++ {
		net := randNet(rng, 4+rng.Intn(4), 120) // 4..7 <= rsmt.ExactDegree
		items := Sweep(net, nil)
		if items[0].Sol.W != rsmt.Wirelength(net) {
			t.Fatalf("trial %d: sweep min wire %d, RSMT %d",
				trial, items[0].Sol.W, rsmt.Wirelength(net))
		}
	}
}
