package netgen

import (
	"context"
	"math/rand"
	"testing"

	"patlabor/internal/dw"
	"patlabor/internal/geom"
	"patlabor/internal/tree"
)

func TestUniformShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := Uniform(rng, 12, 1000)
	if net.Degree() != 12 {
		t.Fatalf("degree = %d", net.Degree())
	}
	for _, p := range net.Pins {
		if p.X < 0 || p.X >= 1000 || p.Y < 0 || p.Y >= 1000 {
			t.Fatalf("pin %v out of die", p)
		}
	}
}

func TestSmoothedWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// κ = span: window of size 1, all coordinates equal within a pin...
	// more usefully, κ=4 keeps coordinates in a quarter-span window.
	for trial := 0; trial < 20; trial++ {
		net := Smoothed(rng, 6, 4, 1000)
		if net.Degree() != 6 {
			t.Fatal("degree wrong")
		}
		for _, p := range net.Pins {
			if p.X < 0 || p.X >= 1000 || p.Y < 0 || p.Y >= 1000 {
				t.Fatalf("pin %v out of die", p)
			}
		}
	}
	// κ below 1 behaves like uniform.
	net := Smoothed(rng, 4, 0.5, 100)
	if net.Degree() != 4 {
		t.Fatal("degree wrong")
	}
}

func TestClusteredSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		net := Clustered(rng, 8, 100000, 2000)
		bb := net.BBox()
		if bb.Width() >= 2000 || bb.Height() >= 2000 {
			t.Fatalf("cluster too spread: %+v", bb)
		}
	}
}

func TestSGadgetExponentialFrontier(t *testing.T) {
	// The defining property of the Theorem-1 family: frontier size >= 2^m.
	for m := 1; m <= 2; m++ {
		net := SGadget(m)
		if net.Degree() != 4*m+1 {
			t.Fatalf("m=%d: degree %d, want %d", m, net.Degree(), 4*m+1)
		}
		sols, err := dw.FrontierSolsContext(context.Background(), net, dw.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(sols) < 1<<m {
			t.Fatalf("m=%d: frontier size %d < 2^%d (sols %v)", m, len(sols), m, sols)
		}
	}
}

func TestSGadgetM3(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	net := SGadget(3)
	sols, err := dw.FrontierSolsContext(context.Background(), net, dw.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(sols) < 8 {
		t.Fatalf("m=3: frontier size %d < 8", len(sols))
	}
}

func TestICCADMixNormalised(t *testing.T) {
	mix := ICCADMix()
	var total float64
	for _, e := range mix {
		if e.Weight < 0 {
			t.Fatalf("negative weight for degree %d", e.Degree)
		}
		total += e.Weight
	}
	if total < 0.98 || total > 1.02 {
		t.Fatalf("mix mass = %v, want ~1", total)
	}
	// Sampling respects support.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		d := mix.Sample(rng)
		if d < 4 || d > 100 {
			t.Fatalf("sampled degree %d out of mix support", d)
		}
	}
}

func TestSuiteShape(t *testing.T) {
	cfg := DefaultSuiteConfig()
	cfg.NetsPerDesign = 100
	designs := Suite(cfg)
	if len(designs) != 8 {
		t.Fatalf("designs = %d", len(designs))
	}
	total := 0
	small := 0
	for _, d := range designs {
		if d.Name == "" {
			t.Fatal("unnamed design")
		}
		total += len(d.Nets)
		for _, net := range d.Nets {
			if net.Degree() < 4 {
				t.Fatalf("degree %d below mix support", net.Degree())
			}
			if net.Degree() <= 9 {
				small++
			}
		}
	}
	if total != 800 {
		t.Fatalf("total nets = %d", total)
	}
	// Roughly 70% of nets must be small-degree (Table III proportions).
	frac := float64(small) / float64(total)
	if frac < 0.55 || frac > 0.85 {
		t.Fatalf("small-degree fraction %.2f outside expectation", frac)
	}
}

func TestSuiteDeterministic(t *testing.T) {
	cfg := DefaultSuiteConfig()
	cfg.NetsPerDesign = 20
	a := Suite(cfg)
	b := Suite(cfg)
	for d := range a {
		for i := range a[d].Nets {
			for p := range a[d].Nets[i].Pins {
				if a[d].Nets[i].Pins[p] != b[d].Nets[i].Pins[p] {
					t.Fatal("suite not deterministic for equal seeds")
				}
			}
		}
	}
}

func TestNetsOfDegree(t *testing.T) {
	designs := []Design{{Name: "x", Nets: []tree.Net{
		Uniform(rand.New(rand.NewSource(1)), 4, 10),
		Uniform(rand.New(rand.NewSource(2)), 6, 10),
		Uniform(rand.New(rand.NewSource(3)), 4, 10),
	}}}
	if got := len(NetsInDegreeRange(designs, 4, 4)); got != 2 {
		t.Fatalf("NetsInDegreeRange(4, 4) = %d", got)
	}
	if got := len(NetsInDegreeRange(designs, 4, 6)); got != 3 {
		t.Fatalf("NetsInDegreeRange = %d", got)
	}
}

func TestClusteredDriverDisplacesSource(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	displaced := 0
	for trial := 0; trial < 60; trial++ {
		net := ClusteredDriver(rng, 8, 100000, 3000)
		if net.Degree() != 8 {
			t.Fatal("degree wrong")
		}
		for _, p := range net.Pins {
			if p.X < 0 || p.X >= 100000 || p.Y < 0 || p.Y >= 100000 {
				t.Fatalf("pin %v off die", p)
			}
		}
		// The sinks stay inside a window; the source is usually outside it.
		bb := geomBBox(net.Sinks())
		if !bb.Contains(net.Source()) {
			displaced++
		}
	}
	if displaced < 30 {
		t.Fatalf("source displaced on only %d/60 nets", displaced)
	}
	// Degree-1 nets pass through untouched.
	single := ClusteredDriver(rng, 1, 1000, 100)
	if single.Degree() != 1 {
		t.Fatal("degree-1 handling wrong")
	}
}

func geomBBox(pts []geom.Point) geom.Rect { return geom.BoundingBox(pts) }
