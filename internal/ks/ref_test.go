package ks

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"patlabor/internal/dw"
	"patlabor/internal/geom"
	"patlabor/internal/lut"
	"patlabor/internal/netgen"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// wideJoins counts the refJoin calls whose operands both hold more than
// one point, where the walk's choice of pairs is actually tested. Random
// nets divided down to small leaves rarely produce them.
var wideJoins int

// refJoin is join as it was before it went through pareto.Join: every
// pair of s1 × s2 not weakly dominated by the set so far is built as a
// tree and offered to a pareto.Set.
func refJoin(ctx context.Context, s1, s2 []pareto.Item[*tree.Tree], c int64, maxSet int) ([]pareto.Item[*tree.Tree], error) {
	if len(s1) > 1 && len(s2) > 1 {
		wideJoins++
	}
	set := &pareto.Set[*tree.Tree]{}
	for _, a := range s1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, b := range s2 {
			sol := pareto.Sol{
				W: a.Sol.W + b.Sol.W + c,
				D: geom.Max64(a.Sol.D, c+b.Sol.D),
			}
			if !pareto.Contains(pareto.AppendSols(nil, set.Items()), sol) {
				t := a.Val.Clone()
				t.Graft(b.Val, t.Root)
				set.Add(sol, t)
			}
		}
	}
	return pareto.CapItems(set.Items(), maxSet), nil
}

// refRoute is route with refJoin at every level.
func refRoute(ctx context.Context, net tree.Net, pins []int, leaf int, opt Options, depth int) ([]pareto.Item[*tree.Tree], error) {
	if len(pins) <= leaf {
		return leafFrontier(ctx, net, pins, opt)
	}
	nearPins, farPins := divide(net, pins, depth)
	s1, err := refRoute(ctx, net, nearPins, leaf, opt, depth+1)
	if err != nil {
		return nil, err
	}
	s2, err := refRoute(ctx, net, farPins, leaf, opt, depth+1)
	if err != nil {
		return nil, err
	}
	return refJoin(ctx, s1, s2, geom.Dist(net.Pins[pins[0]], net.Pins[farPins[0]]), opt.MaxSet)
}

// TestJoinMatchesReference asserts that combining through pareto.Join
// gives the same items, objective vectors and trees as the product it
// replaced, on seeded nets of degree 10–40 with MaxSet 0 and 4, with
// table and DP leaves.
func TestJoinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	ctx := context.Background()
	wideJoins = 0
	for deg := 10; deg <= 40; deg += 3 {
		nets := []tree.Net{netgen.Uniform(rng, deg, 100000), netgen.Clustered(rng, deg, 100000, 4000)}
		for i, net := range nets {
			pins := make([]int, deg)
			for k := range pins {
				pins[k] = k
			}
			for _, opt := range []Options{
				{Leaf: 4}, {Leaf: 4, MaxSet: 4}, {Leaf: 6, MaxSet: 4},
				{Leaf: 4, Table: lut.Default()}, {Leaf: 5, MaxSet: 4, Table: lut.Default()},
			} {
				got, err := route(ctx, net, pins, opt.Leaf, opt, 0)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refRoute(ctx, net, pins, opt.Leaf, opt, 0)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("degree %d net %d leaf %d maxSet %d table %v", deg, i, opt.Leaf, opt.MaxSet, opt.Table != nil)
				if len(got) != len(want) {
					t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
				}
				for k := range got {
					if got[k].Sol != want[k].Sol || !sameTree(got[k].Val, want[k].Val) {
						t.Fatalf("%s: item %d is %v, want %v", label, k, got[k].Sol, want[k].Sol)
					}
				}
			}
		}
	}
	// Operands of one point leave the walk's choice of pairs untested;
	// TestJoinPairsMatchReference covers multi-point operands.
	if wideJoins == 0 {
		t.Fatal("no join of two multi-point frontiers")
	}
}

// TestJoinPairsMatchReference checks join against refJoin directly on
// multi-point frontiers, which divide-and-conquer on random nets rarely
// produces: DP frontiers of random degree 5–8 nets and of the
// exponential-frontier gadget, joined at random bridge lengths.
func TestJoinPairsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ctx := context.Background()
	var fronts [][]pareto.Item[*tree.Tree]
	for _, net := range []tree.Net{netgen.SGadget(1), netgen.SGadget(2)} {
		f, err := dw.FrontierContext(ctx, net, dw.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		fronts = append(fronts, f)
	}
	for len(fronts) < 24 {
		f, err := dw.FrontierContext(ctx, netgen.Uniform(rng, 5+rng.Intn(4), 1000), dw.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(f) > 1 {
			fronts = append(fronts, f)
		}
	}
	for trial := 0; trial < 200; trial++ {
		s1, s2 := fronts[rng.Intn(len(fronts))], fronts[rng.Intn(len(fronts))]
		c := rng.Int63n(2000)
		for _, maxSet := range []int{0, 4} {
			got, err := join(ctx, s1, s2, c, maxSet)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refJoin(ctx, s1, s2, c, maxSet)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d items, want %d", trial, len(got), len(want))
			}
			for k := range got {
				if got[k].Sol != want[k].Sol || !sameTree(got[k].Val, want[k].Val) {
					t.Fatalf("trial %d maxSet %d: item %d is %v, want %v", trial, maxSet, k, got[k].Sol, want[k].Sol)
				}
			}
		}
	}
}

func sameTree(a, b *tree.Tree) bool {
	if a.Root != b.Root || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for j := range a.Nodes {
		if a.Nodes[j] != b.Nodes[j] || a.Parent[j] != b.Parent[j] {
			return false
		}
	}
	return true
}
