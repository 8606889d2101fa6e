package hier

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"patlabor/internal/netgen"
	"patlabor/internal/tree"
)

// routeDigest is the SHA-256 of RouteContext's frontiers on a seeded
// corpus of degree 65–4096, each item's objective vector and tree (nodes,
// parents, root) in frontier order, computed before Steinerize and Graft
// became incremental.
const routeDigest = "86856a3a7c75d5bc27be304ba74e3e29ed3a9262c15017b53ca19cc5aa709448"

// TestRouteDigest pins the stitched trees of the hierarchical router on
// uniform and mega-clustered nets of degree 65–4096, so a change to the
// graft or the Steinerization of a kept tree fails here even when the
// frontier's objective vectors survive it.
func TestRouteDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	h := sha256.New()
	ctx := context.Background()
	for _, deg := range []int{65, 130, 300, 700, 1500, 4096} {
		nets := []tree.Net{
			netgen.Uniform(rng, deg, 200000),
			netgen.MegaClustered(rng, deg, 1000000, 1+rng.Intn(8), 20000),
		}
		for _, net := range nets {
			items, err := RouteContext(ctx, net, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range items {
				fmt.Fprintf(h, "%d %d %v %v %d\n", it.Sol.W, it.Sol.D, it.Val.Nodes, it.Val.Parent, it.Val.Root)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != routeDigest {
		t.Fatalf("route digest %s, want %s", got, routeDigest)
	}
}
