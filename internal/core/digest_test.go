package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"patlabor/internal/geom"
	"patlabor/internal/tree"
)

// routeDigest is the SHA-256 of RouteContext's frontiers on a seeded
// corpus of degree 10–64, each item's objective vector and tree (nodes,
// parents, root) in frontier order, computed before Steinerize and Graft
// became incremental.
const routeDigest = "47e16a10e660d85833d3d08d5c1d2583425ac81194e22bfda292fc9e3da66b27"

// TestRouteDigest pins the trees of the flat local search on uniform and
// clustered nets of degree 10–64, where every candidate is grafted,
// compacted and Steinerized, so a change to any of those passes fails
// here even when the frontier's objective vectors survive it.
func TestRouteDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h := sha256.New()
	ctx := context.Background()
	for deg := 10; deg <= 64; deg += 6 {
		for _, net := range []tree.Net{randNet(rng, deg, 50000), clusteredNet(rng, deg, 50000, 3000)} {
			items, err := RouteContext(ctx, net, Options{})
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

// clusteredNet places the sinks in four blobs of side blob.
func clusteredNet(rng *rand.Rand, n int, span, blob int64) tree.Net {
	var centers [4]geom.Point
	for i := range centers {
		centers[i] = geom.Pt(rng.Int63n(span-blob), rng.Int63n(span-blob))
	}
	pins := make([]geom.Point, n)
	pins[0] = geom.Pt(rng.Int63n(span), rng.Int63n(span))
	for i := 1; i < n; i++ {
		c := centers[rng.Intn(len(centers))]
		pins[i] = geom.Pt(c.X+rng.Int63n(blob), c.Y+rng.Int63n(blob))
	}
	return tree.Net{Pins: pins}
}
