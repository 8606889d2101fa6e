package engine

import (
	"patlabor/internal/core"
	"patlabor/internal/hanan"
	"patlabor/internal/tree"
)

// dupAssign is one net's slot in a batch dedup plan: rep is the index of
// the net whose frontier answers for this one (rep == own index means the
// net is a representative and must be routed), and iso maps the
// representative's plane and pin indices onto this net's (nil for
// representatives).
type dupAssign struct {
	rep int
	iso *hanan.Isometry
}

// repCand is one representative already planned under a dedup key,
// with the key frame its duplicates' isometries are derived from.
type repCand struct {
	idx   int
	frame hanan.Frame
}

// planDedup scans the batch in index order and groups nets that are
// guaranteed to produce transform-identical frontiers, so RouteAll can
// route one representative per group and synthesize the rest. Nets key
// through hanan.Key, at the level core.NetCanonical picks:
//
//   - Small nets the lookup table covers key on their canonical symmetry
//     class; any of the 8 dihedral symmetries plus translation maps the
//     representative's frontier onto the duplicate's exactly. Equal keys
//     are re-verified coordinate-by-coordinate by hanan.NewIsometry; a
//     net whose isometry derivation fails against every candidate simply
//     becomes its own representative.
//
//   - All other nets key on translation only — the exact DP and the
//     local search are translation-equivariant but not
//     reflection-invariant in their tie-breaks, and the local search's
//     pin selection follows sink indices, so an order-permuted translate
//     is deliberately NOT grouped (its frontier is not guaranteed
//     identical).
//
// The first occurrence of each key (lowest index) is the representative,
// so every duplicate's index is strictly above its representative's —
// which keeps RouteAll's lowest-failed-index error deterministic: a
// duplicate would fail exactly when its representative does, and the
// representative comes first.
//
// hits counts nets answered by a batch-mate, misses counts nets the
// dedup layer examined but had to route.
func (e *Engine) planDedup(nets []tree.Net) (assigns []dupAssign, hits, misses int64) {
	assigns = make([]dupAssign, len(nets))
	groups := make(map[string][]repCand)
	var key hanan.Key
	for i, net := range nets {
		assigns[i].rep = i
		n := net.Degree()
		if n < 2 {
			continue // trivial nets: routing is cheaper than keying
		}
		key.Set(net, core.NetCanonical(n, e.opts.Lambda, e.opts.Table))
		cands := groups[string(key.Bytes())]
		matched := false
		for _, c := range cands {
			iso, err := key.IsometryFrom(c.frame)
			if err != nil {
				continue // key collision: verification refused, try the next
			}
			assigns[i] = dupAssign{rep: c.idx, iso: iso}
			matched = true
			break
		}
		if matched {
			hits++
			continue
		}
		misses++
		groups[string(key.Bytes())] = append(cands, repCand{idx: i, frame: key.Frame()})
	}
	return assigns, hits, misses
}

// degreeBucket labels a net degree for profiling: pprof samples taken
// while routing carry the bucket, so `go tool pprof` can attribute time
// to small exact solves versus large local searches.
func degreeBucket(n int) string {
	switch {
	case n <= 9:
		return "2-9"
	case n <= 16:
		return "10-16"
	case n <= 32:
		return "17-32"
	case n <= 64:
		return "33-64"
	case n <= 100:
		return "65-100"
	case n <= 1000:
		return "101-1000"
	case n <= 10000:
		return "1001-10000"
	default:
		return "10001+"
	}
}
