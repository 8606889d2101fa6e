package pareto

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// pairSols returns the objective vectors of ps.
func pairSols(ps []Pair) []Sol {
	out := make([]Sol, len(ps))
	for i, p := range ps {
		out[i] = p.Sol
	}
	return out
}

// toPairs numbers the entries of a frontier: A = a0+i, B = i.
func toPairs(sols []Sol, a0 int32) []Pair {
	out := make([]Pair, len(sols))
	for i, s := range sols {
		out[i] = Pair{Sol: s, A: a0 + int32(i), B: int32(i)}
	}
	return out
}

// checkJoin compares Join with the Pareto filter of the full product of x
// and y+p, and checks that each output's pair is the only pair of the
// product that yields its point.
func checkJoin(t *testing.T, x, y []Sol, a0, b0 int32, p int64) {
	t.Helper()
	var prod []Sol
	for _, a := range x {
		for _, b := range y {
			prod = append(prod, Sol{W: a.W + b.W, D: max(a.D, b.D+p)})
		}
	}
	got := Join(nil, x, y, a0, b0, p)
	if want := Filter(prod); !slices.Equal(pairSols(got), want) {
		t.Fatalf("Join(%v, %v, p=%d) = %v, want %v", x, y, p, got, want)
	}
	for _, o := range got {
		for i, a := range x {
			for j, b := range y {
				if (Sol{W: a.W + b.W, D: max(a.D, b.D+p)}) != o.Sol {
					continue
				}
				if int32(i)+a0 != o.A || int32(j)+b0 != o.B {
					t.Fatalf("Join(%v, %v, p=%d): %v also comes from pair (%d, %d)", x, y, p, o, int32(i)+a0, int32(j)+b0)
				}
			}
		}
	}
}

// refUnion is the sort-and-scan reference of Union: every entry of x and
// of y+g, sorted by the total order (W, D, A, B), then the first entry of
// each strictly better delay kept.
func refUnion(x, y []Pair, g int64) []Pair {
	all := slices.Clone(x)
	for _, e := range y {
		e.W += g
		e.D += g
		all = append(all, e)
	}
	slices.SortFunc(all, func(a, b Pair) int {
		return cmp.Or(cmp.Compare(a.W, b.W), cmp.Compare(a.D, b.D), cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B))
	})
	var out []Pair
	best := int64(1<<63 - 1)
	for _, e := range all {
		if e.D < best {
			out = append(out, e)
			best = e.D
		}
	}
	return out
}

func checkUnion(t *testing.T, x, y []Pair, g int64) {
	t.Helper()
	got := Union(nil, x, y, g)
	if want := refUnion(x, y, g); !slices.Equal(got, want) {
		t.Fatalf("Union(%v, %v, g=%d) = %v, want %v", x, y, g, got, want)
	}
	if !IsFrontier(pairSols(got)) {
		t.Fatalf("Union(%v, %v, g=%d) = %v is not strictly canonical", x, y, g, got)
	}
}

// randPairs draws a random strictly canonical frontier over a small span,
// so that two draws often share points, with pair indices below 4 so that
// equal points often tie on A as well.
func randPairs(rng *rand.Rand, k int, span int64) []Pair {
	sols := make([]Sol, k)
	for i := range sols {
		sols[i] = Sol{W: rng.Int63n(span), D: rng.Int63n(span)}
	}
	out := toPairs(Filter(sols), 0)
	for i := range out {
		out[i].A, out[i].B = int32(rng.Intn(4)), int32(rng.Intn(4))
	}
	return out
}

// TestJoinMatchesProduct is the property test of the ⊕ walk on random
// strictly canonical lists with random delay offsets and pair bases.
func TestJoinMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 2000; trial++ {
		span := int64(2 + rng.Intn(40))
		x := pairSols(randPairs(rng, rng.Intn(12), span))
		y := pairSols(randPairs(rng, rng.Intn(12), span))
		checkJoin(t, x, y, int32(rng.Intn(100)), int32(rng.Intn(100)), rng.Int63n(span))
	}
}

// TestUnionMatchesFilter is the property test of the two-way merge: on
// random strictly canonical lists it equals the sort-and-scan filter of
// x ∪ (y+g) under the tie order (W, D, A, B), ties included.
func TestUnionMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 2000; trial++ {
		span := int64(2 + rng.Intn(20))
		x := randPairs(rng, rng.Intn(12), span)
		y := randPairs(rng, rng.Intn(12), span)
		checkUnion(t, x, y, rng.Int63n(3))
	}
}

// FuzzKernel decodes two frontiers, a delay offset p and a shift g from
// the input (one byte per value) and checks Join and Union against their
// references.
func FuzzKernel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 2, 3, 4, 1})
	f.Add([]byte{3, 1, 0, 9, 5, 5, 9, 0, 2, 7, 5, 6})
	f.Add([]byte{2, 0, 4, 4, 4, 4, 1, 8, 8, 1, 4, 4, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		p, g := int64(data[0]), int64(data[1]%8)
		data = data[2:]
		var xs, ys []Sol
		var xa, ya []int32
		for k := 0; k+2 < len(data); k += 3 {
			s := Sol{W: int64(data[k] % 32), D: int64(data[k+1] % 32)}
			if k%2 == 0 {
				xs, xa = append(xs, s), append(xa, int32(data[k+2]%4))
			} else {
				ys, ya = append(ys, s), append(ya, int32(data[k+2]%4))
			}
		}
		x, y := toPairs(Filter(xs), 0), toPairs(Filter(ys), 0)
		for i := range x {
			x[i].A = xa[i]
		}
		for i := range y {
			y[i].A = ya[i]
		}
		checkJoin(t, pairSols(x), pairSols(y), 0, 0, p)
		checkUnion(t, x, y, g)
	})
}
