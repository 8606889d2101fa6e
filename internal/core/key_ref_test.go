package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"patlabor/internal/geom"
	"patlabor/internal/hanan"
	"patlabor/internal/lut"
	"patlabor/internal/rsmt"
	"patlabor/internal/tree"
)

// The reference below is the three net keys hanan.Key replaced, kept
// verbatim apart from being lifted into free functions: the window memo's
// key ('C' canonical, 'R' translation), the batch dedup's and the ECO net
// memo's ('S' canonical, 'L' translation), each with its own isometry
// derivation. TestKeyMatchesReference proves the one key groups nets
// exactly as each of them did and derives the same isometries.

// refFrame is what each reference user kept of a stored net.
type refFrame struct {
	canonical bool
	src       geom.Point
	ranks     hanan.Ranks
	tf        hanan.Transform
}

// refWindowKey is the window memo's key (core's keyScratch.appendWindowKey).
func refWindowKey(sub tree.Net, canonical bool) (string, refFrame) {
	var buf []byte
	var r hanan.Ranks
	var tf hanan.Transform
	if canonical {
		r = hanan.RanksOf(sub)
		buf = append(buf, 'C')
		buf, tf = hanan.AppendCanonicalKey(buf, r.Pattern)
		h, v := tf.ApplyLengthsInto(r.H, r.V, nil, nil)
		for _, g := range h {
			buf = binary.AppendVarint(buf, g)
		}
		for _, g := range v {
			buf = binary.AppendVarint(buf, g)
		}
	} else {
		buf = append(buf, 'R', byte(sub.Degree()))
		src := sub.Pins[0]
		for _, p := range sub.Pins[1:] {
			buf = binary.AppendVarint(buf, p.X-src.X)
			buf = binary.AppendVarint(buf, p.Y-src.Y)
		}
	}
	return string(buf), refFrame{canonical: canonical, src: sub.Pins[0], ranks: r, tf: tf}
}

// refWindowIsometry is core's windowIsometry: e is the stored window's
// frame, (r, tf) the current window's.
func refWindowIsometry(e refFrame, sub tree.Net, r hanan.Ranks, tf hanan.Transform) (*hanan.Isometry, error) {
	if e.canonical {
		return hanan.NewIsometry(e.ranks, e.tf, r, tf)
	}
	return hanan.Translation(sub.Pins[0].Sub(e.src)), nil
}

// refDedupKey is engine.planDedup's key, with its canonical rule.
func refDedupKey(net tree.Net, lambda int, table *lut.Table) (string, refFrame) {
	n := net.Degree()
	canonical := n <= lambda && table != nil && table.Covers(n)
	var buf []byte
	var hs, vs []int64
	var r hanan.Ranks
	var tf hanan.Transform
	if canonical {
		r = hanan.RanksOf(net)
		buf = append(buf[:0], 'S')
		buf, tf = hanan.AppendCanonicalKey(buf, r.Pattern)
		hs, vs = tf.ApplyLengthsInto(r.H, r.V, hs, vs)
		for _, g := range hs {
			buf = binary.AppendVarint(buf, g)
		}
		for _, g := range vs {
			buf = binary.AppendVarint(buf, g)
		}
	} else {
		buf = append(buf[:0], 'L')
		buf = binary.AppendUvarint(buf, uint64(n))
		src := net.Pins[0]
		for _, p := range net.Pins[1:] {
			buf = binary.AppendVarint(buf, p.X-src.X)
			buf = binary.AppendVarint(buf, p.Y-src.Y)
		}
	}
	return string(buf), refFrame{canonical: canonical, ranks: r, tf: tf}
}

// refDedupIsometry is planDedup's derivation: rep is the representative
// net, c its planned candidate.
func refDedupIsometry(c refFrame, rep, net tree.Net, r hanan.Ranks, tf hanan.Transform) (*hanan.Isometry, error) {
	if c.canonical {
		return hanan.NewIsometry(c.ranks, c.tf, r, tf)
	}
	return hanan.Translation(net.Pins[0].Sub(rep.Pins[0])), nil
}

// refNetKey is eco's Session.netKey, with its canonical rule.
func refNetKey(net tree.Net, lambda int, table *lut.Table) (string, refFrame) {
	n := net.Degree()
	canonical := n <= lambda && table.Covers(n)
	var buf []byte
	var r hanan.Ranks
	var tf hanan.Transform
	if canonical {
		r = hanan.RanksOf(net)
		buf = append(buf, 'S')
		buf, tf = hanan.AppendCanonicalKey(buf, r.Pattern)
		hs, vs := tf.ApplyLengthsInto(r.H, r.V, nil, nil)
		for _, g := range hs {
			buf = binary.AppendVarint(buf, g)
		}
		for _, g := range vs {
			buf = binary.AppendVarint(buf, g)
		}
		return string(buf), refFrame{canonical: canonical, src: net.Pins[0], ranks: r, tf: tf}
	}
	buf = append(buf, 'L')
	buf = binary.AppendUvarint(buf, uint64(n))
	src := net.Pins[0]
	for _, p := range net.Pins[1:] {
		buf = binary.AppendVarint(buf, p.X-src.X)
		buf = binary.AppendVarint(buf, p.Y-src.Y)
	}
	return string(buf), refFrame{canonical: canonical, src: net.Pins[0], ranks: r, tf: tf}
}

// refNetIsometry is eco's netIsometry.
func refNetIsometry(e refFrame, net tree.Net, r hanan.Ranks, tf hanan.Transform) (*hanan.Isometry, error) {
	if e.canonical {
		return hanan.NewIsometry(e.ranks, e.tf, r, tf)
	}
	return hanan.Translation(net.Pins[0].Sub(e.src)), nil
}

// keyUser is one memo user under test: its reference key and isometry,
// and the canonical rule it now hands hanan.Key.
type keyUser struct {
	name      string
	ref       func(tree.Net) (string, refFrame)
	refIso    func(stored refFrame, rep, net tree.Net, cur refFrame) (*hanan.Isometry, error)
	canonical func(n int) bool
}

func keyUsers(table *lut.Table) []keyUser {
	users := []keyUser{{
		name: "window",
		ref:  func(net tree.Net) (string, refFrame) { return refWindowKey(net, table.Covers(net.Degree())) },
		refIso: func(e refFrame, _, net tree.Net, cur refFrame) (*hanan.Isometry, error) {
			return refWindowIsometry(e, net, cur.ranks, cur.tf)
		},
		canonical: table.Covers,
	}}
	for _, lambda := range []int{4, DefaultLambda} {
		users = append(users, keyUser{
			name: fmt.Sprintf("dedup/lambda=%d", lambda),
			ref:  func(net tree.Net) (string, refFrame) { return refDedupKey(net, lambda, table) },
			refIso: func(c refFrame, rep, net tree.Net, cur refFrame) (*hanan.Isometry, error) {
				return refDedupIsometry(c, rep, net, cur.ranks, cur.tf)
			},
			canonical: func(n int) bool { return NetCanonical(n, lambda, table) },
		}, keyUser{
			name: fmt.Sprintf("eco/lambda=%d", lambda),
			ref:  func(net tree.Net) (string, refFrame) { return refNetKey(net, lambda, table) },
			refIso: func(e refFrame, _, net tree.Net, cur refFrame) (*hanan.Isometry, error) {
				return refNetIsometry(e, net, cur.ranks, cur.tf)
			},
			canonical: func(n int) bool { return NetCanonical(n, lambda, table) },
		})
	}
	return users
}

// d4Image maps net through one of the 8 plane symmetries (index bits:
// transpose, flip x, flip y) and then translates it by d.
func d4Image(net tree.Net, ti int, d geom.Point) tree.Net {
	out := tree.Net{Pins: make([]geom.Point, len(net.Pins))}
	for i, p := range net.Pins {
		if ti&4 != 0 {
			p.X, p.Y = p.Y, p.X
		}
		if ti&2 != 0 {
			p.X = -p.X
		}
		if ti&1 != 0 {
			p.Y = -p.Y
		}
		out.Pins[i] = p.Add(d)
	}
	return out
}

// keyCorpus builds seeded nets of degrees 2-12 in families: a random
// base (optionally with a duplicate sink, or a sink on the source), all
// 8 of its D4 images, translates and sink permutations. Small spans make
// coordinate ties common.
func keyCorpus(rng *rand.Rand) []tree.Net {
	var nets []tree.Net
	shift := func() geom.Point { return geom.Pt(rng.Int63n(2001)-1000, rng.Int63n(2001)-1000) }
	for n := 2; n <= 12; n++ {
		for variant := 0; variant < 3; variant++ {
			for rep := 0; rep < 2; rep++ {
				base := tree.Net{Pins: make([]geom.Point, n)}
				for i := range base.Pins {
					base.Pins[i] = geom.Pt(rng.Int63n(40), rng.Int63n(40))
				}
				switch {
				case variant == 1 && n >= 3:
					base.Pins[1+rng.Intn(n-1)] = base.Pins[1+rng.Intn(n-1)]
				case variant == 2:
					base.Pins[1+rng.Intn(n-1)] = base.Pins[0]
				}
				for ti := 0; ti < 8; ti++ {
					nets = append(nets, d4Image(base, ti, shift()))
				}
				nets = append(nets, d4Image(base, 0, shift()), d4Image(base, 0, shift()))
				for k := 0; k < 2; k++ {
					perm := d4Image(base, 0, shift())
					rng.Shuffle(n-1, func(i, j int) {
						perm.Pins[1+i], perm.Pins[1+j] = perm.Pins[1+j], perm.Pins[1+i]
					})
					nets = append(nets, perm)
				}
			}
		}
	}
	return nets
}

// TestKeyMatchesReference checks, for each memo user, that two nets get
// equal hanan.Keys iff they got equal reference keys, and that the
// isometry from the class's first net derives — or is refused — exactly
// as the reference's did, mapping trees to identical bytes.
func TestKeyMatchesReference(t *testing.T) {
	table := lut.Default()
	nets := keyCorpus(rand.New(rand.NewSource(21)))
	for _, u := range keyUsers(table) {
		t.Run(u.name, func(t *testing.T) {
			firstRef := map[string]int{}
			firstNew := map[string]int{}
			refFrames := make([]refFrame, len(nets))
			newFrames := make([]hanan.Frame, len(nets))
			groups := 0
			for i, net := range nets {
				rk, rf := u.ref(net)
				var key hanan.Key
				key.Set(net, u.canonical(net.Degree()))
				refFrames[i], newFrames[i] = rf, key.Frame()
				ri, rok := firstRef[rk]
				ni, nok := firstNew[string(key.Bytes())]
				if rok != nok || ri != ni {
					t.Fatalf("net %d (degree %d): reference class %d (found %v), new class %d (found %v)",
						i, net.Degree(), ri, rok, ni, nok)
				}
				if !rok {
					firstRef[rk], firstNew[string(key.Bytes())] = i, i
					groups++
					continue
				}
				rep := nets[ri]
				want, werr := u.refIso(refFrames[ri], rep, net, rf)
				got, gerr := key.IsometryFrom(newFrames[ri])
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("net %d: reference isometry error %v, new %v", i, werr, gerr)
				}
				if werr != nil {
					continue
				}
				for _, tr := range []*tree.Tree{rsmt.Tree(rep), tree.Star(rep)} {
					if a, b := got.ApplyTree(tr), want.ApplyTree(tr); !reflect.DeepEqual(a, b) {
						t.Fatalf("net %d: mapped trees differ:\n new %+v\n ref %+v", i, a, b)
					}
				}
			}
			if groups == len(nets) {
				t.Fatal("corpus produced no shared key")
			}
		})
	}
}
