package hanan

import (
	"testing"

	"patlabor/internal/geom"
	"patlabor/internal/tree"
)

// FuzzKey checks hanan.Key against an image of a net under one of the 8
// plane symmetries (tf's low three bits: transpose, flip x, flip y)
// followed by a translation. Whenever the two keys are equal, the
// isometry from the net's frame must exist, fix the source, and carry
// every pin onto the position of the image pin it maps to (symmetric
// nets may swap equivalent sinks); a pure translate must always share
// the translation key (and the canonical one). The net is decoded from
// data as one byte per coordinate over a small span, so ties and
// duplicate pins are common.
func FuzzKey(f *testing.F) {
	f.Add([]byte{0, 0, 3, 1, 1, 4}, uint8(0), int64(5), int64(-7), true)
	f.Add([]byte{2, 2, 0, 0, 5, 5, 1, 3}, uint8(5), int64(0), int64(0), true)
	f.Add([]byte{9, 1, 9, 1, 0, 7, 4, 4, 6, 2}, uint8(3), int64(-100), int64(40), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, uint8(6), int64(1), int64(1), true)
	f.Fuzz(func(t *testing.T, data []byte, tf uint8, dx, dy int64, canonical bool) {
		n := min(len(data)/2, MaxKeyLen-2)
		if n < 2 {
			return
		}
		d := geom.Pt(dx%1_000_000, dy%1_000_000)
		net := tree.Net{Pins: make([]geom.Point, n)}
		img := tree.Net{Pins: make([]geom.Point, n)}
		moved := tree.Net{Pins: make([]geom.Point, n)}
		for i := range net.Pins {
			p := geom.Pt(int64(data[2*i]%16), int64(data[2*i+1]%16))
			net.Pins[i] = p
			moved.Pins[i] = p.Add(d)
			if tf&4 != 0 {
				p.X, p.Y = p.Y, p.X
			}
			if tf&2 != 0 {
				p.X = -p.X
			}
			if tf&1 != 0 {
				p.Y = -p.Y
			}
			img.Pins[i] = p.Add(d)
		}
		// mapsOnto checks the isometry from a's frame carries every pin
		// of net onto the position of the dst pin it maps to.
		mapsOnto := func(a, b *Key, dst tree.Net) {
			iso, err := b.IsometryFrom(a.Frame())
			if err != nil {
				t.Fatalf("equal keys, no isometry: %v", err)
			}
			seen := make([]bool, n)
			for p, q := range net.Pins {
				to := iso.Pin(p)
				if to < 0 || to >= n || seen[to] || (p == 0) != (to == 0) {
					t.Fatalf("pin map %d -> %d is not a source-fixing bijection", p, to)
				}
				seen[to] = true
				if got := iso.Point(q); got != dst.Pins[to] {
					t.Fatalf("pin %d at %v maps to %v, but its image pin %d is at %v", p, q, got, to, dst.Pins[to])
				}
			}
		}
		var a, b Key
		a.Set(net, canonical)
		b.Set(img, canonical)
		if string(a.Bytes()) == string(b.Bytes()) {
			mapsOnto(&a, &b, img)
		}
		for _, c := range []bool{false, true} {
			a.Set(net, c)
			b.Set(moved, c)
			if string(a.Bytes()) != string(b.Bytes()) {
				t.Fatalf("canonical=%v: translate by %v changed the key", c, d)
			}
			mapsOnto(&a, &b, moved)
		}
	})
}
