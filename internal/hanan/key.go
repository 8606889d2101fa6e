package hanan

import (
	"encoding/binary"
	"fmt"

	"patlabor/internal/geom"
	"patlabor/internal/tree"
)

// Key is the memo key of a net: the bytes under which the window memo,
// the batch dedup and the ECO net memo file a routed frontier, plus the
// rank-space view that turns an equal key into a verified Isometry. Two
// kinds exist:
//
//   - A canonical key ('C') is the canonical pattern (AppendCanonicalKey)
//     followed by the canonically transformed gap lengths. Nets related
//     by a plane symmetry and a translation can share it, so it is only
//     correct where the router is equivariant under all 8 dihedral
//     symmetries: lut.Table.Query is, the exact DP and the local search
//     are not (their tie-breaks). When the canonical pattern has a
//     non-trivial stabilizer, AppendCanonicalKey's first-found transform
//     can order two such nets' gaps differently: a missed share, never
//     a wrong one.
//   - A translation key ('T') is the degree followed by the
//     source-relative pin coordinates, in pin order. Only pure translates
//     share it, which every router in the library reproduces exactly.
//
// Callers choose the kind; Set only encodes. A Key reuses its buffers
// across Set calls, so one Key per goroutine keeps keying cheap.
type Key struct {
	buf  []byte
	h, v []int64
	f    Frame
}

// Frame is what a memo entry keeps of the key it was stored under: the
// data IsometryFrom needs to map the entry's trees onto a later net with
// an equal key. A Frame never aliases the Key's reused buffers.
type Frame struct {
	// src anchors translation keys: the net's source position.
	src geom.Point
	// ranks and tf anchor canonical keys: the net's rank-space view and
	// the transform onto its canonical pattern.
	ranks Ranks
	tf    Transform
	// canonical follows tf's three bools so that they share one word:
	// every memo entry holds a Frame.
	canonical bool
}

// Set builds the key of net, canonical or translation-only.
func (k *Key) Set(net tree.Net, canonical bool) {
	k.f = Frame{canonical: canonical, src: net.Pins[0]}
	if canonical {
		r := RanksOf(net)
		k.buf = append(k.buf[:0], 'C')
		k.buf, k.f.tf = AppendCanonicalKey(k.buf, r.Pattern)
		k.h, k.v = k.f.tf.ApplyLengthsInto(r.H, r.V, k.h, k.v)
		for _, g := range k.h {
			k.buf = binary.AppendVarint(k.buf, g)
		}
		for _, g := range k.v {
			k.buf = binary.AppendVarint(k.buf, g)
		}
		k.f.ranks = r
		return
	}
	k.buf = append(k.buf[:0], 'T')
	k.buf = binary.AppendUvarint(k.buf, uint64(net.Degree()))
	for _, p := range net.Pins[1:] {
		k.buf = binary.AppendVarint(k.buf, p.X-k.f.src.X)
		k.buf = binary.AppendVarint(k.buf, p.Y-k.f.src.Y)
	}
}

// Bytes returns the key's encoding. It is valid until the next Set.
func (k *Key) Bytes() []byte { return k.buf }

// Frame returns what a memo entry stored under this key keeps.
func (k *Key) Frame() Frame { return k.f }

// IsometryFrom derives the verified map from the net a frame was taken
// of onto this key's net. The caller must have found the frame under
// bytes equal to k.Bytes(); a canonical frame is still re-verified
// coordinate by coordinate (NewIsometry), so a key collision surfaces as
// an error rather than a wrong tree.
func (k *Key) IsometryFrom(f Frame) (*Isometry, error) {
	if f.canonical != k.f.canonical {
		return nil, fmt.Errorf("hanan: frame and key differ in kind")
	}
	if f.canonical {
		return NewIsometry(f.ranks, f.tf, k.f.ranks, k.f.tf)
	}
	return Translation(k.f.src.Sub(f.src)), nil
}
