package eco_test

import (
	"context"
	"testing"

	"patlabor/internal/core"
	"patlabor/internal/eco"
	"patlabor/internal/geom"
	"patlabor/internal/tree"
)

// decodeNet reads a degree-3..7 base net off the front of data on a
// 16×16 grid. Duplicate pin positions are deliberately representable —
// the router tolerates them and ECO must match it byte for byte.
func decodeNet(data []byte) (tree.Net, []byte, bool) {
	if len(data) < 1 {
		return tree.Net{}, nil, false
	}
	d := 3 + int(data[0]%5)
	data = data[1:]
	if len(data) < d {
		return tree.Net{}, nil, false
	}
	pins := make([]geom.Point, d)
	for i := 0; i < d; i++ {
		pins[i] = geom.Pt(int64(data[i]%16), int64(data[i]/16))
	}
	return tree.Net{Pins: pins}, data[d:], true
}

// decodeEdit turns a 3-byte chunk into one valid edit against a
// degree-deg net. Every chunk decodes to something: ops that would be
// invalid in the current state (removing at degree 2, growing past
// degree 9) degrade to a MovePin, so the stream keeps exercising the
// degenerate cases — duplicate positions, collapse to degree 2, undo
// pairs — without aborting.
func decodeEdit(op, pin, val byte, deg int) eco.Edit {
	p := geom.Pt(int64(val%16), int64(val/16))
	switch op % 4 {
	case 1: // AddSink, capped
		if deg < 9 {
			return eco.AddSink(p)
		}
	case 2: // RemoveSink, floored
		if deg > 2 {
			return eco.RemoveSink(1 + int(pin)%(deg-1))
		}
	case 3:
		return eco.PerturbCoords(int(pin)%deg, geom.Pt(int64(val%7)-3, int64(val/7%7)-3))
	}
	return eco.MovePin(int(pin)%deg, p)
}

// FuzzEditStream is the adversarial half of the churn differential: an
// arbitrary byte string decodes to a base net plus an edit stream, and
// every incremental step must stay byte-identical to a from-scratch
// core.Route of the post-edit net, with every tree validating. The
// committed corpus seeds the degenerate shapes (all pins coincident,
// collapse to degree 2, exact undo pairs).
func FuzzEditStream(f *testing.F) {
	// All pins coincident, then moves on top of each other.
	f.Add([]byte{0, 17, 17, 17, 0, 1, 17, 0, 2, 34})
	// Degree 7 collapsing to 2: removals beyond the floor degrade to moves.
	f.Add([]byte{4, 1, 2, 3, 4, 5, 6, 7, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0})
	// Undo pair: pin 1 to (5,5) and back to its original (2,0).
	f.Add([]byte{1, 1, 2, 3, 4, 0, 1, 85, 0, 1, 2})
	// Grow, shuffle, shrink.
	f.Add([]byte{2, 9, 200, 13, 77, 150, 1, 0, 240, 0, 3, 6, 2, 1, 0, 3, 2, 100, 1, 0, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		net, rest, ok := decodeNet(data)
		if !ok {
			t.Skip()
		}
		s, err := eco.NewSession(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		h, err := s.Track(ctx, net)
		if err != nil {
			t.Fatalf("track: %v", err)
		}
		steps := 0
		for len(rest) >= 3 && steps < 24 {
			edit := decodeEdit(rest[0], rest[1], rest[2], h.Degree())
			rest = rest[3:]
			steps++
			got, err := h.Reroute(ctx, []eco.Edit{edit})
			if err != nil {
				t.Fatalf("step %d (%v): %v", steps, edit.Op, err)
			}
			post := h.Net()
			want, err := core.RouteContext(context.Background(), post, core.Options{})
			if err != nil {
				t.Fatalf("step %d: reference: %v", steps, err)
			}
			sameFrontier(t, "fuzz step", post, got, want)
		}
		if st := s.Stats(); st.EcoHits+st.FullReroutes != st.Tracks+st.Reroutes {
			t.Fatalf("channel invariant broken: %+v", st)
		}
	})
}
