// Package eco implements incremental re-routing (ECO mode): applying a
// stream of small net mutations — pin moves, sink insertions and
// removals, coordinate perturbations — and re-deriving each post-edit
// Pareto frontier at a fraction of the from-scratch cost.
//
// The correctness bar is absolute: an incremental Reroute returns the
// byte-identical frontier that core.Route would produce on the post-edit
// net. PatLabor's pipeline is deterministic, so no divergent "warm
// start" of the search is admissible; every saving must come from
// exactness-preserving reuse instead:
//
//   - Net-level memo: post-edit nets whose geometry matches a previously
//     routed net — up to translation always, up to the 8 dihedral
//     symmetries for table-covered degrees up to λ — are answered by
//     transforming the memoized frontier through a verified
//     hanan.Isometry. The memo is a second core.SubCache keyed by
//     hanan.Key under core.NetCanonical, the batch engine's planDedup
//     key extended across time instead of across a batch, and it is
//     what makes ECO try/revert loops nearly free.
//
//   - Warm sub-frontier memo: the Session shares one core.SubCache
//     across every reroute, so local-search windows whose pins an edit
//     did not touch are answered by the byte-exact window memo.
//
//   - Precise invalidation: each full route records its consulted
//     windows (core.SubTrace); an edit marks the dirtied subtrees of the
//     previous trees, closes them to a dirty pin set, and evicts exactly
//     the traced cache keys that set touches (SubCache.Remove) — dead
//     keys never pile up into the wholesale capacity flush, and
//     unrelated windows stay resident.
//
// Handles deep-copy their nets and frontiers on every boundary: callers
// mutating a returned tree, an input net, or an edit slice can never
// corrupt session state (the aliasing hazard the batch engine's dedup
// avoids only within a single call).
package eco

import (
	"fmt"

	"patlabor/internal/geom"
	"patlabor/internal/tree"
)

// Op is the kind of one net mutation.
type Op uint8

const (
	// OpMovePin repositions pin Pin (the source is allowed) to the
	// absolute position P.
	OpMovePin Op = iota
	// OpAddSink appends a new sink at P; it becomes the highest pin
	// index.
	OpAddSink
	// OpRemoveSink deletes sink Pin (never the source); higher pin
	// indices shift down by one. The net must keep at least two pins.
	OpRemoveSink
	// OpPerturbCoords nudges pin Pin (the source is allowed) by the
	// relative offset P.
	OpPerturbCoords
)

// String names the op for diagnostics.
func (op Op) String() string {
	switch op {
	case OpMovePin:
		return "MovePin"
	case OpAddSink:
		return "AddSink"
	case OpRemoveSink:
		return "RemoveSink"
	case OpPerturbCoords:
		return "PerturbCoords"
	}
	return fmt.Sprintf("Op(%d)", uint8(op))
}

// Edit is one net mutation. Construct edits with MovePin, AddSink,
// RemoveSink and PerturbCoords; the zero Edit moves the source onto the
// origin.
type Edit struct {
	Op  Op
	Pin int
	// P is the absolute position (MovePin, AddSink) or the relative
	// offset (PerturbCoords); unused by RemoveSink.
	P geom.Point
}

// MovePin repositions pin (source allowed) to the absolute position p.
func MovePin(pin int, p geom.Point) Edit { return Edit{Op: OpMovePin, Pin: pin, P: p} }

// AddSink appends a sink at p as the highest pin index.
func AddSink(p geom.Point) Edit { return Edit{Op: OpAddSink, P: p} }

// RemoveSink deletes sink pin (never the source), shifting higher pin
// indices down by one.
func RemoveSink(pin int) Edit { return Edit{Op: OpRemoveSink, Pin: pin} }

// PerturbCoords nudges pin (source allowed) by the relative offset d.
func PerturbCoords(pin int, d geom.Point) Edit { return Edit{Op: OpPerturbCoords, Pin: pin, P: d} }

// Diff summarizes the net difference produced by an edit sequence. It is
// computed on final state versus original — edits that cancel each other
// out contribute nothing.
type Diff struct {
	// PinMap maps each original pin index to its post-edit index, -1 for
	// removed sinks. Added sinks have no original counterpart.
	PinMap []int
	// OldDirty lists, in increasing order, the original pin indices that
	// the edits moved or removed — the pins whose previous routing (and
	// cached windows) the edit dirties.
	OldDirty []int
	// NewDirty lists, in increasing order, the post-edit pin indices
	// whose positions differ from their original counterparts, plus the
	// added sinks.
	NewDirty []int
	// Structural reports whether the pin count or correspondence changed
	// (any sink added or removed).
	Structural bool
	// Unchanged reports whether the post-edit net is identical to the
	// original: same degree, same correspondence, every pin in place.
	Unchanged bool
}

// Apply applies edits to net in order and returns the post-edit net plus
// the final-state Diff. The input net is never mutated; the returned net
// shares no storage with it. An invalid edit (pin out of range, removing
// the source, shrinking below two pins) aborts with the index of the
// offending edit and no partial result.
func Apply(net tree.Net, edits []Edit) (tree.Net, *Diff, error) {
	pins := append([]geom.Point(nil), net.Pins...)
	// pinMap[i] tracks where original pin i currently lives; origin[j]
	// tracks which original pin currently lives at j (-1 for added).
	pinMap := make([]int, len(net.Pins))
	origin := make([]int, len(net.Pins))
	for i := range pinMap {
		pinMap[i] = i
		origin[i] = i
	}
	structural := false
	for k, e := range edits {
		switch e.Op {
		case OpMovePin:
			if e.Pin < 0 || e.Pin >= len(pins) {
				return tree.Net{}, nil, fmt.Errorf("eco: edit %d: MovePin %d out of range [0,%d)", k, e.Pin, len(pins))
			}
			pins[e.Pin] = e.P
		case OpPerturbCoords:
			if e.Pin < 0 || e.Pin >= len(pins) {
				return tree.Net{}, nil, fmt.Errorf("eco: edit %d: PerturbCoords %d out of range [0,%d)", k, e.Pin, len(pins))
			}
			pins[e.Pin] = pins[e.Pin].Add(e.P)
		case OpAddSink:
			pins = append(pins, e.P)
			origin = append(origin, -1)
			structural = true
		case OpRemoveSink:
			if e.Pin < 1 || e.Pin >= len(pins) {
				return tree.Net{}, nil, fmt.Errorf("eco: edit %d: RemoveSink %d out of range [1,%d)", k, e.Pin, len(pins))
			}
			if len(pins) <= 2 {
				return tree.Net{}, nil, fmt.Errorf("eco: edit %d: RemoveSink %d would leave a degree-%d net", k, e.Pin, len(pins)-1)
			}
			if o := origin[e.Pin]; o >= 0 {
				pinMap[o] = -1
			}
			pins = append(pins[:e.Pin], pins[e.Pin+1:]...)
			origin = append(origin[:e.Pin], origin[e.Pin+1:]...)
			for j := e.Pin; j < len(origin); j++ {
				if o := origin[j]; o >= 0 {
					pinMap[o] = j
				}
			}
			structural = true
		default:
			return tree.Net{}, nil, fmt.Errorf("eco: edit %d: unknown op %d", k, e.Op)
		}
	}
	d := &Diff{PinMap: pinMap, Structural: structural}
	for i, j := range pinMap {
		if j < 0 || pins[j] != net.Pins[i] {
			d.OldDirty = append(d.OldDirty, i)
		}
	}
	for j, o := range origin {
		if o < 0 || pins[j] != net.Pins[o] {
			d.NewDirty = append(d.NewDirty, j)
		}
	}
	d.Unchanged = !structural && len(d.OldDirty) == 0
	return tree.Net{Pins: pins}, d, nil
}
