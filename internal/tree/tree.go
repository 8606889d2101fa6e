// Package tree defines the rooted rectilinear Steiner routing tree type
// shared by every construction algorithm in the library, together with the
// exact evaluation of the two optimisation objectives (wirelength and
// source-to-sink delay), structural validation, and delay-preserving
// Steinerisation and cleanup passes.
//
// Steinerisation is incremental: it loads the tree's adjacency into an
// Evaluator once, keeps each node's best sibling pair in a heap ordered
// by (saving descending, node index ascending), and after each Steiner
// point it inserts rescans only the two nodes whose child lists changed.
// Within a node the first best pair in child-index order wins, so the
// points, their order and the resulting tree do not depend on the heap.
package tree

import (
	"fmt"

	"patlabor/internal/geom"
	"patlabor/internal/pareto"
)

// Net is a routing instance: Pins[0] is the source r, the remaining pins
// are sinks.
type Net struct {
	Pins []geom.Point
}

// NewNet builds a net from a source and sinks.
func NewNet(source geom.Point, sinks ...geom.Point) Net {
	pins := make([]geom.Point, 0, 1+len(sinks))
	pins = append(pins, source)
	pins = append(pins, sinks...)
	return Net{Pins: pins}
}

// Source returns the source pin r = Pins[0].
func (n Net) Source() geom.Point { return n.Pins[0] }

// Degree returns the number of pins.
func (n Net) Degree() int { return len(n.Pins) }

// Sinks returns the sink pins (all but the source).
func (n Net) Sinks() []geom.Point { return n.Pins[1:] }

// BBox returns the bounding box of all pins.
func (n Net) BBox() geom.Rect { return geom.BoundingBox(n.Pins) }

// Node is one vertex of a routing tree. Pin is the index of the pin it
// realises (0 for the source), or -1 for a Steiner point.
type Node struct {
	P   geom.Point
	Pin int
}

// IsSteiner reports whether the node is a Steiner point rather than a pin.
func (nd Node) IsSteiner() bool { return nd.Pin < 0 }

// Tree is a routing tree rooted at the source. Parent[i] is the node index
// of i's parent, -1 for the root. Each edge (i, Parent[i]) is realised
// rectilinearly with length equal to the L1 distance of its endpoints.
type Tree struct {
	Nodes  []Node
	Parent []int
	Root   int
}

// New returns a tree containing only the root node at p realising pin.
func New(p geom.Point, pin int) *Tree {
	return &Tree{
		Nodes:  []Node{{P: p, Pin: pin}},
		Parent: []int{-1},
		Root:   0,
	}
}

// Clone returns a deep copy of t.
func (t *Tree) Clone() *Tree { return t.CloneCap(t.Len()) }

// CloneCap returns a deep copy of t with room for n nodes, so that
// growing the copy to n nodes (Add, Graft, Steinerize) does not
// reallocate.
func (t *Tree) CloneCap(n int) *Tree {
	n = max(n, t.Len())
	c := &Tree{
		Nodes:  make([]Node, t.Len(), n),
		Parent: make([]int, t.Len(), n),
		Root:   t.Root,
	}
	copy(c.Nodes, t.Nodes)
	copy(c.Parent, t.Parent)
	return c
}

// Add appends a node at p realising pin (or -1 for Steiner) as a child of
// parent, returning its index.
func (t *Tree) Add(p geom.Point, pin, parent int) int {
	t.Nodes = append(t.Nodes, Node{P: p, Pin: pin})
	t.Parent = append(t.Parent, parent)
	return len(t.Nodes) - 1
}

// Len returns the number of nodes.
func (t *Tree) Len() int { return len(t.Nodes) }

// Children returns, for each node, the indices of its children.
func (t *Tree) Children() [][]int {
	ch := make([][]int, len(t.Nodes))
	for i, p := range t.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], i)
		}
	}
	return ch
}

// Wirelength returns the total rectilinear edge length of the tree.
func (t *Tree) Wirelength() int64 {
	var w int64
	for i, p := range t.Parent {
		if p >= 0 {
			w = geom.AddCheck(w, geom.Dist(t.Nodes[i].P, t.Nodes[p].P))
		}
	}
	return w
}

// PathLengths returns, for each node, the rectilinear path length from the
// root along tree edges.
func (t *Tree) PathLengths() []int64 {
	d := make([]int64, len(t.Nodes))
	order := t.TopoOrder()
	for _, i := range order {
		if p := t.Parent[i]; p >= 0 {
			d[i] = d[p] + geom.Dist(t.Nodes[i].P, t.Nodes[p].P)
		}
	}
	return d
}

// MaxDelay returns the maximum path length from the root to any sink node
// (nodes with Pin >= 1). A tree with no sinks has delay 0.
func (t *Tree) MaxDelay() int64 {
	d := t.PathLengths()
	var m int64
	for i, nd := range t.Nodes {
		if nd.Pin >= 1 && d[i] > m {
			m = d[i]
		}
	}
	return m
}

// Sol returns the objective vector (wirelength, delay) of the tree.
func (t *Tree) Sol() pareto.Sol {
	return pareto.Sol{W: t.Wirelength(), D: t.MaxDelay()}
}

// TopoOrder returns node indices reachable from the root in root-first
// order (every node appears after its parent). Nodes not reachable from
// the root — only possible in invalid trees — are omitted; Validate
// rejects such trees.
func (t *Tree) TopoOrder() []int {
	ch := t.Children()
	order := make([]int, 0, len(t.Nodes))
	queue := []int{t.Root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		queue = append(queue, ch[v]...)
	}
	return order
}

// Validate checks the tree realises net: the root is at the net's source,
// every pin appears at its exact position with the right index, the parent
// structure is a connected acyclic rooted tree, and no node is orphaned.
func (t *Tree) Validate(net Net) error {
	n := len(t.Nodes)
	if n == 0 {
		return fmt.Errorf("tree: empty")
	}
	if len(t.Parent) != n {
		return fmt.Errorf("tree: %d nodes but %d parent entries", n, len(t.Parent))
	}
	if t.Root < 0 || t.Root >= n {
		return fmt.Errorf("tree: root index %d out of range", t.Root)
	}
	if t.Parent[t.Root] != -1 {
		return fmt.Errorf("tree: root has parent %d", t.Parent[t.Root])
	}
	if t.Nodes[t.Root].Pin != 0 {
		return fmt.Errorf("tree: root realises pin %d, want 0 (source)", t.Nodes[t.Root].Pin)
	}
	if t.Nodes[t.Root].P != net.Source() {
		return fmt.Errorf("tree: root at %v, source at %v", t.Nodes[t.Root].P, net.Source())
	}
	seen := make([]bool, net.Degree())
	for i, nd := range t.Nodes {
		if i != t.Root && (t.Parent[i] < 0 || t.Parent[i] >= n) {
			return fmt.Errorf("tree: node %d has invalid parent %d", i, t.Parent[i])
		}
		if i != t.Root && t.Parent[i] == i {
			return fmt.Errorf("tree: node %d is its own parent", i)
		}
		if nd.Pin >= net.Degree() {
			return fmt.Errorf("tree: node %d realises pin %d, net has %d pins", i, nd.Pin, net.Degree())
		}
		if nd.Pin >= 0 {
			if nd.P != net.Pins[nd.Pin] {
				return fmt.Errorf("tree: node %d claims pin %d at %v, pin is at %v",
					i, nd.Pin, nd.P, net.Pins[nd.Pin])
			}
			seen[nd.Pin] = true
		}
	}
	for pin, ok := range seen {
		if !ok {
			return fmt.Errorf("tree: pin %d not present", pin)
		}
	}
	// Acyclicity + connectivity: every node must reach the root.
	for i := 0; i < n; i++ {
		v, steps := i, 0
		for v != t.Root {
			v = t.Parent[v]
			steps++
			if v < 0 || steps > n {
				return fmt.Errorf("tree: node %d does not reach the root", i)
			}
		}
	}
	return nil
}

// Star returns the trivial tree connecting every sink directly to the
// source. It is a valid routing tree with minimum possible delay and
// (generally) large wirelength.
func Star(net Net) *Tree {
	t := New(net.Source(), 0)
	for i := 1; i < net.Degree(); i++ {
		t.Add(net.Pins[i], i, t.Root)
	}
	return t
}
