// Package method promotes "a routing method" to a first-class,
// context-aware concept: a named constructor of Pareto frontiers over
// routing trees, registered in a process-wide registry so the public API,
// the batch engine, the CLIs, and the experiment harness all drive off the
// same set of entrants (PatLabor plus every baseline of §VI).
//
// Every method routes through a context.Context, so a slow exact DP or a
// runaway local search can be cancelled or deadlined; the built-in
// adapters thread the context into internal/core, internal/dw, internal/ks
// and internal/ysd at iteration granularity.
package method

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// Method is one routing-tree construction entrant: it returns a Pareto set
// of (wirelength, delay) objective vectors, one tree per retained point,
// in canonical frontier order (W increasing, D decreasing).
type Method interface {
	// Name is the method's display name (e.g. "PatLabor", "SALT"); its
	// lowercased form is the registry key.
	Name() string
	// Frontier computes the method's Pareto set for the net, honouring
	// context cancellation and deadlines.
	Frontier(ctx context.Context, net tree.Net) ([]pareto.Item[*tree.Tree], error)
}

// Func adapts a plain function into a Method. The wrapper rejects empty
// nets and checks the context before dispatching, so every registered
// method fails fast on an already-cancelled context even when the wrapped
// routine predates context support.
type Func struct {
	name string
	fn   func(ctx context.Context, net tree.Net) ([]pareto.Item[*tree.Tree], error)
}

// NewFunc builds a Func method.
func NewFunc(name string, fn func(ctx context.Context, net tree.Net) ([]pareto.Item[*tree.Tree], error)) Func {
	return Func{name: name, fn: fn}
}

// Name implements Method.
func (f Func) Name() string { return f.name }

// Frontier implements Method.
func (f Func) Frontier(ctx context.Context, net tree.Net) ([]pareto.Item[*tree.Tree], error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if net.Degree() == 0 {
		return nil, fmt.Errorf("method %s: empty net", f.name)
	}
	return f.fn(ctx, net)
}

var (
	mu       sync.RWMutex
	registry = map[string]Method{}
	order    []string // primary keys in registration order
)

// Key canonicalises a method name for registry lookup: lookups are
// case-insensitive and whitespace-trimmed.
func Key(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// Register adds m under Key(m.Name()) and under every alias. Re-registering
// an existing key replaces its method (latest wins) without duplicating the
// Names entry.
func Register(m Method, aliases ...string) {
	mu.Lock()
	defer mu.Unlock()
	key := Key(m.Name())
	if key == "" {
		panic("method: Register with empty name")
	}
	if _, exists := registry[key]; !exists {
		order = append(order, key)
	}
	registry[key] = m
	for _, a := range aliases {
		registry[Key(a)] = m
	}
}

// Get resolves a method by name or alias (case-insensitive).
func Get(name string) (Method, bool) {
	mu.RLock()
	defer mu.RUnlock()
	m, ok := registry[Key(name)]
	return m, ok
}

// Names returns the primary registry keys in registration order (aliases
// are omitted). The slice is a copy.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return append([]string(nil), order...)
}

// Standard returns the §VI comparison entrants in table order: PatLabor,
// SALT and YSD, plus Prim–Dijkstra and Pareto-KS when all is true.
func Standard(all bool) []Method {
	names := []string{"patlabor", "salt", "ysd"}
	if all {
		names = append(names, "pd", "ks")
	}
	out := make([]Method, 0, len(names))
	for _, n := range names {
		m, ok := Get(n)
		if !ok {
			panic("method: standard entrant " + n + " not registered")
		}
		out = append(out, m)
	}
	return out
}
