// Package sharedmut seeds violations for the cache-ownership analyzer:
// every write through a value whose provenance is the shared cache is a
// finding.
package sharedmut

import "slices"

// Frontier is a cache-owned frontier entry; all values alias the cache.
//
//patlint:shared cache-owned test type; readers alias items
type Frontier struct {
	items []int64
}

var cache = map[string]*Frontier{}

// lookup returns the cache-owned entry. The result type seeds taint, and
// returning a tainted value marks lookup itself as shared for callers.
func lookup(key string) *Frontier {
	return cache[key]
}

// MutateIndex writes an element of a cache-owned slice.
func MutateIndex(key string) {
	e := lookup(key)
	e.items[0] = 1 // want(sharedmut): write to cache-owned data "e.items[0]" (clone before mutating; shared provenance per //patlint:shared)
}

// AppendInPlace grows a cache-owned slice in place: with spare capacity
// the append writes into the shared backing array.
func AppendInPlace(key string) []int64 {
	e := lookup(key)
	return append(e.items, 9) // want(sharedmut): write to cache-owned data "e.items" (clone before mutating; shared provenance per //patlint:shared)
}

// SortShared reorders the shared slice for every other reader.
func SortShared(key string) {
	e := lookup(key)
	slices.Sort(e.items) // want(sharedmut): call mutates cache-owned data "e.items" (clone before mutating; shared provenance per //patlint:shared)
}

// reset writes through its receiver; facts mark it a mutator, and since
// the receiver is of a shared type the write itself is also a finding.
func (f *Frontier) reset() {
	f.items[0] = 0 // want(sharedmut): write to cache-owned data "f.items[0]" (clone before mutating; shared provenance per //patlint:shared)
}

// CallMutator reaches the mutation through a method call.
func CallMutator(key string) {
	e := lookup(key)
	e.reset() // want(sharedmut): call mutates cache-owned data "e" (clone before mutating; shared provenance per //patlint:shared)
}

// CopyInto uses a cache-owned slice as a copy destination.
func CopyInto(key string, src []int64) {
	e := lookup(key)
	copy(e.items, src) // want(sharedmut): call mutates cache-owned data "e.items" (clone before mutating; shared provenance per //patlint:shared)
}
