package lut

import (
	"testing"

	"patlabor/internal/pareto"
)

// TestPutScratchCapsRetention pins the pool-retention bound: a scratch
// whose evals buffer grew past maxRetainedEvals must shed it on put
// (one dense high-degree query must not pin its worst-case allocation
// in the pool forever), while a normally sized buffer is kept so
// steady-state queries stay allocation-free.
func TestPutScratchCapsRetention(t *testing.T) {
	small := &scratch{evals: make([]pareto.Item[int32], 0, maxRetainedEvals)}
	putScratch(small)
	if cap(small.evals) != maxRetainedEvals {
		t.Fatalf("at-bound evals dropped: cap=%d, want %d", cap(small.evals), maxRetainedEvals)
	}

	big := &scratch{evals: make([]pareto.Item[int32], 0, maxRetainedEvals+1)}
	putScratch(big)
	if big.evals != nil {
		t.Fatalf("oversized evals retained: cap=%d, want nil", cap(big.evals))
	}
}
