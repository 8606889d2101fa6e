package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"patlabor/internal/lut"
)

const (
	// setupReps is how often a run sets up; setup_s is the median.
	setupReps = 5
	// minRepeats is the fewest times a run times each input block, however
	// short --seconds is.
	minRepeats = 2
)

// buildTable generates the default lookup table's degrees, as
// lut.Default does on first use in every CLI process.
func buildTable() (*lut.Table, error) {
	tab := lut.New()
	for d := 2; d <= lut.DefaultEagerDegree; d++ {
		if err := tab.Generate(d, workers); err != nil {
			return nil, fmt.Errorf("generating table degree %d: %w", d, err)
		}
	}
	return tab, nil
}

// setUp generates input block 0, builds the table and the first engine or
// session (which for eco_churn tracks the block's nets), and returns the
// runner with the set-up time in seconds.
func setUp(ctx context.Context, w *workload, seed int64) (runner, *lut.Table, float64, error) {
	runtime.GC()
	t0 := time.Now()
	tab, err := buildTable()
	if err != nil {
		return nil, nil, 0, err
	}
	d, err := w.block(seed, 0, tab)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	if err := d.reset(ctx); err != nil {
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return d, tab, time.Since(t0).Seconds(), nil
}

// next builds the runner of input block b on a fresh engine or session,
// outside the timed region.
func next(ctx context.Context, w *workload, seed int64, b int, tab *lut.Table) (runner, error) {
	d, err := w.block(seed, b, tab)
	if err != nil {
		return nil, err
	}
	if err := d.reset(ctx); err != nil {
		return nil, err
	}
	runtime.GC()
	return d, nil
}

// pass is one timed traversal of a workload's calls.
type pass struct {
	wall time.Duration
	lat  []time.Duration // per call
	ops  int64
}

// runPass runs every call once. Call errors reach the checker through
// the runner's outputs.
func runPass(ctx context.Context, d runner) pass {
	p := pass{lat: make([]time.Duration, d.calls())}
	start := time.Now()
	for i := range p.lat {
		t0 := time.Now()
		_ = d.do(ctx, i)
		p.lat[i] = time.Since(t0)
		p.ops += int64(d.ops(i))
	}
	p.wall = time.Since(start)
	return p
}

// verify counts a pass's operations into res. With want nil it checks
// every output from scratch and returns the outputs' fingerprints; later
// passes must reproduce want exactly.
func verify(ctx context.Context, d runner, tab *lut.Table, res *result, want []uint64) []uint64 {
	var got []uint64
	for i := 0; i < d.calls(); i++ {
		for _, o := range d.outputs(i) {
			k := len(got)
			got = append(got, fingerprint(o.items))
			res.Attempted++
			switch {
			case want == nil:
				if err := check(ctx, o, tab); err != nil {
					res.fail("%s: %v", describe(o), err)
				}
			case o.err != nil:
				res.fail("%s: %v", describe(o), o.err)
			case got[k] != want[k]:
				res.fail("%s: frontier differs from the checked pass", describe(o))
			}
		}
	}
	return got
}

// measure is the untraced run: set-up, one discarded warm-up pass, then
// repeats rounds of timed passes over input blocks 1..blocks, each pass on
// a fresh engine or session. The first pass of each block is checked from
// scratch; its repeats must reproduce it exactly.
//
// A call's latency is the fastest of its repeats. Identical passes on
// this class of host differ by up to 50% as neighbours contend for the
// memory system, in phases a few seconds long; a spin loop does not see
// them. The fastest repeat, taken in rounds spread over the run, is the
// call's cost when nothing contends.
func measure(ctx context.Context, w *workload, seed int64, seconds float64) (*result, error) {
	d, tab, setupS, err := setUp(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	setups := []float64{setupS}
	digests := []string{d.digest()}
	runPass(ctx, d) // warm-up on the set-up's engine or session

	res := &result{}
	best := make([][]time.Duration, w.blocks) // per block, per call
	checked := make([][]uint64, w.blocks)     // fingerprints of each block's checked pass
	var ops int64
	var mallocs, bytes uint64
	rounds := w.repeats(seconds)
	for r := 0; r < rounds; r++ {
		for b := range best {
			d = nil // let the previous pass's engine go before the next GC
			if d, err = next(ctx, w, seed, b+1, tab); err != nil {
				return nil, err
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			p := runPass(ctx, d)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			bytes += m1.TotalAlloc - m0.TotalAlloc
			ops += p.ops
			if best[b] == nil {
				best[b] = p.lat
				checked[b] = verify(ctx, d, tab, res, nil)
				digests = append(digests, d.digest())
				continue
			}
			for i, l := range p.lat {
				best[b][i] = min(best[b][i], l)
			}
			verify(ctx, d, tab, res, checked[b])
		}
		// The other set-ups are spread between the rounds, so setup_s is
		// a median over the run's phases of host speed, not one moment.
		for len(setups) < 1+(r+1)*(setupReps-1)/rounds {
			_, _, s, err := setUp(ctx, w, seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s)
		}
	}
	// The last pass's engine or session and its results stay live: the
	// retained heap is the memo and table footprint a caller keeps.
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(d)

	var lat []float64
	var busy time.Duration
	for _, calls := range best {
		for _, l := range calls {
			lat = append(lat, ms(l))
			busy += l
		}
	}
	opsPerRound := float64(ops) / float64(rounds)
	res.digest = combineDigests(digests)
	res.set("setup_s", quantile(setups, 0.5), "s")
	res.set("ops_per_s", opsPerRound/busy.Seconds(), "op/s")
	res.set("op_ms_p50", quantile(lat, 0.5), "ms")
	res.set("op_ms_p90", quantile(lat, 0.9), "ms")
	res.set("alloc_bytes_per_op", float64(bytes)/float64(ops), "B/op")
	res.set("allocs_per_op", float64(mallocs)/float64(ops), "1/op")
	res.set("retained_heap_mb", float64(m.HeapAlloc)/(1<<20), "MB")
	return res, nil
}

// quantile interpolates linearly between the order statistics of xs
// (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
