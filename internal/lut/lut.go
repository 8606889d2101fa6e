// Package lut implements the lookup tables of §V-A: for every canonical
// Hanan pattern of a small degree, the table stores all potentially
// Pareto-optimal tree topologies, produced by the symbolic Pareto-DW of
// internal/param, together with their precompiled (W, D) coefficient form.
//
// Queries are symbolic-first: the net's canonical pattern key is computed
// allocation free, each stored topology's objective vector is evaluated by
// dot products of its coefficient rows against the net's concrete gap
// lengths, the resulting (w, d) points are Pareto-filtered, and only the
// frontier survivors — typically a handful out of hundreds of stored
// topologies — are instantiated as concrete trees. This yields the exact
// Pareto frontier with one optimal tree per point while skipping the tree
// construction, Compact pass, and allocations for every dominated
// topology.
//
// A table has one storage format, the flat zero-copy layout of flat.go,
// and one query evaluator over it. Generation parallelises over patterns,
// encodes the resulting entries into an in-memory flat blob and attaches
// it exactly as LoadFlat attaches a caller's buffer; LoadFile attaches a
// table file the same way, memory-mapped where the platform supports it
// (millisecond cold start). Generation can be sharded deterministically
// across invocations (GenerateShard) and the shard files merged later.
package lut

import (
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"patlabor/internal/hanan"
	"patlabor/internal/param"
	"patlabor/internal/pareto"
	"patlabor/internal/tree"
)

// entry is one canonical pattern's class in decoded form: the potentially
// Pareto-optimal topologies plus their precompiled coefficient solutions
// (sols[i] == topos[i].Solution(n)). Generation produces entries and the
// flat encoder stores them; tables never query this form.
type entry struct {
	topos []param.Topology
	sols  []param.Solution
}

// Table maps canonical pattern keys to their potentially Pareto-optimal
// topologies. A Table may cover several degrees. It consists of its
// degree coverage, its per-degree statistics, and an ordered list of
// read-only flat blobs: generated in memory (Generate), attached from a
// file (LoadFile, memory-mapped where possible) or from a caller's buffer
// (LoadFlat). Lookups search the blobs in attach order and the earliest
// blob wins a key collision, so lookup order is deterministic.
//
// All methods are safe for concurrent use. The read path is lock free:
// Query, Covers and MaxCovered load an immutable snapshot through an
// atomic pointer and never touch the mutex, so a table shared by every
// worker of a batch engine adds no serialisation to the per-net path.
// Mutations (Generate/LoadFlat/LoadFile/Close) run under the writer mutex
// and publish a fresh snapshot when done; a query concurrent with a merge
// sees either the old or the new table, never a partial one. The query
// counters are atomics, each padded to its own cache line so hot updates
// from different workers do not false-share.
type Table struct {
	// snap is the immutable read-path view; see tableSnapshot.
	snap atomic.Pointer[tableSnapshot]

	// mu guards the canonical writer state below. Readers never take it.
	mu      sync.Mutex
	degrees map[int]bool
	stats   map[int]DegreeStats
	blobs   []*flatBlob // attach order

	hits      paddedCount
	misses    paddedCount
	queryErrs paddedCount

	evaluated    paddedCount // topologies evaluated symbolically
	materialized paddedCount // trees instantiated (frontier survivors)

	loadNanos   atomic.Int64 // cumulative wall-clock spent in LoadFile
	mappedBytes atomic.Int64 // bytes currently memory-mapped
}

// paddedCount is an atomic counter alone on its cache line: the hot
// Query counters are bumped once per query by every worker, and packing
// them densely would bounce one shared line between cores on each bump.
type paddedCount struct {
	atomic.Int64
	_ [56]byte
}

// tableSnapshot is the immutable view the lock-free read path consults:
// the covered-degree set and the blob list at publish time. Snapshots are
// never mutated after the atomic pointer store — writers build a fresh
// one per mutation — so readers can use one without synchronisation for
// as long as they hold it.
//
//patlint:shared lock-free readers hold snapshots without synchronisation
type tableSnapshot struct {
	degrees map[int]bool
	blobs   []*flatBlob
}

// emptySnapshot backs tables created as zero values before any publish.
var emptySnapshot = &tableSnapshot{}

// snapshot returns the current read-path view (never nil).
func (t *Table) snapshot() *tableSnapshot {
	if s := t.snap.Load(); s != nil {
		return s
	}
	return emptySnapshot
}

// publishLocked builds and atomically publishes a fresh snapshot of the
// writer state; t.mu must be held. Mutations are rare (table generation,
// file loads) and heavy, so copying the degree set here is noise next to
// the work that preceded it — and it is what lets every Query between
// now and the next mutation run without a lock.
func (t *Table) publishLocked() {
	s := &tableSnapshot{
		degrees: make(map[int]bool, len(t.degrees)),
		blobs:   slices.Clone(t.blobs),
	}
	for d, ok := range t.degrees {
		if ok {
			s.degrees[d] = true
		}
	}
	t.snap.Store(s)
}

// DegreeStats records the generation statistics reported in Table II of
// the paper for one degree, plus the bookkeeping for sharded generation:
// a shard file carries the shard layout it was generated under and a
// bitmap of which shards its stats already cover, so merging shard files
// is idempotent and the merged table knows when a degree became complete.
type DegreeStats struct {
	Degree    int
	NumIndex  int           // number of canonical (r, P) classes generated
	TotalTopo int           // total stored topologies
	GenTime   time.Duration // wall-clock generation time (summed over shards)
	SampledOf int           // when only a sample of classes was generated: total classes

	ShardCount int    // shard layout this degree was generated under (0: unsharded)
	ShardsSeen uint64 // bitmap of shards whose stats are merged in
}

// AvgTopo returns the average number of stored topologies per index.
//
//patlint:ignore exact reporting-only statistic; never feeds routing arithmetic
func (s DegreeStats) AvgTopo() float64 {
	if s.NumIndex == 0 {
		return 0
	}
	return float64(s.TotalTopo) / float64(s.NumIndex)
}

// New returns an empty table.
func New() *Table {
	return &Table{
		degrees: map[int]bool{},
		stats:   map[int]DegreeStats{},
	}
}

// Covers reports whether the table fully covers the given degree. Lock
// free: it reads the published snapshot, so the sub-frontier hot path
// (which probes coverage once per window) never serialises here.
func (t *Table) Covers(degree int) bool {
	return t.snapshot().degrees[degree]
}

// MaxCovered returns the largest fully covered degree that is <= limit,
// or 0 when no degree in range is covered. Callers that size work to the
// table (internal/hier's adaptive cluster sizing) use this instead of
// probing Covers degree by degree. Lock free, like Covers.
func (t *Table) MaxCovered(limit int) int {
	best := 0
	for d, ok := range t.snapshot().degrees {
		if ok && d <= limit && d > best {
			best = d
		}
	}
	return best
}

// LoadInfo reports the cumulative wall-clock time spent loading tables
// from disk (open, map and index validation) and the number of bytes
// currently memory-mapped. Cold-start reporting only; routing
// results never depend on it.
func (t *Table) LoadInfo() (loadTime time.Duration, mappedBytes int64) {
	return time.Duration(t.loadNanos.Load()), t.mappedBytes.Load()
}

// Stats returns the generation statistics per degree, sorted by degree.
func (t *Table) Stats() []DegreeStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]DegreeStats, 0, len(t.stats))
	for _, s := range t.stats {
		out = append(out, s)
	}
	slices.SortFunc(out, func(a, b DegreeStats) int { return a.Degree - b.Degree })
	return out
}

// Generate builds the table for every canonical pattern of the given
// degree using the given number of parallel workers (<=0 means GOMAXPROCS)
// and merges it into t. Degrees 2 and 3 are trivial and fast; degree 7 is
// the practical eager limit on one core (minutes) — use GenerateShard to
// split it across invocations.
func (t *Table) Generate(degree, workers int) error {
	return t.generate(degree, workers, 0, 0, 1)
}

// GenerateSample builds table entries for only the first `sample`
// canonical patterns of the degree (in deterministic enumeration order).
// The degree is NOT marked as covered; queries fall back. Used by the
// Table II experiment to measure per-pattern cost at high degrees.
func (t *Table) GenerateSample(degree, workers, sample int) error {
	return t.generate(degree, workers, sample, 0, 1)
}

// MaxShards bounds the shard count of sharded generation: ShardsSeen
// tracks merged shards in a uint64 bitmap.
const MaxShards = 64

// GenerateShard builds the table entries for one shard of the degree's
// canonical pattern space: pattern i (in deterministic enumeration order)
// belongs to shard i % shardCount. The strided partition balances cost —
// enumeration order correlates with pattern difficulty, so contiguous
// ranges would give the last shard the hardest patterns. The degree is
// marked covered only once all shards are merged into one table (the
// shard bookkeeping travels in the flat file's degree records).
func (t *Table) GenerateShard(degree, workers, shard, shardCount int) error {
	if shardCount < 1 || shardCount > MaxShards {
		return fmt.Errorf("lut: shard count %d out of range [1,%d]", shardCount, MaxShards)
	}
	if shard < 0 || shard >= shardCount {
		return fmt.Errorf("lut: shard %d out of range [0,%d)", shard, shardCount)
	}
	return t.generate(degree, workers, 0, shard, shardCount)
}

func (t *Table) generate(degree, workers, sample, shard, shardCount int) error {
	if degree < 2 {
		return fmt.Errorf("lut: cannot generate degree %d", degree)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now() //patlint:ignore nondet GenTime is a reported statistic; table contents stay deterministic
	all := hanan.CanonicalPatterns(degree)
	total := len(all)
	var pats []hanan.Pattern
	switch {
	case shardCount > 1:
		for i := shard; i < len(all); i += shardCount {
			pats = append(pats, all[i])
		}
	case sample > 0 && sample < len(all):
		pats = all[:sample]
	default:
		pats = all
	}
	type result struct {
		key string
		ent entry
		err error
	}
	// Both channels are buffered to their maximum occupancy so the
	// early-return on r.err below cannot strand a worker (blocked sending
	// a result nobody will read) or the feeder (blocked sending a job no
	// worker will take): every send completes even after the consumer is
	// gone, and the feeder goroutine runs to close(results) unconditionally.
	jobs := make(chan hanan.Pattern, len(pats))
	results := make(chan result, len(pats))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range jobs {
				topos, err := param.EnumeratePattern(p)
				ent := entry{topos: topos}
				if err == nil {
					ent.sols = param.Solutions(topos, p.N)
				}
				results <- result{key: p.Key(), ent: ent, err: err}
			}
		}()
	}
	go func() {
		for _, p := range pats {
			jobs <- p
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()
	entries := make(map[string]entry, len(pats))
	topoCount := 0
	for r := range results {
		if r.err != nil {
			return r.err
		}
		entries[r.key] = r.ent
		topoCount += len(r.ent.topos)
	}
	rec := degreeRecord{DegreeStats: DegreeStats{
		Degree:    degree,
		NumIndex:  len(pats),
		TotalTopo: topoCount,
		GenTime:   time.Since(start), //patlint:ignore nondet GenTime is a reported statistic; table contents stay deterministic
	}}
	switch {
	case shardCount > 1:
		rec.ShardCount = shardCount
		rec.ShardsSeen = 1 << shard
	case sample > 0 && sample < total:
		rec.SampledOf = total
	default:
		rec.covered = true
	}
	keys, ents := sortedEntries(entries)
	data, err := encodeFlat(keys, ents, []degreeRecord{rec})
	if err != nil {
		return err
	}
	return t.LoadFlat(data)
}

// mergeStatsLocked folds one degree's incoming statistics into the table;
// the write lock must be held. Shard stats under the same layout with
// disjoint bitmaps accumulate (and flip the degree to covered when the
// bitmap completes); overlapping shard stats are skipped, which makes
// re-merging the same shard file idempotent; anything else replaces the
// stored row, matching the pre-shard behavior.
func (t *Table) mergeStatsLocked(in DegreeStats) {
	d := in.Degree
	cur, ok := t.stats[d]
	if ok && cur.ShardCount > 0 && in.ShardCount == cur.ShardCount && in.ShardsSeen != 0 {
		if cur.ShardsSeen&in.ShardsSeen != 0 {
			return // shard(s) already merged: resuming a partial merge
		}
		cur.NumIndex += in.NumIndex
		cur.TotalTopo += in.TotalTopo
		cur.GenTime += in.GenTime
		cur.ShardsSeen |= in.ShardsSeen
		if bits.OnesCount64(cur.ShardsSeen) == cur.ShardCount {
			cur.ShardCount = 0
			cur.ShardsSeen = 0
			t.degrees[d] = true
		}
		t.stats[d] = cur
		return
	}
	if ok && t.degrees[d] && in.ShardCount > 0 {
		return // degree already complete; stray shard stats add nothing
	}
	if in.ShardCount > 0 && bits.OnesCount64(in.ShardsSeen) == in.ShardCount {
		// A pre-merged file that still carries its shard layout.
		in.ShardCount = 0
		in.ShardsSeen = 0
		t.degrees[d] = true
	}
	t.stats[d] = in
}

// MissingShards returns which shards of the degree's generation are not
// yet merged into t, given how the degree was sharded. A nil result with
// ok=true means the degree is complete; ok=false means t has no sharded
// stats for the degree at all.
func (t *Table) MissingShards(degree int) (missing []int, shardCount int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.degrees[degree] {
		return nil, 0, true
	}
	s, have := t.stats[degree]
	if !have || s.ShardCount == 0 {
		return nil, 0, false
	}
	for i := 0; i < s.ShardCount; i++ {
		if s.ShardsSeen&(1<<i) == 0 {
			missing = append(missing, i)
		}
	}
	return missing, s.ShardCount, true
}

// scratch holds the reusable per-query buffers: the canonical key, the
// transformed gap-length vectors, the symbolic evaluation rows, and the
// decoded node and parent arrays of the frontier winner being
// instantiated. Pooled so concurrent Query calls neither share nor
// reallocate them.
type scratch struct {
	key     []byte
	h, v    []int64
	evals   []pareto.Item[int32] // each topology's (w, d) and its index in the entry
	nodes   []param.RankNode
	parents []int16
}

var scratchPool = sync.Pool{
	New: func() any {
		return &scratch{
			key: make([]byte, 0, hanan.MaxKeyLen),
			h:   make([]int64, 0, hanan.MaxKeyLen),
			v:   make([]int64, 0, hanan.MaxKeyLen),
		}
	},
}

// maxRetainedEvals bounds the evals capacity a scratch may carry back
// into the pool. evals grows with the queried entry's solution count, so
// one query against a dense high-degree entry would otherwise pin its
// worst-case allocation in every pooled scratch for the process lifetime
// (the pool never shrinks what it is handed). Oversized buffers are
// dropped on put and the next query re-grows from empty; the bound is
// far above the typical entry so steady-state queries still never
// allocate.
const maxRetainedEvals = 4096

// putScratch returns sc to the pool, shedding any buffer that grew past
// its retention bound.
func putScratch(sc *scratch) {
	if cap(sc.evals) > maxRetainedEvals {
		sc.evals = nil
	}
	scratchPool.Put(sc)
}

// Query returns the exact Pareto frontier of the net with one optimal tree
// per point, when the net's canonical pattern is present in the table.
// The boolean is false when the pattern (or degree) is not covered.
//
// The fast path never materializes dominated topologies: every stored
// solution is evaluated symbolically on the net's gap lengths, and only
// the Pareto frontier survivors are instantiated. The evaluations are
// filtered in place by pareto.FilterItems, which is stable, so ties keep
// the earliest stored topology, as materialize-then-filter would.
//
// Nets whose sums could overflow int64 are an error, as in the DP: the
// pins' half-perimeter must stay within hanan.CheckRange's bound for all
// n−1 sinks, because in rank space every pin has a node of its own and a
// stored topology may route through all of them.
func (t *Table) Query(net tree.Net) ([]pareto.Item[*tree.Tree], bool, error) {
	n := net.Degree()
	if n < 2 {
		return nil, false, nil
	}
	if err := hanan.CheckRange(net.Pins, n-1); err != nil {
		return nil, false, err
	}
	r := hanan.RanksOf(net)
	sc := scratchPool.Get().(*scratch)
	defer putScratch(sc)
	key, tf := hanan.AppendCanonicalKey(sc.key[:0], r.Pattern)
	sc.key = key
	// Lock-free lookup: the snapshot is immutable, so its blob list can
	// be read without synchronisation. A concurrent merge publishes a new
	// snapshot; this query finishes on the old one.
	for _, b := range t.snapshot().blobs {
		if i, found := b.find(key); found {
			return t.queryFlat(b, i, r, tf, sc)
		}
	}
	t.misses.Add(1)
	return nil, false, nil
}

// queryFlat answers a Query from entry i of blob b. The symbolic
// evaluation walks the coefficient rows through aligned []int16 views of
// the blob, and only the frontier winners' topologies are decoded, into
// the pooled scratch. Corrupt payloads (possible only with a damaged
// file) return an error and count as query errors, like instantiation
// failures do.
func (t *Table) queryFlat(b *flatBlob, i int, r hanan.Ranks, tf hanan.Transform, sc *scratch) ([]pareto.Item[*tree.Tree], bool, error) {
	fe, err := b.entryAt(i)
	if err != nil {
		t.queryErrs.Add(1)
		return nil, false, err
	}
	// Gap lengths of the canonical instance: the stored coefficient rows
	// are over the canonical pattern's gaps, so map the net's gaps through
	// the canonicalizing transform.
	hh, vv := tf.ApplyLengthsInto(r.H, r.V, sc.h, sc.v)
	sc.h, sc.v = hh, vv
	evals := sc.evals[:0]
	dOff := 0
	for s := 0; s < fe.numSols; s++ {
		rows := int(fe.rowCounts[s])
		if dOff+rows > fe.totalRows {
			t.queryErrs.Add(1)
			return nil, false, fmt.Errorf("lut: flat entry key %q: row counts exceed declared total", fe.key)
		}
		// Mirror of param.Solution.Eval over the stored rows: delay is the
		// max over the solution's delay rows, starting at zero.
		var d int64
		for rr := 0; rr < rows; rr++ {
			if x := fe.dRow(dOff+rr).Eval(hh, vv); x > d {
				d = x
			}
		}
		dOff += rows
		evals = append(evals, pareto.Item[int32]{
			Sol: pareto.Sol{W: fe.wRow(s).Eval(hh, vv), D: d},
			Val: int32(s),
		})
	}
	sc.evals = evals
	t.evaluated.Add(int64(len(evals)))
	winners := pareto.FilterItems(evals)
	items := make([]pareto.Item[*tree.Tree], len(winners))
	for j, w := range winners {
		topo, err := fe.decodeTopo(int(w.Val), sc.nodes, sc.parents)
		if err != nil {
			t.queryErrs.Add(1)
			return nil, false, err
		}
		sc.nodes, sc.parents = topo.Nodes, topo.Parent
		tr, err := topo.Instantiate(r, tf)
		if err != nil {
			t.queryErrs.Add(1)
			return nil, false, fmt.Errorf("lut: instantiating pattern key %q: %w", sc.key, err)
		}
		tr.Compact()
		items[j] = pareto.Item[*tree.Tree]{Sol: w.Sol, Val: tr}
	}
	t.materialized.Add(int64(len(items)))
	t.hits.Add(1)
	return items, true, nil
}

// Counters returns the cumulative Query cache statistics: hits (pattern
// found, frontier answered from the table) and misses (pattern or degree
// not covered, caller falls back to the exact DP). Nets of degree < 2
// count as neither, and queries that found their pattern but failed during
// instantiation are counted separately (QueryErrors), not as hits.
func (t *Table) Counters() (hits, misses int64) {
	return t.hits.Load(), t.misses.Load()
}

// QueryErrors returns how many queries found their pattern in the table
// but failed while instantiating a frontier tree. Such queries return an
// error to the caller and count neither as hits nor as misses.
func (t *Table) QueryErrors() int64 {
	return t.queryErrs.Load()
}

// EvalCounters returns the cumulative symbolic-evaluation statistics:
// topologies whose (w, d) was evaluated by coefficient dot products, and
// trees actually materialized for frontier survivors. Their ratio is the
// work the symbolic fast path avoids.
func (t *Table) EvalCounters() (evaluated, materialized int64) {
	return t.evaluated.Load(), t.materialized.Load()
}

// LoadFile attaches the flat table stored at path to t, memory-mapped
// where the platform supports it. Any other content — a file in another
// format, a truncated or corrupt table — returns an error and leaves t
// unchanged. Wall-clock cost is accumulated into LoadInfo.
func (t *Table) LoadFile(path string) error {
	start := time.Now() //patlint:ignore nondet cold-start timing is a reported statistic; table contents stay deterministic
	defer func() {
		t.loadNanos.Add(time.Since(start).Nanoseconds()) //patlint:ignore nondet cold-start timing is a reported statistic; table contents stay deterministic
	}()
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	data, mapped, err := mapFile(f, fi.Size())
	if err != nil {
		return fmt.Errorf("lut: %s: %w", path, err)
	}
	b, err := openFlatBlob(data)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return fmt.Errorf("lut: %s: %w", path, err)
	}
	// openFlatBlob realigns by copying only when the buffer is misaligned;
	// mappings are page-aligned, so b.data aliasing data here means the
	// mapping itself is the blob and must be tracked for Close.
	if mapped && &b.data[0] == &data[0] {
		b.mapped = true
		t.mappedBytes.Add(int64(len(data)))
	} else if mapped {
		unmapFile(data)
	}
	t.attach(b)
	return nil
}

// readFile reads the whole file into an ordinary buffer: the portable
// fallback of mapFile. The returned bool (mapped) is always false.
func readFile(f *os.File, size int64) ([]byte, bool, error) {
	if size < 0 || size > int64(int(^uint(0)>>1)) {
		return nil, false, io.ErrUnexpectedEOF
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
		return nil, false, err
	}
	return data, false, nil
}

// LoadFlat parses data as a flat-format table and attaches it to t as a
// read-only blob. The table retains (and reads through) data, which
// must not be modified afterwards. Corrupt input returns an error and
// leaves t unchanged.
func (t *Table) LoadFlat(data []byte) error {
	b, err := openFlatBlob(data)
	if err != nil {
		return err
	}
	t.attach(b)
	return nil
}

// attach publishes an opened blob behind the existing ones.
func (t *Table) attach(b *flatBlob) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attachLocked(b)
	t.publishLocked()
}

// attachLocked appends blob b and folds its degree records into the
// table's coverage and statistics; t.mu must be held.
func (t *Table) attachLocked(b *flatBlob) {
	t.blobs = append(t.blobs, b)
	for _, rec := range parseFlatDegrees(b.deg) {
		t.mergeStatsLocked(rec.DegreeStats)
		if rec.covered {
			t.degrees[rec.Degree] = true
		}
	}
}

// Close detaches and unmaps every memory-mapped blob. Blobs held in
// ordinary memory — generated degrees, LoadFlat buffers, files read
// without a mapping — stay attached and keep answering. Coverage and
// statistics are rebuilt from the blobs that stay, so a degree that only
// a detached blob covered is no longer covered, and queries on it miss
// and fall back to the DP. Close must not run concurrently with queries.
func (t *Table) Close() error {
	t.mu.Lock()
	var mapped []*flatBlob
	blobs := t.blobs
	t.blobs, t.degrees, t.stats = nil, map[int]bool{}, map[int]DegreeStats{}
	for _, b := range blobs {
		if b.mapped {
			mapped = append(mapped, b)
		} else {
			t.attachLocked(b)
		}
	}
	// Publish the detached view before unmapping: a later (contract
	// violating) query then at worst misses instead of touching unmapped
	// memory through a stale snapshot.
	t.publishLocked()
	t.mu.Unlock()
	var first error
	for _, b := range mapped {
		t.mappedBytes.Add(-int64(len(b.data)))
		if err := unmapFile(b.data); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var (
	defaultTable     *Table
	defaultTableOnce sync.Once
)

// DefaultEagerDegree is the largest degree the shared default table
// generates eagerly on first use. Generation up to this degree takes well
// under ten seconds on one core; higher degrees can be merged from files
// produced by cmd/lutgen.
const DefaultEagerDegree = 5

// Default returns the shared process-wide table, generating degrees
// 2..DefaultEagerDegree on first use.
func Default() *Table {
	defaultTableOnce.Do(func() {
		defaultTable = New()
		if err := defaultTable.generateEager(); err != nil {
			// Generation of tiny degrees cannot fail other than by
			// programming error; surface it loudly.
			panic(fmt.Sprintf("lut: generating default table: %v", err))
		}
	})
	return defaultTable
}

// Open returns a new table backed by the table file at path (see
// LoadFile), with every degree up to DefaultEagerDegree that the file
// does not cover generated behind it — the same coverage Default has.
func Open(path string) (*Table, error) {
	t := New()
	if err := t.LoadFile(path); err != nil {
		return nil, err
	}
	if err := t.generateEager(); err != nil {
		return nil, err
	}
	return t, nil
}

// generateEager generates every degree 2..DefaultEagerDegree that t does
// not cover yet.
func (t *Table) generateEager() error {
	for d := 2; d <= DefaultEagerDegree; d++ {
		if t.Covers(d) {
			continue
		}
		if err := t.Generate(d, 0); err != nil {
			return err
		}
	}
	return nil
}
