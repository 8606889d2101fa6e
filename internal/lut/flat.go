package lut

// Flat zero-copy table format — the one representation of a Table.
//
// The table is laid out as one contiguous blob designed to be queried
// directly from a read-only memory mapping: a process starts answering
// queries milliseconds after open, pages are faulted in on demand, and
// every process mapping the same file shares one page-cache copy.
// Generated tables use the same bytes, held in ordinary memory.
//
// All multi-byte fields are in the writing host's native byte order —
// little-endian on every common platform, so files there are
// byte-for-byte the same everywhere. The symbolic coefficient rows are
// read through aligned []int16 views of the blob (no decode, no
// allocation on the query path); the endianness probe in the header
// rejects a file written on a host of the other byte order rather than
// silently mis-evaluating it.
//
//	header (64 bytes)
//	  0  magic "PLUT"
//	  4  u16 format version (1)
//	  6  u16 endianness probe (0x1234)
//	  8  u64 number of entries
//	 16  u64 index section offset   (sorted fixed-size key records)
//	 24  u64 entry section offset   (8-aligned per-entry payloads)
//	 32  u64 entry section length
//	 40  u64 degree section offset  (per-degree coverage + statistics)
//	 48  u64 degree section length
//	 56  u64 total file length
//
//	index record (32 bytes, sorted by key bytes, strictly increasing)
//	  0  key[18]   canonical pattern key (hanan.MaxKeyLen), zero padded
//	 20  u32 entry length (bytes)
//	 24  u64 entry offset (relative to the entry section, 8-aligned)
//
//	entry payload (per canonical pattern; dim = 2*(degree-1))
//	  0  u32 numSols                 stored topologies == solutions
//	  4  u32 totalRows               Σ delay rows over all solutions
//	  8  u32 topoArrOff              byte offset of the topoEnd array
//	 12  u32 topoBlobLen
//	 16  u16 rowCounts[numSols]      delay rows per solution
//	     i16 W[numSols*dim]          wirelength coefficient rows
//	     i16 D[totalRows*dim]        delay coefficient rows (solution order)
//	     -- pad to 4 --
//	     u32 topoEnd[numSols]        cumulative end offsets into topoBlob
//	     u8  topoBlob                per topology: numNodes*3 node bytes
//	                                 (I,J,Sink as int8), then numNodes*2
//	                                 parent bytes (int16); numNodes =
//	                                 recordLen/5
//
//	degree record (56 bytes)
//	  u32 degree, u32 flags (bit0: fully covered), u32 numIndex,
//	  u32 sampledOf, u32 shardCount, u32 reserved,
//	  u64 shardsSeen (bitmap), u64 totalTopo, u64 reserved (written 0),
//	  i64 generation wall-clock nanoseconds
//
// The open path validates the header and the whole index (bounds, order,
// alignment) but touches no entry payloads; per-entry validation happens
// on first query of that entry, so opening stays O(index) and the kernel
// pages the rest in lazily. Every payload access is bounds-checked —
// corrupt or truncated files produce errors, never panics (FuzzFlatLoad
// enforces this).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
	"unsafe"

	"patlabor/internal/hanan"
	"patlabor/internal/param"
)

// flatMagic tags flat-format files.
var flatMagic = [4]byte{'P', 'L', 'U', 'T'}

const (
	flatVersion     = 1
	flatEndianProbe = 0x1234
	flatHeaderLen   = 64
	flatIndexRec    = 32
	flatKeyLen      = hanan.MaxKeyLen // 18
	flatDegreeRec   = 56

	// flatMaxNodes bounds topology node counts: parents are int16 and
	// instantiation indexes node slots with them.
	flatMaxNodes = 1<<15 - 1

	flagCovered = 1 << 0
)

// int16View reinterprets b as a []int16. b must be 2-aligned and of even
// length; callers derive both from validated offsets.
func int16View(b []byte) []int16 {
	if len(b) < 2 {
		return nil
	}
	return unsafe.Slice((*int16)(unsafe.Pointer(&b[0])), len(b)/2)
}

// uint16View reinterprets b as a []uint16 under the same contract.
func uint16View(b []byte) []uint16 {
	if len(b) < 2 {
		return nil
	}
	return unsafe.Slice((*uint16)(unsafe.Pointer(&b[0])), len(b)/2)
}

// uint32View reinterprets b as a []uint32; b must be 4-aligned.
func uint32View(b []byte) []uint32 {
	if len(b) < 4 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func align4(x int) int { return (x + 3) &^ 3 }
func align8(x int) int { return (x + 7) &^ 7 }

// flatBlob is one opened flat table: the raw bytes (mapped, read or
// generated into memory) plus the validated index section. It is
// immutable after open and safe for concurrent readers.
type flatBlob struct {
	data   []byte
	mapped bool // true when data is a syscall mapping that needs Munmap
	n      int  // number of entries
	index  []byte
	blob   []byte // entry section
	deg    []byte // degree section
}

// openFlatBlob validates data as a flat table and returns the blob view.
// The returned blob aliases data.
func openFlatBlob(data []byte) (*flatBlob, error) {
	if len(data) < flatHeaderLen {
		return nil, fmt.Errorf("lut: flat table truncated: %d header bytes", len(data))
	}
	if uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		// The coefficient views need alignment; buffers from os.ReadFile
		// and syscall.Mmap are 8-aligned, but an arbitrary caller slice
		// (fuzzing, sub-slices) may not be. Realign with a copy.
		aligned := make([]byte, len(data))
		copy(aligned, data)
		data = aligned
	}
	ne := binary.NativeEndian
	if [4]byte(data[0:4]) != flatMagic {
		return nil, fmt.Errorf("lut: not a flat table (bad magic %q)", data[0:4])
	}
	// The probe comes first: on a file from a host of the other byte
	// order every later field reads byte-swapped.
	if p := ne.Uint16(data[6:]); p != flatEndianProbe {
		return nil, fmt.Errorf("lut: flat table endianness probe %#x, want %#x (written on a host of the other byte order?)", p, flatEndianProbe)
	}
	if v := ne.Uint16(data[4:]); v != flatVersion {
		return nil, fmt.Errorf("lut: flat table format version %d is not the supported %d", v, flatVersion)
	}
	size := uint64(len(data))
	numEntries := ne.Uint64(data[8:])
	indexOff := ne.Uint64(data[16:])
	blobOff := ne.Uint64(data[24:])
	blobLen := ne.Uint64(data[32:])
	degOff := ne.Uint64(data[40:])
	degLen := ne.Uint64(data[48:])
	if fl := ne.Uint64(data[56:]); fl != size {
		return nil, fmt.Errorf("lut: flat table declares %d bytes, file has %d", fl, size)
	}
	if numEntries > (size-flatHeaderLen)/flatIndexRec {
		return nil, fmt.Errorf("lut: flat table declares %d entries, impossible in %d bytes", numEntries, size)
	}
	indexLen := numEntries * flatIndexRec
	for _, sec := range [][2]uint64{{indexOff, indexLen}, {blobOff, blobLen}, {degOff, degLen}} {
		if sec[0] < flatHeaderLen || sec[0] > size || sec[1] > size-sec[0] {
			return nil, fmt.Errorf("lut: flat table section [%d,+%d) out of bounds (%d bytes)", sec[0], sec[1], size)
		}
	}
	if blobOff%8 != 0 {
		return nil, fmt.Errorf("lut: flat table entry section misaligned at %d", blobOff)
	}
	if degLen%flatDegreeRec != 0 {
		return nil, fmt.Errorf("lut: flat table degree section length %d not a multiple of %d", degLen, flatDegreeRec)
	}
	b := &flatBlob{
		data:  data,
		n:     int(numEntries),
		index: data[indexOff : indexOff+indexLen],
		blob:  data[blobOff : blobOff+blobLen],
		deg:   data[degOff : degOff+degLen],
	}
	// Validate the whole index up front: keys strictly increasing (binary
	// search correctness, no duplicates), entry extents in bounds and
	// aligned. This touches only the contiguous index pages.
	var prev []byte
	for i := 0; i < b.n; i++ {
		rec := b.index[i*flatIndexRec : (i+1)*flatIndexRec]
		key := rec[:flatKeyLen]
		if prev != nil && bytes.Compare(prev, key) >= 0 {
			return nil, fmt.Errorf("lut: flat table index not strictly sorted at record %d", i)
		}
		prev = key
		n := int(key[0])
		if n < 2 || n > flatKeyLen-2 {
			return nil, fmt.Errorf("lut: flat table record %d: degree %d out of range", i, n)
		}
		entryLen := uint64(ne.Uint32(rec[20:]))
		entryOff := ne.Uint64(rec[24:])
		if entryOff%8 != 0 || entryOff > blobLen || entryLen > blobLen-entryOff {
			return nil, fmt.Errorf("lut: flat table record %d: entry [%d,+%d) out of bounds", i, entryOff, entryLen)
		}
	}
	return b, nil
}

// find returns the index-record position of key, or (-1, false). Keys
// lead with their degree byte, which also fixes their length, and the
// index is sorted: a key whose degree lies outside the first and last
// records' is rejected without a search (a query skips the blobs of other
// degrees in O(1)), and comparing record prefixes of len(key) orders the
// records exactly as their zero-padded keys do.
func (b *flatBlob) find(key []byte) (int, bool) {
	if len(key) < 2 || len(key) != int(key[0])+2 || len(key) > flatKeyLen || b.n == 0 ||
		key[0] < b.index[0] || key[0] > b.index[(b.n-1)*flatIndexRec] {
		return -1, false
	}
	recKey := func(i int) []byte { return b.index[i*flatIndexRec : i*flatIndexRec+len(key)] }
	i := sort.Search(b.n, func(i int) bool { return bytes.Compare(recKey(i), key) >= 0 })
	if i < b.n && bytes.Equal(recKey(i), key) {
		return i, true
	}
	return -1, false
}

// flatEntry is the validated zero-copy view of one entry payload: all
// slices alias the blob.
type flatEntry struct {
	key       []byte // canonical pattern key (trimmed, aliases the index)
	dim       int
	numSols   int
	totalRows int
	rowCounts []uint16
	w, d      []int16
	topoEnds  []uint32
	topoBlob  []byte
}

// entryAt parses and bounds-checks entry i. Corrupt payloads return an
// error; they can never read outside the blob.
func (b *flatBlob) entryAt(i int) (flatEntry, error) {
	ne := binary.NativeEndian
	rec := b.index[i*flatIndexRec : (i+1)*flatIndexRec]
	key := rec[:flatKeyLen]
	n := int(key[0])
	entryLen := int(ne.Uint32(rec[20:]))
	entryOff := int(ne.Uint64(rec[24:])) // bounds validated at open
	e := b.blob[entryOff : entryOff+entryLen]
	if entryLen < 16 {
		return flatEntry{}, fmt.Errorf("lut: flat entry %d: %d bytes, want >= 16", i, entryLen)
	}
	fe := flatEntry{key: key[:n+2], dim: 2 * (n - 1)}
	numSols := int(ne.Uint32(e[0:]))
	totalRows := int(ne.Uint32(e[4:]))
	topoArrOff := int(ne.Uint32(e[8:]))
	topoBlobLen := int(ne.Uint32(e[12:]))
	// All section extents are recomputed from the counts and checked
	// against the declared layout, so a lying header cannot move a view
	// out of the entry.
	rcEnd := 16 + 2*numSols
	wEnd := rcEnd + 2*numSols*fe.dim
	dEnd := wEnd + 2*totalRows*fe.dim
	topoEndsEnd := topoArrOff + 4*numSols
	if numSols < 0 || totalRows < 0 || topoBlobLen < 0 ||
		numSols > entryLen || totalRows > entryLen || // caps the products below
		wEnd < rcEnd || dEnd < wEnd ||
		dEnd > entryLen || topoArrOff != align4(dEnd) ||
		topoEndsEnd < topoArrOff || topoEndsEnd > entryLen ||
		topoBlobLen != entryLen-topoEndsEnd {
		return flatEntry{}, fmt.Errorf("lut: flat entry %d (key %q): inconsistent layout", i, fe.key)
	}
	fe.numSols = numSols
	fe.totalRows = totalRows
	fe.rowCounts = uint16View(e[16:rcEnd])
	fe.w = int16View(e[rcEnd:wEnd])
	fe.d = int16View(e[wEnd:dEnd])
	fe.topoEnds = uint32View(e[topoArrOff:topoEndsEnd])
	fe.topoBlob = e[topoEndsEnd:]
	return fe, nil
}

// wRow returns solution s's wirelength coefficient row.
func (fe *flatEntry) wRow(s int) param.Vec {
	return param.Vec(fe.w[s*fe.dim : (s+1)*fe.dim])
}

// dRow returns delay row r (an absolute row index across the entry).
func (fe *flatEntry) dRow(r int) param.Vec {
	return param.Vec(fe.d[r*fe.dim : (r+1)*fe.dim])
}

// decodeTopo reconstructs stored topology s as a param.Topology whose
// node and parent arrays reuse the capacity of nodes and parents (nil
// allocates). Queries decode only frontier winners, into pooled scratch.
func (fe *flatEntry) decodeTopo(s int, nodes []param.RankNode, parents []int16) (param.Topology, error) {
	start := 0
	if s > 0 {
		start = int(fe.topoEnds[s-1])
	}
	end := int(fe.topoEnds[s])
	if start < 0 || end < start || end > len(fe.topoBlob) || (end-start)%5 != 0 {
		return param.Topology{}, fmt.Errorf("lut: flat topology %d of key %q: bad record [%d,%d)", s, fe.key, start, end)
	}
	numNodes := (end - start) / 5
	if numNodes < 1 || numNodes > flatMaxNodes {
		return param.Topology{}, fmt.Errorf("lut: flat topology %d of key %q: %d nodes", s, fe.key, numNodes)
	}
	rec := fe.topoBlob[start:end]
	nodes, parents = nodes[:0], parents[:0]
	for i := 0; i < numNodes; i++ {
		nodes = append(nodes, param.RankNode{
			I:    int8(rec[3*i]),
			J:    int8(rec[3*i+1]),
			Sink: int8(rec[3*i+2]),
		})
	}
	pb := rec[3*numNodes:]
	for i := 0; i < numNodes; i++ {
		p := int16(binary.NativeEndian.Uint16(pb[2*i:]))
		if i == 0 {
			if p != -1 {
				return param.Topology{}, fmt.Errorf("lut: flat topology %d of key %q: root parent %d", s, fe.key, p)
			}
		} else if p < 0 || int(p) >= numNodes {
			return param.Topology{}, fmt.Errorf("lut: flat topology %d of key %q: parent %d out of range", s, fe.key, p)
		}
		parents = append(parents, p)
	}
	return param.Topology{Nodes: nodes, Parent: parents}, nil
}

// decodeEntry materializes entry i of the blob in decoded form, for
// re-encoding (SaveFlat merges every blob of a table into one file).
func (b *flatBlob) decodeEntry(i int) (string, entry, error) {
	fe, err := b.entryAt(i)
	if err != nil {
		return "", entry{}, err
	}
	ent := entry{
		topos: make([]param.Topology, fe.numSols),
		sols:  make([]param.Solution, fe.numSols),
	}
	dOff := 0
	for s := 0; s < fe.numSols; s++ {
		rows := int(fe.rowCounts[s])
		if dOff+rows > fe.totalRows {
			return "", entry{}, fmt.Errorf("lut: flat entry key %q: row counts exceed total", fe.key)
		}
		sol := param.Solution{W: append(param.Vec(nil), fe.wRow(s)...)}
		for r := 0; r < rows; r++ {
			sol.D = append(sol.D, append(param.Vec(nil), fe.dRow(dOff+r)...))
		}
		dOff += rows
		ent.sols[s] = sol
		ent.topos[s], err = fe.decodeTopo(s, nil, nil)
		if err != nil {
			return "", entry{}, err
		}
	}
	return string(fe.key), ent, nil
}

// degreeRecord is one degree's statistics plus its coverage flag, as
// stored in the degree section.
type degreeRecord struct {
	DegreeStats
	covered bool
}

// parseFlatDegrees reads the degree section of an opened blob.
func parseFlatDegrees(data []byte) []degreeRecord {
	ne := binary.NativeEndian
	recs := make([]degreeRecord, len(data)/flatDegreeRec)
	for i := range recs {
		r := data[i*flatDegreeRec:]
		recs[i] = degreeRecord{
			DegreeStats: DegreeStats{
				Degree:     int(ne.Uint32(r[0:])),
				NumIndex:   int(ne.Uint32(r[8:])),
				SampledOf:  int(ne.Uint32(r[12:])),
				ShardCount: int(ne.Uint32(r[16:])),
				ShardsSeen: ne.Uint64(r[24:]),
				TotalTopo:  int(ne.Uint64(r[32:])),
				GenTime:    time.Duration(int64(ne.Uint64(r[48:]))),
			},
			covered: ne.Uint32(r[4:])&flagCovered != 0,
		}
	}
	return recs
}

// encodeFlat lays out one flat table: keys must be sorted and strictly
// increasing, entries index-aligned with keys, and degs one record per
// degree.
func encodeFlat(keys []string, entries []entry, degs []degreeRecord) ([]byte, error) {
	// Pass 1: per-entry layout.
	type entryLayout struct {
		off, size, totalRows, topoArrOff int
	}
	layouts := make([]entryLayout, len(keys))
	blobLen := 0
	for i, k := range keys {
		e := entries[i]
		n := int(k[0])
		dim := 2 * (n - 1)
		numSols := len(e.sols)
		if len(k) > flatKeyLen {
			return nil, fmt.Errorf("lut: entry key %q longer than %d bytes", k, flatKeyLen)
		}
		if len(e.topos) != numSols {
			return nil, fmt.Errorf("lut: entry %q has %d topologies but %d solutions", k, len(e.topos), numSols)
		}
		totalRows := 0
		topoBlobLen := 0
		for s := 0; s < numSols; s++ {
			if len(e.sols[s].W) != dim {
				return nil, fmt.Errorf("lut: entry %q solution %d: W dimension %d, want %d", k, s, len(e.sols[s].W), dim)
			}
			for _, row := range e.sols[s].D {
				if len(row) != dim {
					return nil, fmt.Errorf("lut: entry %q solution %d: D dimension %d, want %d", k, s, len(row), dim)
				}
			}
			totalRows += len(e.sols[s].D)
			nn := len(e.topos[s].Nodes)
			if nn < 1 || nn > flatMaxNodes || len(e.topos[s].Parent) != nn {
				return nil, fmt.Errorf("lut: entry %q topology %d: %d nodes / %d parents", k, s, nn, len(e.topos[s].Parent))
			}
			topoBlobLen += 5 * nn
		}
		topoArrOff := align4(16 + 2*numSols + 2*numSols*dim + 2*totalRows*dim)
		size := topoArrOff + 4*numSols + topoBlobLen
		layouts[i] = entryLayout{off: blobLen, size: size, totalRows: totalRows, topoArrOff: topoArrOff}
		blobLen += align8(size)
	}
	indexOff := flatHeaderLen
	blobOff := indexOff + len(keys)*flatIndexRec
	degOff := blobOff + blobLen
	degLen := len(degs) * flatDegreeRec
	buf := make([]byte, degOff+degLen)

	ne := binary.NativeEndian
	copy(buf[0:4], flatMagic[:])
	ne.PutUint16(buf[4:], flatVersion)
	ne.PutUint16(buf[6:], flatEndianProbe)
	ne.PutUint64(buf[8:], uint64(len(keys)))
	ne.PutUint64(buf[16:], uint64(indexOff))
	ne.PutUint64(buf[24:], uint64(blobOff))
	ne.PutUint64(buf[32:], uint64(blobLen))
	ne.PutUint64(buf[40:], uint64(degOff))
	ne.PutUint64(buf[48:], uint64(degLen))
	ne.PutUint64(buf[56:], uint64(len(buf)))
	for i, k := range keys {
		rec := buf[indexOff+i*flatIndexRec:]
		copy(rec[:flatKeyLen], k)
		ne.PutUint32(rec[20:], uint32(layouts[i].size))
		ne.PutUint64(rec[24:], uint64(layouts[i].off))
	}
	for i, k := range keys {
		e := entries[i]
		lay := layouts[i]
		dim := 2 * (int(k[0]) - 1)
		numSols := len(e.sols)
		out := buf[blobOff+lay.off : blobOff+lay.off+lay.size]
		ne.PutUint32(out[0:], uint32(numSols))
		ne.PutUint32(out[4:], uint32(lay.totalRows))
		ne.PutUint32(out[8:], uint32(lay.topoArrOff))
		ne.PutUint32(out[12:], uint32(lay.size-(lay.topoArrOff+4*numSols)))
		rcOff := 16
		wOff := rcOff + 2*numSols
		dOff := wOff + 2*numSols*dim
		row := 0
		for s := range e.sols {
			sol := &e.sols[s]
			ne.PutUint16(out[rcOff+2*s:], uint16(len(sol.D)))
			for kk, c := range sol.W {
				ne.PutUint16(out[wOff+2*(s*dim+kk):], uint16(c))
			}
			for _, dr := range sol.D {
				for kk, c := range dr {
					ne.PutUint16(out[dOff+2*(row*dim+kk):], uint16(c))
				}
				row++
			}
		}
		topoOff := lay.topoArrOff + 4*numSols
		cum := 0
		for s := range e.topos {
			tp := &e.topos[s]
			nn := len(tp.Nodes)
			for j, nd := range tp.Nodes {
				out[topoOff+cum+3*j] = byte(nd.I)
				out[topoOff+cum+3*j+1] = byte(nd.J)
				out[topoOff+cum+3*j+2] = byte(nd.Sink)
			}
			pb := topoOff + cum + 3*nn
			for j, p := range tp.Parent {
				ne.PutUint16(out[pb+2*j:], uint16(p))
			}
			cum += 5 * nn
			ne.PutUint32(out[lay.topoArrOff+4*s:], uint32(cum))
		}
	}
	for i := range degs {
		s := &degs[i]
		dr := buf[degOff+i*flatDegreeRec:]
		ne.PutUint32(dr[0:], uint32(s.Degree))
		if s.covered {
			ne.PutUint32(dr[4:], flagCovered)
		}
		ne.PutUint32(dr[8:], uint32(s.NumIndex))
		ne.PutUint32(dr[12:], uint32(s.SampledOf))
		ne.PutUint32(dr[16:], uint32(s.ShardCount))
		ne.PutUint64(dr[24:], s.ShardsSeen)
		ne.PutUint64(dr[32:], uint64(s.TotalTopo))
		ne.PutUint64(dr[48:], uint64(s.GenTime.Nanoseconds()))
	}
	return buf, nil
}

// SaveFlat writes the table in the flat format: every entry of every
// blob (earliest blob first on a key collision, as in Query) with keys
// sorted, the layout every flat reader binary-searches, plus one degree
// record per degree.
func (t *Table) SaveFlat(w io.Writer) error {
	keys, entries, err := t.snapshotEntries()
	if err != nil {
		return err
	}
	t.mu.Lock()
	degs := make([]degreeRecord, 0, len(t.stats))
	for d, st := range t.stats {
		degs = append(degs, degreeRecord{DegreeStats: st, covered: t.degrees[d]})
	}
	t.mu.Unlock()
	slices.SortFunc(degs, func(a, b degreeRecord) int { return a.Degree - b.Degree })
	data, err := encodeFlat(keys, entries, degs)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// SaveFlatFile writes the flat table to path atomically: the bytes go to
// a temporary file in the target directory which is renamed into place
// only after a successful write, so an interrupted run never leaves a
// truncated table behind.
func (t *Table) SaveFlatFile(path string) error {
	return atomicWrite(path, t.SaveFlat)
}

// atomicWrite streams save(w) into a temp file in path's directory and
// renames it into place only after a successful write and close.
func atomicWrite(path string, save func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if f != nil {
			f.Close()
		}
		if tmp != "" {
			os.Remove(tmp)
		}
	}()
	if err := save(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f = nil
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	tmp = ""
	return nil
}

// snapshotEntries decodes every entry of the table into key-sorted,
// index-aligned slices. Blobs are searched in attach order and the
// earliest wins a key collision, matching Query.
func (t *Table) snapshotEntries() ([]string, []entry, error) {
	merged := map[string]entry{}
	for _, b := range t.snapshot().blobs {
		for i := 0; i < b.n; i++ {
			k, e, err := b.decodeEntry(i)
			if err != nil {
				return nil, nil, err
			}
			if _, ok := merged[k]; !ok {
				merged[k] = e
			}
		}
	}
	keys, entries := sortedEntries(merged)
	return keys, entries, nil
}

// sortedEntries returns the map's keys in sorted order with their
// entries index-aligned.
func sortedEntries(m map[string]entry) ([]string, []entry) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]entry, len(keys))
	for i, k := range keys {
		entries[i] = m[k]
	}
	return keys, entries
}
