package lut

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// compareTables asserts both tables answer Query byte-identically (ok
// flag, objective vectors, full tree structure) on random nets of the
// given degrees, including tie-heavy nets with collapsed gap lengths.
func compareTables(t *testing.T, a, b *Table, degrees []int, trials int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, d := range degrees {
		for trial := 0; trial < trials; trial++ {
			span := int64(100000)
			if trial%3 == 1 {
				span = 40
			}
			if trial%3 == 2 {
				span = int64(d)
			}
			net := randNet(rng, d, span)
			got, okG, errG := b.Query(net)
			want, okW, errW := a.Query(net)
			if errG != nil || errW != nil || okG != okW {
				t.Fatalf("degree %d trial %d net %v: ok=%v/%v err=%v/%v",
					d, trial, net.Pins, okG, okW, errG, errW)
			}
			if len(got) != len(want) {
				t.Fatalf("degree %d trial %d net %v: frontier %v, want %v",
					d, trial, net.Pins, sols(got), sols(want))
			}
			for i := range want {
				if got[i].Sol != want[i].Sol {
					t.Fatalf("degree %d trial %d net %v: frontier %v, want %v",
						d, trial, net.Pins, sols(got), sols(want))
				}
				if !reflect.DeepEqual(got[i].Val, want[i].Val) {
					t.Fatalf("degree %d trial %d net %v point %d: tree %+v, want %+v",
						d, trial, net.Pins, i, got[i].Val, want[i].Val)
				}
			}
		}
	}
}

// TestFlatRoundTrip proves SaveFlat -> LoadFlat (buffer-backed, no file)
// reproduces coverage, statistics, and byte-identical query results.
func TestFlatRoundTrip(t *testing.T) {
	src := diffTable(t, 4)
	var buf bytes.Buffer
	if err := src.SaveFlat(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := New()
	if err := loaded.LoadFlat(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	for d := 2; d <= 4; d++ {
		if !loaded.Covers(d) {
			t.Fatalf("flat table does not cover degree %d", d)
		}
	}
	srcStats, gotStats := src.Stats(), loaded.Stats()
	if !reflect.DeepEqual(srcStats, gotStats) {
		t.Fatalf("stats diverge:\n src %+v\nflat %+v", srcStats, gotStats)
	}
	compareTables(t, src, loaded, []int{2, 3, 4}, 60, 91)
	// Flat hits are real hits with the same eval accounting shape.
	hits, misses := loaded.Counters()
	if hits == 0 || misses != 0 {
		t.Fatalf("flat counters: hits=%d misses=%d", hits, misses)
	}
	evald, mat := loaded.EvalCounters()
	if evald <= 0 || mat <= 0 || mat > evald {
		t.Fatalf("flat eval counters: evaluated=%d materialized=%d", evald, mat)
	}
}

// TestFlatFileRoundTrip proves SaveFlatFile -> LoadFile attaches a
// mapped backend (on Linux), answers identically, reports its mapped
// bytes, and releases them on Close.
func TestFlatFileRoundTrip(t *testing.T) {
	src := diffTable(t, 4)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.plut")
	if err := src.SaveFlatFile(path); err != nil {
		t.Fatal(err)
	}
	if glob, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(glob) != 0 {
		t.Fatalf("temp files left behind: %v", glob)
	}
	loaded := New()
	if err := loaded.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	loadTime, mapped := loaded.LoadInfo()
	if loadTime <= 0 {
		t.Fatalf("LoadInfo time = %v", loadTime)
	}
	if runtime.GOOS == "linux" && mapped == 0 {
		t.Fatal("flat file load did not map any bytes on linux")
	}
	compareTables(t, src, loaded, []int{2, 3, 4}, 40, 92)
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	if _, mapped := loaded.LoadInfo(); mapped != 0 {
		t.Fatalf("%d bytes still reported mapped after Close", mapped)
	}
}

// gobTable is a complete gob stream of a small table struct, the shape of
// the retired .lut format's files.
const gobTable = "/\x7f\x03\x01\x01\tdiskTable\x01\xff\x80\x00\x01\x02\x01\aVersion\x01\x04\x00" +
	"\x01\aDegrees\x01\xff\x82\x00\x00\x00\x13\xff\x81\x02\x01\x01\x05[]int\x01\xff\x82\x00\x01" +
	"\x04\x00\x00\t\xff\x80\x01\x04\x01\x02\x04\x06\x00"

// TestLoadFileRejectsNonFlat proves LoadFile accepts only flat tables: a
// gob stream (the retired format) and garbage both return an error and
// leave the table unchanged.
func TestLoadFileRejectsNonFlat(t *testing.T) {
	dir := t.TempDir()
	tab := diffTable(t, 3)
	for name, data := range map[string][]byte{
		"gob":     []byte(gobTable),
		"garbage": []byte("PLUX not a lookup table"),
		"empty":   nil,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := tab.LoadFile(path); err == nil {
			t.Fatalf("%s file accepted", name)
		}
	}
	if n := len(tab.snapshot().blobs); n != 2 {
		t.Fatalf("rejected loads changed the table: %d blobs, want 2", n)
	}
	if _, mapped := tab.LoadInfo(); mapped != 0 {
		t.Fatalf("rejected loads left %d bytes mapped", mapped)
	}
}

// TestCloseKeepsGeneratedDegrees proves Close releases only file-backed
// blobs: after LoadFile then Close, the degrees generated in memory
// still answer exactly as before, and a degree only the file covered is
// no longer covered, so its queries miss instead of finding nothing.
func TestCloseKeepsGeneratedDegrees(t *testing.T) {
	src := diffTable(t, 4)
	path := filepath.Join(t.TempDir(), "t.plut")
	if err := src.SaveFlatFile(path); err != nil {
		t.Fatal(err)
	}
	tab := diffTable(t, 3)
	if err := tab.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if !tab.Covers(4) {
		t.Fatal("degree 4 not covered after loading a file that covers it")
	}
	_, mapped := tab.LoadInfo()
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	compareTables(t, src, tab, []int{2, 3}, 30, 93)
	if mapped > 0 && tab.Covers(4) {
		t.Fatal("degree 4 still covered after Close detached the only blob covering it")
	}
}

// TestShardGenerateMerge splits degree-5 generation across shards in
// separate tables (as separate lutgen invocations would), merges the
// shard files, and checks the merged table is byte-identical to a full
// generation — and only flips to covered once the last shard lands.
func TestShardGenerateMerge(t *testing.T) {
	const degree, shards = 5, 3
	full := New()
	if err := full.Generate(degree, 0); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := make([]string, shards)
	for s := 0; s < shards; s++ {
		st := New()
		if err := st.GenerateShard(degree, 0, s, shards); err != nil {
			t.Fatal(err)
		}
		if st.Covers(degree) {
			t.Fatalf("shard %d alone claims full coverage", s)
		}
		paths[s] = filepath.Join(dir, "shard.plut")
		paths[s] += string(rune('0' + s))
		if err := st.SaveFlatFile(paths[s]); err != nil {
			t.Fatal(err)
		}
	}
	merged := New()
	for s := 0; s < shards; s++ {
		if merged.Covers(degree) {
			t.Fatalf("covered before shard %d merged", s)
		}
		if s > 0 {
			missing, sc, ok := merged.MissingShards(degree)
			if !ok || sc != shards || len(missing) != shards-s {
				t.Fatalf("after %d shards: missing=%v shardCount=%d ok=%v", s, missing, sc, ok)
			}
		}
		if err := merged.LoadFile(paths[s]); err != nil {
			t.Fatal(err)
		}
	}
	if !merged.Covers(degree) {
		t.Fatal("all shards merged but degree not covered")
	}
	if missing, _, ok := merged.MissingShards(degree); !ok || missing != nil {
		t.Fatalf("complete degree reports missing=%v ok=%v", missing, ok)
	}
	fullStats, mergedStats := full.Stats(), merged.Stats()
	if len(fullStats) != 1 || len(mergedStats) != 1 {
		t.Fatalf("stats rows: %d/%d", len(fullStats), len(mergedStats))
	}
	fs, ms := fullStats[0], mergedStats[0]
	if ms.NumIndex != fs.NumIndex || ms.TotalTopo != fs.TotalTopo {
		t.Fatalf("merged stats %+v, full generation %+v", ms, fs)
	}
	if ms.ShardCount != 0 || ms.ShardsSeen != 0 {
		t.Fatalf("complete merge kept shard bookkeeping: %+v", ms)
	}
	compareTables(t, full, merged, []int{degree}, 80, 96)

	// Re-merging a shard is a no-op (resumable merges re-scan files).
	if err := merged.LoadFile(paths[1]); err != nil {
		t.Fatal(err)
	}
	if got := merged.Stats()[0]; got != ms {
		t.Fatalf("idempotent re-merge changed stats: %+v -> %+v", ms, got)
	}
}

// TestGenerateShardValidation covers the shard argument contract.
func TestGenerateShardValidation(t *testing.T) {
	tab := New()
	for _, bad := range [][2]int{{0, 0}, {-1, 4}, {4, 4}, {0, MaxShards + 1}} {
		if err := tab.GenerateShard(4, 1, bad[0], bad[1]); err == nil {
			t.Fatalf("shard %d/%d accepted", bad[0], bad[1])
		}
	}
	if err := tab.GenerateShard(4, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if !tab.Covers(4) {
		t.Fatal("single-shard generation must cover the degree")
	}
}

// TestMaxCovered checks the adaptive-sizing helper.
func TestMaxCovered(t *testing.T) {
	tab := diffTable(t, 4)
	for limit, want := range map[int]int{1: 0, 2: 2, 3: 3, 4: 4, 10: 4} {
		if got := tab.MaxCovered(limit); got != want {
			t.Fatalf("MaxCovered(%d) = %d, want %d", limit, got, want)
		}
	}
}

// TestFlatRejectsCorrupt spot-checks the validation the fuzz target
// explores exhaustively: header and structural corruption must error.
func TestFlatRejectsCorrupt(t *testing.T) {
	src := diffTable(t, 3)
	var buf bytes.Buffer
	if err := src.SaveFlat(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	mutate := func(mut func(b []byte) []byte) error {
		b := append([]byte(nil), good...)
		return New().LoadFlat(mut(b))
	}
	cases := map[string]func(b []byte) []byte{
		"empty":        func(b []byte) []byte { return nil },
		"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
		"bad magic":    func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version":  func(b []byte) []byte { b[4] = 99; return b },
		"bad endian":   func(b []byte) []byte { b[6] = 0xFF; return b },
		"bad file len": func(b []byte) []byte { b[56] ^= 0x01; return b },
		"huge entries": func(b []byte) []byte { b[15] = 0xFF; return b },
		"extra byte":   func(b []byte) []byte { return append(b, 0) },
	}
	for name, mut := range cases {
		if err := mutate(mut); err == nil {
			t.Errorf("%s: corrupt flat table accepted", name)
		}
	}
	// And the pristine bytes still load after all that mutation.
	if err := New().LoadFlat(good); err != nil {
		t.Fatal(err)
	}
}

// TestFlatUnalignedBuffer feeds LoadFlat a deliberately misaligned slice:
// the loader must realign (copy) rather than build misaligned int16 views.
func TestFlatUnalignedBuffer(t *testing.T) {
	src := diffTable(t, 3)
	var buf bytes.Buffer
	if err := src.SaveFlat(&buf); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, buf.Len()+1)
	copy(raw[1:], buf.Bytes())
	loaded := New()
	if err := loaded.LoadFlat(raw[1:]); err != nil {
		t.Fatal(err)
	}
	compareTables(t, src, loaded, []int{2, 3}, 20, 97)
}

func TestLoadFileMissing(t *testing.T) {
	if err := New().LoadFile(filepath.Join(t.TempDir(), "nope.plut")); !os.IsNotExist(err) {
		t.Fatalf("err = %v, want not-exist", err)
	}
}

// TestOpen checks the one table-file loader: the file's degrees answer
// first, the eager degrees it lacks are generated behind it, so the
// opened table covers what Default covers and answers like it, and a
// missing file is an error.
func TestOpen(t *testing.T) {
	src := New()
	if err := src.Generate(4, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.plut")
	if err := src.SaveFlatFile(path); err != nil {
		t.Fatal(err)
	}
	tab, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tab.Close()
	for d := 2; d <= DefaultEagerDegree; d++ {
		if !tab.Covers(d) {
			t.Fatalf("opened table does not cover eager degree %d", d)
		}
	}
	if load, _ := tab.LoadInfo(); load <= 0 {
		t.Fatal("opened table reports no file load")
	}
	compareTables(t, Default(), tab, []int{2, 3, 4, 5}, 10, 41)
	if _, err := Open(filepath.Join(t.TempDir(), "nope.plut")); !os.IsNotExist(err) {
		t.Fatalf("err = %v, want not-exist", err)
	}
}
