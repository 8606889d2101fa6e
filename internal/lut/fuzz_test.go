package lut

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// FuzzFlatLoad throws arbitrary bytes at the flat-format loader. The
// contract under test: corrupt, truncated, or bit-flipped input either
// fails to load or loads into a table whose every access stays in bounds
// — never a panic, index error, or out-of-range read. Both outcomes are
// exercised: blobs that open are queried across the covered degrees and
// fully decoded by SaveFlat, which reads every entry payload.
//
// Seeds include a genuine saved table plus its truncations and targeted
// header mutations; testdata/fuzz/FuzzFlatLoad holds committed degenerate
// headers found interesting by earlier runs.
func FuzzFlatLoad(f *testing.F) {
	src := New()
	for d := 2; d <= 3; d++ {
		if err := src.Generate(d, 1); err != nil {
			f.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.SaveFlat(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, cut := range []int{0, 3, 4, 63, 64, 65, len(valid) / 2, len(valid) - 1} {
		if cut <= len(valid) {
			f.Add(append([]byte(nil), valid[:cut]...))
		}
	}
	for _, off := range []int{5, 8, 16, 20, 24, 32, 40, 48, 56, 64, 70, 84, 88} {
		if off < len(valid) {
			mut := append([]byte(nil), valid...)
			mut[off] ^= 0xFF
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := New()
		if err := tab.LoadFlat(append([]byte(nil), data...)); err != nil {
			return
		}
		// The blob opened: every downstream path must be memory-safe.
		rng := rand.New(rand.NewSource(9))
		for d := 2; d <= 6; d++ {
			for i := 0; i < 2; i++ {
				_, _, _ = tab.Query(randNet(rng, d, 8))
			}
		}
		// Full decode of every entry (the merge path); errors are fine,
		// panics are the bug.
		_ = tab.SaveFlat(io.Discard)
	})
}
