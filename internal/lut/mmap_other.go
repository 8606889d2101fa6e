//go:build !linux

package lut

import "os"

// mapFile on platforms without the mmap backend reads the file into an
// ordinary buffer. Queries work identically; only the page-cache sharing
// and lazy-fault cold start of the Linux mapping are lost.
func mapFile(f *os.File, size int64) ([]byte, bool, error) {
	return readFile(f, size)
}

// unmapFile is a no-op without a mapping backend.
func unmapFile([]byte) error { return nil }
