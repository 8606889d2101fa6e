//go:build linux

package lut

import (
	"os"
	"syscall"
)

// mapFile makes the contents of f available as one byte slice, preferring
// a read-only shared memory mapping: the table starts query-warm without
// decoding or copying, pages fault in on demand, and every process
// mapping the same file shares a single page-cache copy. The returned
// bool reports whether the slice is a mapping (and must go through
// unmapFile) or a plain buffer. Empty files and mmap failures (exotic
// filesystems) fall back to reading into memory.
func mapFile(f *os.File, size int64) ([]byte, bool, error) {
	if size > 0 && size <= int64(int(^uint(0)>>1)) {
		data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
		if err == nil {
			return data, true, nil
		}
	}
	return readFile(f, size)
}

// unmapFile releases a mapping returned by mapFile.
func unmapFile(data []byte) error {
	return syscall.Munmap(data)
}
