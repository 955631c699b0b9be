//go:build !linux

package trace

import "os"

// mmapFile is the no-mmap fallback: the indexed reader uses ReadAt instead.
func mmapFile(*os.File, int64) ([]byte, func() error, bool) {
	return nil, nil, false
}
