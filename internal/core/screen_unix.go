//go:build unix

package core

import (
	"fmt"
	"syscall"
	"unsafe"
)

// mapCodes returns n zeroed int8 codes in an anonymous private mapping of
// their own, outside the Go heap: the rows cost the process their own size
// and nothing more, where on the heap they would also raise the garbage
// collector's goal by as much again. unmapCodes is the only way to free
// them.
func mapCodes(n int) ([]int8, error) {
	if n == 0 {
		return nil, nil
	}
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("core: map %d bytes of screen rows: %w", n, err)
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&b[0])), n), nil
}

// unmapCodes unmaps codes from mapCodes; reading them afterwards faults.
func unmapCodes(codes []int8) error {
	if len(codes) == 0 {
		return nil
	}
	return syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&codes[0])), len(codes)))
}
