//go:build !unix

package core

// The screen rows' portable allocation: on the Go heap (screen_unix.go has
// the contract).

func mapCodes(n int) ([]int8, error) { return make([]int8, n), nil }

func unmapCodes([]int8) error { return nil }
