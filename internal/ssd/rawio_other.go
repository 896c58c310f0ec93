//go:build !linux || !(amd64 || arm64)

package ssd

import "os"

// readVec falls back to sequential positioned reads.
func readVec(f *os.File, vec [][]byte, off int64) (int, error) {
	return readVecFallback(f, vec, off)
}
