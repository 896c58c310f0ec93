//go:build !linux || !(amd64 || arm64)

package ssd

import (
	"errors"
	"os"
)

// errNoDirect reports that this platform build has no O_DIRECT path.
var errNoDirect = errors.New("ssd: O_DIRECT unsupported on this platform")

// openDirect always fails here; FileStore degrades to buffered reads
// with cache-drop hints.
func openDirect(string) (*os.File, error) { return nil, errNoDirect }

// fadviseDontNeed is a no-op without the Linux fadvise syscall.
func fadviseDontNeed(*os.File, int64, int64) {}

// readVec falls back to sequential positioned reads.
func readVec(f *os.File, vec [][]byte, off int64) (int, error) {
	return readVecFallback(f, vec, off)
}

// allocAligned needs no special alignment when O_DIRECT is unavailable.
func allocAligned(n, _ int) []byte { return make([]byte, n) }
