package safs

import (
	"errors"
	"hash/crc32"
	"testing"
)

// extentSums computes one CRC32C per extent of data, as image builders do.
func extentSums(data []byte, extent int) []uint32 {
	var sums []uint32
	for off := 0; off < len(data); off += extent {
		sums = append(sums, crc32.Checksum(data[off:min(off+extent, len(data))], castagnoli))
	}
	return sums
}

// TestAsyncReadsVerifyAtAnyPageSize closes the silent-wrong-answer hole
// of the Figure 13 sweep: pages smaller than a checksum extent (or not a
// multiple of one) used to skip verification on the ReadTask path. One
// flipped bit must surface as ErrCorrupted on every page sharing its
// extent, at every page size, and nowhere else.
func TestAsyncReadsVerifyAtAnyPageSize(t *testing.T) {
	const extent = 4096
	const size = 10*extent + 777 // last extent is partial
	const flipped = 5*extent + 1500
	for _, ps := range []int{1024, 2048, 4096, 6144, 16384} {
		fs, _ := newFS(t, Config{PageSize: ps, CacheBytes: 1 << 20})
		f, _ := fs.Create("f", size)
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i*31 + 7)
		}
		sums := extentSums(data, extent)
		data[flipped] ^= 0x10
		if err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		f.SetChecksums(sums, extent)

		read := func(off int64) error {
			ctx := fs.NewContext()
			var got error
			ctx.ReadTask(f, off, 1, func(v *View, err error) {
				got = err
				if err == nil && v.Slice(0, 1, nil)[0] != data[off] {
					t.Errorf("page size %d: byte %d = %d, want %d", ps, off, v.Slice(0, 1, nil)[0], data[off])
				}
			})
			ctx.Drain()
			return got
		}
		// Every page overlapping the damaged extent fails typed, whether
		// or not the flipped byte itself is on it.
		for off := int64(5 * extent); off < 6*extent; off += int64(ps) {
			if err := read(off); !errors.Is(err, ErrCorrupted) {
				t.Fatalf("page size %d: read at %d (extent of the flipped bit) = %v, want ErrCorrupted", ps, off, err)
			}
		}
		// Pages wholly outside it verify clean — including the file's
		// partial last extent.
		for _, off := range []int64{0, int64(2 * 16384), size - 1} {
			lo, hi := off/int64(ps)*int64(ps), (off/int64(ps)+1)*int64(ps)
			if lo < 6*extent && hi > 5*extent {
				continue // this page size makes the page share the bad extent
			}
			if err := read(off); err != nil {
				t.Fatalf("page size %d: clean read at %d = %v", ps, off, err)
			}
		}
	}
}
