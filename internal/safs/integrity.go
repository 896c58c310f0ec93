package safs

// End-to-end read integrity: SAFS files can carry per-extent CRC32C
// checksums (computed at image-build time and persisted in the image
// container). Every read path — synchronous ReadAt and asynchronous
// page loads — verifies the covered extents before data reaches a
// caller, so a flipped bit on an SSD surfaces as a typed
// CorruptionError instead of a silently wrong result.

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupted is the sentinel every checksum-mismatch error matches
// with errors.Is. It means the bytes read from the array do not match
// the checksum recorded when the file was written: the storage (or an
// injected fault) corrupted data, and the read result must not be used.
var ErrCorrupted = errors.New("safs: data corruption detected")

// CorruptionError reports a checksum mismatch on one extent of a file.
type CorruptionError struct {
	File   string // SAFS file name
	Extent int    // extent index within the file
	Off    int64  // extent byte offset within the file
	Want   uint32 // recorded CRC32C
	Got    uint32 // computed CRC32C
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("safs: corruption in %q extent %d at offset %d: crc32c %08x, want %08x",
		e.File, e.Extent, e.Off, e.Got, e.Want)
}

// Is makes errors.Is(err, ErrCorrupted) match.
func (e *CorruptionError) Is(target error) bool { return target == ErrCorrupted }

// SetChecksums arms read verification for f: sums holds one CRC32C per
// extentSize-byte extent of the file (the last extent covers only the
// bytes up to the file size). Call after the file is fully written
// (files are write-once). A nil sums disarms verification.
func (f *File) SetChecksums(sums []uint32, extentSize int) {
	if sums == nil || extentSize <= 0 {
		f.sums, f.extSize = nil, 0
		return
	}
	want := int((f.size + int64(extentSize) - 1) / int64(extentSize))
	if len(sums) != want {
		panic(fmt.Sprintf("safs: file %q size %d needs %d checksums of extent %d, got %d",
			f.name, f.size, want, extentSize, len(sums)))
	}
	f.sums = sums
	f.extSize = int64(extentSize)
}

// verifyPads returns the scratch buffers that widen a read of [lo, hi)
// of f to whole extents, so that whatever the page size — smaller than
// an extent, or not a multiple of one — everything an asynchronous load
// publishes has been verified. Both are nil for an unchecksummed file,
// and when the range already starts and ends on an extent boundary (or
// at the end of the file): the case whenever the extent size divides
// the page size.
func (f *File) verifyPads(lo, hi int64) (head, tail []byte) {
	if f.sums == nil {
		return nil, nil
	}
	if r := lo % f.extSize; r != 0 {
		head = make([]byte, r)
	}
	if r := hi % f.extSize; r != 0 && hi < f.size {
		tail = make([]byte, min(f.extSize-r, f.size-hi))
	}
	return head, tail
}

// verifyRun checks the extents held by the scatter list vec: the bytes
// of f from extent-aligned offset off up to an extent boundary or past
// the end of the file, of which the n cache pages starting at file
// offset lo are about to be published. It returns nil when every extent
// matches its checksum, else one verdict per page: the CorruptionError
// of the first damaged extent the page shares, nil for a clean page.
func (f *File) verifyRun(vec [][]byte, off, lo int64, n int) []error {
	if f.sums == nil {
		return nil
	}
	ps := int64(f.fs.pageSize)
	var verdicts []error
	bi, bo := 0, 0 // cursor into vec: buffer index, offset within buffer
	for ; off < f.size && bi < len(vec); off += f.extSize {
		end := min(off+f.extSize, f.size)
		crc := uint32(0)
		for need := end - off; need > 0 && bi < len(vec); {
			b := vec[bi][bo:]
			if int64(len(b)) > need {
				b = b[:need]
			}
			crc = crc32.Update(crc, castagnoli, b)
			need -= int64(len(b))
			if bo += len(b); bo == len(vec[bi]) {
				bi, bo = bi+1, 0
			}
		}
		idx := int(off / f.extSize)
		if crc == f.sums[idx] {
			continue
		}
		if verdicts == nil {
			verdicts = make([]error, n)
		}
		cerr := &CorruptionError{File: f.name, Extent: idx, Off: off, Want: f.sums[idx], Got: crc}
		for k := int((max(off, lo) - lo) / ps); k < n && lo+int64(k)*ps < end; k++ {
			if verdicts[k] == nil {
				verdicts[k] = cerr
			}
		}
	}
	return verdicts
}

// VerifyRange checks every extent overlapping [off, off+len(p)), where
// p holds the bytes read from that range. Boundary extents only partly
// covered by p are completed with small synchronous pad reads, so
// arbitrary (unaligned) reads — SpMV stripe sweeps — still verify
// end to end. No-op when the file carries no checksums.
func (f *File) VerifyRange(p []byte, off int64) error {
	if f.sums == nil || len(p) == 0 {
		return nil
	}
	ext := f.extSize
	end := off + int64(len(p))
	var scratch []byte
	for eo := off - off%ext; eo < end; eo += ext {
		ee := eo + ext
		if ee > f.size {
			ee = f.size
		}
		crc := uint32(0)
		if eo < off {
			// Head pad: extent bytes before the caller's range.
			pad, err := f.readPad(&scratch, eo, off)
			if err != nil {
				return err
			}
			crc = crc32.Update(crc, castagnoli, pad)
		}
		lo, hi := eo, ee
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		crc = crc32.Update(crc, castagnoli, p[lo-off:hi-off])
		if ee > end {
			// Tail pad: extent bytes after the caller's range.
			pad, err := f.readPad(&scratch, end, ee)
			if err != nil {
				return err
			}
			crc = crc32.Update(crc, castagnoli, pad)
		}
		idx := int(eo / ext)
		if crc != f.sums[idx] {
			return &CorruptionError{File: f.name, Extent: idx, Off: eo, Want: f.sums[idx], Got: crc}
		}
	}
	return nil
}

// readPad reads [lo, hi) of the file into (a slice of) *scratch via the
// raw array path (no re-verification).
func (f *File) readPad(scratch *[]byte, lo, hi int64) ([]byte, error) {
	n := hi - lo
	if int64(cap(*scratch)) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	if err := f.fs.array.ReadAt(buf, f.base+lo); err != nil {
		return nil, fmt.Errorf("safs: verify pad read of %q [%d,%d): %w", f.name, lo, hi, err)
	}
	return buf, nil
}
