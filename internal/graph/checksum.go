package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Per-extent CRC32C checksums for the v2 container. The writer appends
// an OPTIONAL trailer section after the last data section:
//
//	magic   "FGCKSUM1"                    8 bytes
//	extent  u32 LE  checksummed extent size in bytes
//	outCnt  u32 LE  = ceil(outLen/extent)
//	inCnt   u32 LE  = ceil(inLen/extent)
//	outSums outCnt × u32 LE  CRC32C of each out-edge data extent
//	inSums  inCnt  × u32 LE  CRC32C of each in-edge data extent
//	crc     u32 LE  CRC32C of the trailer from magic through inSums
//
// Placement after the data keeps every prior reader working unchanged:
// Decode consumes exactly outLen+inLen data bytes and stops, and
// OpenImageFile addresses data through bounded section readers — the
// trailer is simply bytes nobody seeks to. New readers detect it by
// magic and arm read-path verification (safs.File.SetChecksums) with
// the sums; images without the trailer (written before it existed) load
// with verification computed at load time instead.

// ChecksumExtentSize is the granularity of persisted data checksums.
// It equals the default SAFS page size, so one loaded cache page
// verifies exactly against one recorded extent.
const ChecksumExtentSize = 4096

// checksumMagic introduces the trailer section.
const checksumMagic = "FGCKSUM1"

// castagnoli is the CRC32C table (shared with the safs verifier).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// extentCount returns how many checksummed extents cover n data bytes.
func extentCount(n int64, extent int) int64 {
	if n <= 0 {
		return 0
	}
	return (n + int64(extent) - 1) / int64(extent)
}

// extentSummer accumulates per-extent CRC32C checksums over a byte
// stream, extent boundaries handled across arbitrary write splits.
type extentSummer struct {
	extent int
	fill   int    // bytes accumulated into the current extent
	crc    uint32 // running CRC of the current extent
	sums   []uint32
}

func newExtentSummer(extent int) *extentSummer {
	return &extentSummer{extent: extent}
}

// update folds p into the accumulator.
func (s *extentSummer) update(p []byte) {
	for len(p) > 0 {
		n := s.extent - s.fill
		if n > len(p) {
			n = len(p)
		}
		s.crc = crc32.Update(s.crc, castagnoli, p[:n])
		s.fill += n
		p = p[n:]
		if s.fill == s.extent {
			s.sums = append(s.sums, s.crc)
			s.crc, s.fill = 0, 0
		}
	}
}

// finish flushes a trailing short extent and returns the sums.
func (s *extentSummer) finish() []uint32 {
	if s.fill > 0 {
		s.sums = append(s.sums, s.crc)
		s.crc, s.fill = 0, 0
	}
	return s.sums
}

// crcWriter tees writes into an extentSummer on their way to w — how
// the record pass computes data checksums in its single pass.
type crcWriter struct {
	w io.Writer
	s *extentSummer
}

func newCRCWriter(w io.Writer) *crcWriter {
	return &crcWriter{w: w, s: newExtentSummer(ChecksumExtentSize)}
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.s.update(p[:n])
	return n, err
}

// writeChecksumTrailer appends the trailer section.
func writeChecksumTrailer(w io.Writer, outSums, inSums []uint32) error {
	buf := make([]byte, 0, len(checksumMagic)+12+4*(len(outSums)+len(inSums))+4)
	buf = append(buf, checksumMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ChecksumExtentSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(outSums)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(inSums)))
	for _, s := range outSums {
		buf = binary.LittleEndian.AppendUint32(buf, s)
	}
	for _, s := range inSums {
		buf = binary.LittleEndian.AppendUint32(buf, s)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	_, err := w.Write(buf)
	return err
}

// readChecksumTrailer parses a trailer positioned at r. A clean EOF at
// the magic means the image simply has none (ok=false, nil error); a
// present-but-damaged trailer is an error — it would otherwise
// silently disarm verification of a corrupted image.
func readChecksumTrailer(r io.Reader, outLen, inLen int64) (ext int, outSums, inSums []uint32, ok bool, err error) {
	magic := make([]byte, len(checksumMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		// A clean EOF (zero trailer bytes) is the no-trailer case;
		// a partial magic is ErrUnexpectedEOF and falls through.
		if errors.Is(err, io.EOF) {
			return 0, nil, nil, false, nil
		}
		return 0, nil, nil, false, fmt.Errorf("graph: reading checksum trailer: %w", err)
	}
	if string(magic) != checksumMagic {
		return 0, nil, nil, false, fmt.Errorf("graph: bad checksum trailer magic %q", magic)
	}
	crc := crc32.Checksum(magic, castagnoli)
	var fixed [12]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return 0, nil, nil, false, fmt.Errorf("graph: reading checksum trailer: %w", err)
	}
	crc = crc32.Update(crc, castagnoli, fixed[:])
	extent := int(binary.LittleEndian.Uint32(fixed[0:]))
	outCnt := int64(binary.LittleEndian.Uint32(fixed[4:]))
	inCnt := int64(binary.LittleEndian.Uint32(fixed[8:]))
	if extent <= 0 {
		return 0, nil, nil, false, fmt.Errorf("graph: checksum trailer has extent size %d", extent)
	}
	if outCnt != extentCount(outLen, extent) || inCnt != extentCount(inLen, extent) {
		return 0, nil, nil, false, fmt.Errorf(
			"graph: checksum trailer covers %d+%d extents, data needs %d+%d",
			outCnt, inCnt, extentCount(outLen, extent), extentCount(inLen, extent))
	}
	// The counts are checked against the header's lengths, not against
	// the bytes that follow, so sums grow a chunk at a time as bytes
	// arrive: a short trailer claiming many extents allocates no more
	// than it holds.
	readSums := func(n int64) ([]uint32, error) {
		sums := make([]uint32, 0, min(n, indexChunk))
		buf := make([]byte, 4*cap(sums))
		for int64(len(sums)) < n {
			want := 4 * int(min(n-int64(len(sums)), indexChunk))
			if _, err := io.ReadFull(r, buf[:want]); err != nil {
				return nil, fmt.Errorf("graph: reading checksum trailer: %w", err)
			}
			crc = crc32.Update(crc, castagnoli, buf[:want])
			for k := 0; k < want; k += 4 {
				sums = append(sums, binary.LittleEndian.Uint32(buf[k:]))
			}
		}
		return sums, nil
	}
	if outSums, err = readSums(outCnt); err != nil {
		return 0, nil, nil, false, err
	}
	if inSums, err = readSums(inCnt); err != nil {
		return 0, nil, nil, false, err
	}
	var self [4]byte
	if _, err := io.ReadFull(r, self[:]); err != nil {
		return 0, nil, nil, false, fmt.Errorf("graph: reading checksum trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(self[:]); got != crc {
		return 0, nil, nil, false, fmt.Errorf("graph: checksum trailer self-check failed: %08x, want %08x", crc, got)
	}
	return extent, outSums, inSums, true, nil
}

// ChecksumData computes the per-extent sums of an in-memory data
// section — what Decode-built and generator-built images use to arm
// verification without a persisted trailer (and what tests compare
// trailers against).
func ChecksumData(data []byte) []uint32 {
	s := newExtentSummer(ChecksumExtentSize)
	s.update(data)
	return s.finish()
}
