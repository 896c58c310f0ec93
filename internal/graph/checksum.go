package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"flashgraph/internal/safs"
)

// Per-extent CRC32C checksums for the v2 container. Every image carries
// them in a trailer section after the last data section:
//
//	magic   "FGCKSUM1"                    8 bytes
//	extent  u32 LE  checksummed extent size in bytes (ChecksumExtentSize)
//	outCnt  u32 LE  = ceil(outLen/extent)
//	inCnt   u32 LE  = ceil(inLen/extent)
//	outSums outCnt × u32 LE  CRC32C of each out-edge data extent
//	inSums  inCnt  × u32 LE  CRC32C of each in-edge data extent
//	crc     u32 LE  CRC32C of the trailer from magic through inSums
//
// The trailer is required: a container whose data ends the file is
// refused as ErrUnsupportedContainer, like the v1 magic, because its
// edge lists could never be verified. Readers arm read-path
// verification (safs.File.SetChecksums) with the recorded sums, and
// in-memory images (BuildImage) carry the sums their record pass
// computed, so every Image verifies what it reads against sums taken
// when its bytes were encoded.

// ChecksumExtentSize is the granularity of persisted data checksums.
// It equals the default SAFS page size, so one loaded cache page
// verifies exactly against one recorded extent.
const ChecksumExtentSize = 4096

// checksumMagic introduces the trailer section.
const checksumMagic = "FGCKSUM1"

// castagnoli is the CRC32C table (shared with the safs verifier).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// extentCount returns how many checksummed extents cover n data bytes.
func extentCount(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + ChecksumExtentSize - 1) / ChecksumExtentSize
}

// extentSummer accumulates per-extent CRC32C checksums over a byte
// stream, extent boundaries handled across arbitrary write splits.
type extentSummer struct {
	fill int    // bytes accumulated into the current extent
	crc  uint32 // running CRC of the current extent
	sums []uint32
}

// update folds p into the accumulator.
func (s *extentSummer) update(p []byte) {
	for len(p) > 0 {
		n := min(ChecksumExtentSize-s.fill, len(p))
		s.crc = crc32.Update(s.crc, castagnoli, p[:n])
		s.fill += n
		p = p[n:]
		if s.fill == ChecksumExtentSize {
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
	s extentSummer
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.s.update(p[:n])
	return n, err
}

// checkExtents compares data, whose first byte begins extent first of
// the named direction, with that direction's recorded sums.
func checkExtents(data []byte, dir string, sums []uint32, first int) error {
	for i := first; len(data) > 0; i++ {
		n := min(ChecksumExtentSize, len(data))
		if i >= len(sums) || crc32.Checksum(data[:n], castagnoli) != sums[i] {
			return fmt.Errorf("graph: %s-edge data: %w: extent %d at offset %d does not match its recorded checksum",
				dir, safs.ErrCorrupted, i, int64(i)*ChecksumExtentSize)
		}
		data = data[n:]
	}
	return nil
}

// checkedReader streams one direction's data bytes a chunk of whole
// extents at a time and compares every extent with its recorded sum
// before handing any byte of the chunk out.
type checkedReader struct {
	r    io.Reader
	dir  string
	sums []uint32
	next int    // the extent the next chunk starts at
	buf  []byte // the current chunk, verified
	pos  int    // buf[pos:] is not yet read
}

func newCheckedReader(r io.Reader, dir string, sums []uint32) *checkedReader {
	return &checkedReader{r: r, dir: dir, sums: sums, buf: make([]byte, 0, loadChunk)}
}

func (c *checkedReader) Read(p []byte) (int, error) {
	if c.pos == len(c.buf) {
		n, err := io.ReadFull(c.r, c.buf[:cap(c.buf)])
		if n == 0 || (err != nil && !errors.Is(err, io.ErrUnexpectedEOF)) {
			return 0, err // io.EOF after the last chunk
		}
		if err := checkExtents(c.buf[:n], c.dir, c.sums, c.next); err != nil {
			return 0, err
		}
		c.next += int(extentCount(int64(n)))
		c.buf, c.pos = c.buf[:n], 0
	}
	n := copy(p, c.buf[c.pos:])
	c.pos += n
	return n, nil
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

// readChecksumTrailer parses the trailer positioned at r. A container
// that ends where its data does has none and is refused as
// ErrUnsupportedContainer; a present-but-damaged trailer is an error
// too.
func readChecksumTrailer(r io.Reader, outLen, inLen int64) (outSums, inSums []uint32, err error) {
	magic := make([]byte, len(checksumMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		// A clean EOF (zero trailer bytes) is a container without a
		// trailer; a partial magic is ErrUnexpectedEOF.
		if errors.Is(err, io.EOF) {
			return nil, nil, fmt.Errorf("%w: no checksum trailer follows the edge data (rebuild the image with fg-convert)", ErrUnsupportedContainer)
		}
		return nil, nil, fmt.Errorf("graph: reading checksum trailer: %w", err)
	}
	if string(magic) != checksumMagic {
		return nil, nil, fmt.Errorf("graph: bad checksum trailer magic %q", magic)
	}
	crc := crc32.Checksum(magic, castagnoli)
	var fixed [12]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, nil, fmt.Errorf("graph: reading checksum trailer: %w", err)
	}
	crc = crc32.Update(crc, castagnoli, fixed[:])
	extent := binary.LittleEndian.Uint32(fixed[0:])
	outCnt := int64(binary.LittleEndian.Uint32(fixed[4:]))
	inCnt := int64(binary.LittleEndian.Uint32(fixed[8:]))
	// The writer always records ChecksumExtentSize; the readers check
	// extents of that size and no other.
	if extent != ChecksumExtentSize {
		return nil, nil, fmt.Errorf("graph: checksum trailer has extent size %d, want %d", extent, ChecksumExtentSize)
	}
	if outCnt != extentCount(outLen) || inCnt != extentCount(inLen) {
		return nil, nil, fmt.Errorf(
			"graph: checksum trailer covers %d+%d extents, data needs %d+%d",
			outCnt, inCnt, extentCount(outLen), extentCount(inLen))
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
		return nil, nil, err
	}
	if inSums, err = readSums(inCnt); err != nil {
		return nil, nil, err
	}
	var self [4]byte
	if _, err := io.ReadFull(r, self[:]); err != nil {
		return nil, nil, fmt.Errorf("graph: reading checksum trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(self[:]); got != crc {
		return nil, nil, fmt.Errorf("graph: checksum trailer self-check failed: %08x, want %08x", crc, got)
	}
	return outSums, inSums, nil
}

// ChecksumData computes the per-extent sums of an in-memory data
// section, as the writer records them.
func ChecksumData(data []byte) []uint32 {
	var s extentSummer
	s.update(data)
	return s.finish()
}
