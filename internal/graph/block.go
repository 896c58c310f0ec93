package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
)

// The block layout (EncodingBlock) partitions one direction's adjacency
// matrix into a Stripes×Stripes grid of 2D edge blocks, the layout
// M-Flash streams and FlashMatrix's SpMV favors: rows and columns are
// cut into stripes of 2^Shift vertices, and block (r, c) holds every
// edge whose source lies in row stripe r and whose destination lies in
// column stripe c. Blocks of one row stripe are stored contiguously in
// (r, c) order, so a sweep over row stripe r is one sequential read
// whose working set of destination state is one column stripe at a
// time.
//
// Each block is CSR-within-block, fully varint-delta relative to the
// block origin:
//
//	[uvarint rowCount]
//	rowCount × [uvarint rowDelta][uvarint cnt]
//	            [uvarint firstCol-colBase][uvarint gaps...]
//	            [attrs cnt×attrSize]
//
// rowDelta is relative to the previous encoded row (the stripe base for
// the first), so empty rows cost nothing; column IDs are relative to
// the column stripe base. There is no per-vertex record and no
// selective access: Index.Locate does not apply, and only the SpMV
// engine (plus the canonical re-encoder) reads this layout.

// maxBlockStripes caps the grid side so the block directory stays small
// (offsets are 8 bytes per block).
const maxBlockStripes = 256

// blockShiftFor returns the stripe shift used for an n-vertex image:
// 2^16 rows per stripe, widened until the grid side fits
// maxBlockStripes. The shift is a pure function of n, so every reader
// and writer of an image agrees on the grid without negotiation.
func blockShiftFor(n int) uint32 {
	shift := uint32(16)
	for n > maxBlockStripes<<shift {
		shift++
	}
	return shift
}

// BlockDir is the block directory of one direction of a block-encoded
// image: the grid geometry plus the byte extent of every block,
// relative to the direction's data start. It is persisted in the
// container's index section and plays the role Index.Locate plays for
// the record layouts.
type BlockDir struct {
	// Shift is the log2 stripe size (rows and columns per stripe).
	Shift uint32
	// Stripes is the grid side: ceil(n / 2^Shift).
	Stripes int
	// Offsets[r*Stripes+c] is the byte offset of block (r, c); the
	// final entry is the direction's total data size. Length
	// Stripes*Stripes+1.
	Offsets []int64
}

// StripeSize returns the number of rows (and columns) per stripe.
func (bd *BlockDir) StripeSize() int { return 1 << bd.Shift }

// DataSize returns the direction's total data byte length.
func (bd *BlockDir) DataSize() int64 { return bd.Offsets[len(bd.Offsets)-1] }

// StripeExtent returns the byte extent [off, off+size) covering all
// blocks of row stripe r.
func (bd *BlockDir) StripeExtent(r int) (off, size int64) {
	off = bd.Offsets[r*bd.Stripes]
	return off, bd.Offsets[(r+1)*bd.Stripes] - off
}

// blockIndexBytes is the on-disk size of one direction's block
// directory (shift u32, stripes u32, offsets (stripes²+1)×u64).
func blockIndexBytes(stripes int) int64 {
	return 8 + int64(stripes*stripes+1)*8
}

// blockStripesFor returns the grid side for an n-vertex image.
func blockStripesFor(n int) int {
	if n == 0 {
		return 0
	}
	shift := blockShiftFor(n)
	return (n + (1 << shift) - 1) >> shift
}

// encodeBlockStream is encodeStream's third layout: it consumes one
// direction's sorted neighbor stream and writes the 2D edge blocks,
// buffering one row stripe of edges (bucketed by column stripe) at a
// time. Neighbors must arrive in ascending ID order per vertex, as for
// the delta layout. It returns per-vertex degrees (the in-memory index
// still serves degree queries) and the block directory.
func encodeBlockStream(w io.Writer, st NeighborStream, n, attrSize int, src bool, attr AttrFunc) (degrees []uint32, bdir *BlockDir, err error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	shift := blockShiftFor(n)
	stripes := blockStripesFor(n)
	degrees = make([]uint32, n)
	bdir = &BlockDir{Shift: shift, Stripes: stripes, Offsets: make([]int64, stripes*stripes+1)}

	type bucket struct {
		rows  []VertexID // one entry per edge, non-decreasing
		cols  []VertexID
		attrs []byte
	}
	buckets := make([]bucket, stripes)
	var attrScratch []byte
	if attrSize > 0 {
		attrScratch = make([]byte, attrSize)
	}
	blockBuf := make([]byte, 0, 1<<16)

	pv, pu, pattr, pok, perr := st.Next()
	if perr != nil {
		return nil, nil, perr
	}

	for r := 0; r < stripes; r++ {
		lo := r << shift
		hi := lo + (1 << shift)
		if hi > n {
			hi = n
		}
		// Gather this row stripe's edges into per-column-stripe buckets.
		for v := lo; v < hi; v++ {
			var cnt uint32
			var prev VertexID
			for pok && int(pv) == v {
				if cnt > 0 && pu < prev {
					return nil, nil, fmt.Errorf("graph: block encoding needs ascending neighbors: vertex %d lists %d after %d", v, pu, prev)
				}
				prev = pu
				if int(pu) >= n {
					return nil, nil, fmt.Errorf("graph: vertex %d out of range (n=%d)", pu, n)
				}
				b := &buckets[int(pu)>>shift]
				b.rows = append(b.rows, VertexID(v))
				b.cols = append(b.cols, pu)
				if attrSize > 0 {
					if pattr != nil {
						if len(pattr) != attrSize {
							return nil, nil, fmt.Errorf("graph: edge (%d,%d): attr is %d bytes, want %d", pv, pu, len(pattr), attrSize)
						}
						b.attrs = append(b.attrs, pattr...)
					} else {
						buf := attrScratch
						if attr != nil {
							if src {
								attr(VertexID(v), pu, buf)
							} else {
								attr(pu, VertexID(v), buf)
							}
						} else {
							for i := range buf {
								buf[i] = 0
							}
						}
						b.attrs = append(b.attrs, buf...)
					}
				}
				cnt++
				pv, pu, pattr, pok, perr = st.Next()
				if perr != nil {
					return nil, nil, perr
				}
			}
			if pok && int(pv) < v {
				return nil, nil, fmt.Errorf("graph: edge stream not sorted: vertex %d after %d", pv, v)
			}
			degrees[v] = cnt
		}
		// Encode and flush the stripe's blocks in column order.
		for c := 0; c < stripes; c++ {
			b := &buckets[c]
			blockBuf = encodeBlock(blockBuf[:0], VertexID(lo), VertexID(c<<shift), b.rows, b.cols, b.attrs, attrSize)
			bdir.Offsets[r*stripes+c+1] = bdir.Offsets[r*stripes+c] + int64(len(blockBuf))
			if _, err := bw.Write(blockBuf); err != nil {
				return nil, nil, err
			}
			b.rows, b.cols, b.attrs = b.rows[:0], b.cols[:0], b.attrs[:0]
		}
	}
	if pok {
		return nil, nil, fmt.Errorf("graph: vertex %d out of range (n=%d)", pv, n)
	}
	if err := bw.Flush(); err != nil {
		return nil, nil, err
	}
	return degrees, bdir, nil
}

// encodeBlock appends one block's bytes to dst. rows/cols/attrs list
// the block's edges sorted by (row, col); rowBase/colBase are the
// block's origin.
//
//fg:lint:ignore encoderonly encodeBlock is encodeStream's block-layout emitter, reached only through the canonical encoder in stream.go
func encodeBlock(dst []byte, rowBase, colBase VertexID, rows, cols []VertexID, attrs []byte, attrSize int) []byte {
	if len(rows) == 0 {
		return dst
	}
	rowCount := 1
	for i := 1; i < len(rows); i++ {
		if rows[i] != rows[i-1] {
			rowCount++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(rowCount))
	prevRow := rowBase
	for i := 0; i < len(rows); {
		row := rows[i]
		j := i + 1
		for j < len(rows) && rows[j] == row {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(row-prevRow))
		prevRow = row
		dst = binary.AppendUvarint(dst, uint64(j-i))
		prev := colBase
		for k := i; k < j; k++ {
			dst = binary.AppendUvarint(dst, uint64(cols[k]-prev))
			prev = cols[k]
		}
		if attrSize > 0 {
			dst = append(dst, attrs[i*attrSize:j*attrSize]...)
		}
		i = j
	}
	return dst
}

// DecodeStripe walks every (row, columns) run of row stripe r, whose
// raw bytes are in buf (as read with StripeExtent). fn receives each
// encoded row of each block in (block, row) order with its columns in
// ascending ID order and that run's attr bytes (nil when attrSize is
// 0); a row spanning several column stripes is delivered once per
// block. cols is a scratch buffer reused across calls and returned for
// the caller to keep.
func (bd *BlockDir) DecodeStripe(buf []byte, r, attrSize int, cols []VertexID, fn func(row VertexID, cols []VertexID, attrs []byte)) ([]VertexID, error) {
	for c := 0; c < bd.Stripes; c++ {
		var err error
		if cols, err = bd.DecodeBlock(buf, r, c, attrSize, cols, fn); err != nil {
			return cols, err
		}
	}
	return cols, nil
}

// DecodeBlock walks the (row, columns) runs of block (r, c) alone, in
// row order; buf holds all of row stripe r, as for DecodeStripe. Every
// run it hands fn lies in column stripe c, so goroutines decoding
// different blocks of one stripe buffer touch disjoint columns — each
// with its own cols scratch.
func (bd *BlockDir) DecodeBlock(buf []byte, r, c, attrSize int, cols []VertexID, fn func(row VertexID, cols []VertexID, attrs []byte)) ([]VertexID, error) {
	base := bd.Offsets[r*bd.Stripes]
	i := r*bd.Stripes + c
	bb := buf[bd.Offsets[i]-base : bd.Offsets[i+1]-base]
	cols, err := decodeBlock(bb, VertexID(r<<bd.Shift), VertexID(c<<bd.Shift), uint64(1)<<bd.Shift, attrSize, cols, fn)
	if err != nil {
		return cols, fmt.Errorf("graph: block (%d,%d): %w", r, c, err)
	}
	return cols, nil
}

// decodeBlock decodes one block's bytes, invoking fn per encoded row.
// The block spans span rows from rowBase and span columns from colBase;
// a row outside it, a run ending outside it, and an edge count the
// remaining bytes cannot hold (every edge costs a gap byte plus its
// attribute) are corruption, reported before they size an allocation or
// reach a consumer that indexes by them. Gaps accumulate without
// wrapping (decodeGaps), so a run whose last column is inside the block
// has every column inside it.
//
// Runs average a dozen edges, so the two header varints are read on a
// one-byte fast path — a row delta and a count under 128 each, which is
// almost every run — and the count is checked by a multiplication, not a
// division per run.
func decodeBlock(bb []byte, rowBase, colBase VertexID, span uint64, attrSize int, cols []VertexID, fn func(row VertexID, cols []VertexID, attrs []byte)) ([]VertexID, error) {
	if len(bb) == 0 {
		return cols, nil
	}
	rowCount, k := binary.Uvarint(bb)
	if k <= 0 {
		return cols, fmt.Errorf("bad row count")
	}
	pos := k
	row := rowBase
	colEnd := uint64(colBase) + span
	perEdge := uint64(1 + attrSize)
	for ri := uint64(0); ri < rowCount; ri++ {
		var d, cnt uint64
		if pos+1 < len(bb) && bb[pos]|bb[pos+1] < 0x80 {
			d, cnt = uint64(bb[pos]), uint64(bb[pos+1])
			pos += 2
		} else {
			if d, k = binary.Uvarint(bb[pos:]); k <= 0 {
				return cols, fmt.Errorf("bad row delta")
			}
			pos += k
			if cnt, k = binary.Uvarint(bb[pos:]); k <= 0 {
				return cols, fmt.Errorf("bad edge count")
			}
			pos += k
		}
		if d >= span || uint64(row-rowBase)+d >= span {
			return cols, fmt.Errorf("bad row delta")
		}
		row += VertexID(d)
		if hi, need := bits.Mul64(cnt, perEdge); hi != 0 || need > uint64(len(bb)-pos) {
			return cols, fmt.Errorf("bad edge count")
		}
		var last uint64
		cols, pos, last = decodeGaps(cols[:0], bb, pos, int(cnt), uint64(colBase))
		if pos < 0 || last >= colEnd {
			return cols, fmt.Errorf("bad column gap")
		}
		var attrs []byte
		if attrSize > 0 {
			need := int(cnt) * attrSize
			if pos+need > len(bb) {
				return cols, fmt.Errorf("truncated attrs")
			}
			attrs = bb[pos : pos+need]
			pos += need
		}
		fn(row, cols, attrs)
	}
	if pos != len(bb) {
		return cols, fmt.Errorf("%d trailing bytes", len(bb)-pos)
	}
	return cols, nil
}

// blockStream adapts a block-encoded direction back into the canonical
// (vertex, neighbor, attr) stream, one row stripe at a time — the
// decode side of the re-encoding path (fg-convert -reencode). Within a
// stripe it merges each row's per-block runs; column stripes are
// visited in ascending order, so the merged neighbor list is already
// ID-sorted. Stripes lie in order, each one extent, so the stream reads
// the direction's bytes front to back.
type blockStream struct {
	r        io.Reader
	bdir     *BlockDir
	n        int
	attrSize int

	stripe  int   // next stripe to load
	rowOff  []int // rowOff[v-lo] .. rowOff[v-lo+1] bounds v's cols
	cursor  []int
	cols    []VertexID
	attrs   []byte
	lo      int // first vertex of the loaded stripe
	hi      int // one past the last vertex of the loaded stripe
	v       int // current vertex being emitted
	i       int // next neighbor ordinal of v
	buf     []byte
	scratch []VertexID
}

// blockSource streams the edges of one block-encoded direction, whose
// bytes open reads.
func blockSource(open func() (io.Reader, error), bdir *BlockDir, n, attrSize int) StreamSource {
	return func() (NeighborStream, error) {
		r, err := open()
		if err != nil {
			return nil, err
		}
		return &blockStream{r: r, bdir: bdir, n: n, attrSize: attrSize}, nil
	}
}

// loadStripe decodes stripe r into flat per-row neighbor lists: a
// counting pass sizes each row's slot, a fill pass scatters the runs.
// A row spanning several blocks contributes several runs, in ascending
// column order, so scattered neighbors land already ID-sorted.
func (s *blockStream) loadStripe(r int) error {
	_, size := s.bdir.StripeExtent(r)
	if int64(cap(s.buf)) < size {
		s.buf = make([]byte, size)
	}
	buf := s.buf[:size]
	if _, err := io.ReadFull(s.r, buf); err != nil {
		return fmt.Errorf("graph: reading block stripe %d: %w", r, err)
	}
	s.lo = r << s.bdir.Shift
	s.hi = s.lo + (1 << s.bdir.Shift)
	if s.hi > s.n {
		s.hi = s.n
	}
	rows := s.hi - s.lo
	if cap(s.rowOff) < rows+1 {
		s.rowOff = make([]int, rows+1)
		s.cursor = make([]int, rows)
	}
	s.rowOff = s.rowOff[:rows+1]
	s.cursor = s.cursor[:rows]
	for i := range s.rowOff {
		s.rowOff[i] = 0
	}
	lo := VertexID(s.lo)
	// The last stripe is partial: its blocks admit rows up to the grid's
	// span, the image only rows below n.
	beyond := -1
	var err error
	s.scratch, err = s.bdir.DecodeStripe(buf, r, s.attrSize, s.scratch, func(row VertexID, cols []VertexID, attrs []byte) {
		if int(row) >= s.hi {
			beyond = int(row)
			return
		}
		s.rowOff[row-lo+1] += len(cols)
	})
	if err != nil {
		return err
	}
	if beyond >= 0 {
		return fmt.Errorf("graph: block stripe %d: row %d out of range (n=%d)", r, beyond, s.n)
	}
	for i := 0; i < rows; i++ {
		s.rowOff[i+1] += s.rowOff[i]
		s.cursor[i] = s.rowOff[i]
	}
	edges := s.rowOff[rows]
	if cap(s.cols) < edges {
		s.cols = make([]VertexID, edges)
	}
	s.cols = s.cols[:edges]
	if s.attrSize > 0 {
		if cap(s.attrs) < edges*s.attrSize {
			s.attrs = make([]byte, edges*s.attrSize)
		}
		s.attrs = s.attrs[:edges*s.attrSize]
	}
	s.scratch, err = s.bdir.DecodeStripe(buf, r, s.attrSize, s.scratch, func(row VertexID, cols []VertexID, attrs []byte) {
		i := int(row - lo)
		at := s.cursor[i]
		copy(s.cols[at:], cols)
		if s.attrSize > 0 {
			copy(s.attrs[at*s.attrSize:], attrs)
		}
		s.cursor[i] = at + len(cols)
	})
	if err != nil {
		return err
	}
	s.v = s.lo
	s.i = 0
	return nil
}

func (s *blockStream) Next() (VertexID, VertexID, []byte, bool, error) {
	for {
		if s.hi == 0 || s.v >= s.hi {
			if s.stripe >= s.bdir.Stripes {
				return 0, 0, nil, false, nil
			}
			if err := s.loadStripe(s.stripe); err != nil {
				return 0, 0, nil, false, err
			}
			s.stripe++
			continue
		}
		ri := s.v - s.lo
		if pos := s.rowOff[ri] + s.i; pos < s.rowOff[ri+1] {
			u := s.cols[pos]
			var attr []byte
			if s.attrSize > 0 {
				attr = s.attrs[pos*s.attrSize : (pos+1)*s.attrSize]
			}
			v := VertexID(s.v)
			s.i++
			return v, u, attr, true, nil
		}
		s.v++
		s.i = 0
	}
}
