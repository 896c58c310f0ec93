package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// NeighborStream yields one direction's edge lists in vertex-ID order,
// the order edge-list records are laid out on SSD: the writer calls
// Next once for each vertex 0..NumV-1. attrs carries the list's
// attribute bytes when the stream already has them (re-encoding an
// existing image); nil attrs asks the writer to generate them with its
// AttrFunc. Both slices are valid only until the next call.
type NeighborStream interface {
	Next() (nbrs []VertexID, attrs []byte, err error)
}

// StreamSource produces a NeighborStream. The ImageWriter calls each
// direction's source once, the out and in sources side by side on two
// goroutines.
type StreamSource func() (NeighborStream, error)

// sliceStream streams adjacency lists (attrs always nil).
type sliceStream struct {
	lists [][]VertexID
	v     int
}

// SliceSource adapts in-memory adjacency lists to a StreamSource.
func SliceSource(lists [][]VertexID) StreamSource {
	return func() (NeighborStream, error) {
		return &sliceStream{lists: lists}, nil
	}
}

func (s *sliceStream) Next() ([]VertexID, []byte, error) {
	var nbrs []VertexID
	if s.v < len(s.lists) {
		nbrs = s.lists[s.v]
	}
	s.v++
	return nbrs, nil, nil
}

// recordStream decodes an encoded edge-list file back into per-vertex
// lists, the stream form of an existing record-layout image, used to
// funnel Image.Encode through the one canonical encoder. Each record is
// read whole at the byte length the image's index gives it and decoded
// by PageVertex, the same decoder the query path uses.
type recordStream struct {
	br       *bufio.Reader
	ix       *Index
	attrSize int
	enc      Encoding

	v   int        // next vertex
	rec []byte     // its record's bytes
	ids []VertexID // its decoded neighbor IDs
}

// recordSource streams the records of one encoded edge-list file
// described by ix. open must return a fresh reader positioned at the
// file's first record each call.
func recordSource(open func() (io.Reader, error), ix *Index, attrSize int, enc Encoding) StreamSource {
	return func() (NeighborStream, error) {
		r, err := open()
		if err != nil {
			return nil, err
		}
		return &recordStream{br: bufio.NewReaderSize(r, 1<<20), ix: ix, attrSize: attrSize, enc: enc}, nil
	}
}

// Next reads and decodes the next record. Host files are outside
// input, so a short file, a corrupt record (PageVertex's panic idiom,
// recovered here) and a count that disagrees with the index all come
// back as errors.
func (s *recordStream) Next() (nbrs []VertexID, attrs []byte, err error) {
	v := VertexID(s.v)
	s.v++
	size := s.ix.RecordBytes(v)
	if int64(cap(s.rec)) < size {
		s.rec = make([]byte, size)
	}
	s.rec = s.rec[:size]
	if _, err := io.ReadFull(s.br, s.rec); err != nil {
		return nil, nil, fmt.Errorf("graph: reading record of vertex %d: %w", v, err)
	}
	defer func() {
		if r := recover(); r != nil {
			msg, ok := r.(string)
			if !ok || !strings.HasPrefix(msg, "graph:") {
				panic(r) // not the record-corruption idiom: a bug, not bad input
			}
			err = fmt.Errorf("%s (vertex %d)", msg, v)
		}
	}()
	pv := NewPageVertexBytes(v, OutEdges, s.rec, s.attrSize, s.enc)
	s.ids = pv.Edges(s.ids, nil)
	if want := s.ix.Degree(v); uint32(len(s.ids)) != want {
		return nil, nil, fmt.Errorf("graph: record of vertex %d holds %d edges, index says %d", v, len(s.ids), want)
	}
	return s.ids, s.rec[pv.attrOff():], nil
}

// WalkRecords reads one direction's record-layout edge-list file from
// r — the image's own bytes (EdgeReader) or a copy of them, such as the
// SAFS file LoadToFS wrote — and calls fn with each vertex's neighbors
// in vertex-ID order, stopping at fn's first error. nbrs is valid only
// during the call. Records are decoded by recordStream.Next, so a short
// or corrupt file is an error. The block layout has no per-vertex
// records and is rejected.
func (img *Image) WalkRecords(dir EdgeDir, r io.Reader, fn func(v VertexID, nbrs []VertexID) error) error {
	if img.Encoding == EncodingBlock {
		return fmt.Errorf("graph: the %s layout has no per-vertex records to walk", img.Encoding)
	}
	ix := img.OutIndex
	if dir == InEdges && img.Directed {
		ix = img.InIndex
	}
	s := &recordStream{br: bufio.NewReaderSize(r, 1<<20), ix: ix, attrSize: img.AttrSize, enc: img.Encoding}
	for v := 0; v < ix.NumVertices(); v++ {
		nbrs, _, err := s.Next()
		if err == nil {
			err = fn(VertexID(v), nbrs)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// encodeStream is THE canonical encoder of FlashGraph's on-SSD
// edge-list layouts: concatenated records in vertex-ID order, one empty
// record per edgeless vertex. Every path that produces image bytes —
// BuildImage, Image.Encode, the streaming ImageWriter — funnels through
// this function. It reads one list from st per vertex and buffers only
// that vertex's record, so memory is bounded by the maximum degree, not
// the graph.
//
// enc selects the record layout. EncodingRaw emits [count u32][edges
// count×u32][attrs]; EncodingDelta emits [uvarint count][uvarint first
// ID][uvarint gaps...][attrs] and requires each list to be ascending
// (the order every sorted source already produces). The returned sizes
// slice carries each record's true byte length for EncodingDelta (nil
// for raw, where sizes follow from degrees) — the data the
// encoding-aware index sizer needs.
//
// EncodingBlock dispatches to the 2D edge-block layout (block.go): no
// per-vertex records at all — the returned BlockDir carries the block
// extents instead of per-record sizes.
//
// src tells edgeAttrs which endpoint owns the record (out-edge records
// name their source first; in-edge records the destination).
func encodeStream(w io.Writer, st NeighborStream, n int, attrSize int, enc Encoding, src bool, attr AttrFunc) (degrees []uint32, sizes []int64, bdir *BlockDir, err error) {
	if enc == EncodingBlock {
		degrees, bdir, err = encodeBlockStream(w, st, n, attrSize, src, attr)
		return degrees, nil, bdir, err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	degrees = make([]uint32, n)
	if enc == EncodingDelta {
		sizes = make([]int64, n)
	}
	var rec []byte // the current vertex's record
	for v := 0; v < n; v++ {
		nbrs, attrs, err := st.Next()
		if err != nil {
			return nil, nil, nil, err
		}
		if enc == EncodingDelta {
			if err := ascending(enc, v, nbrs); err != nil {
				return nil, nil, nil, err
			}
			rec = binary.AppendUvarint(rec[:0], uint64(len(nbrs)))
			var prev VertexID
			for _, u := range nbrs {
				rec = binary.AppendUvarint(rec, uint64(u-prev))
				prev = u
			}
		} else {
			rec = binary.LittleEndian.AppendUint32(rec[:0], uint32(len(nbrs)))
			for _, u := range nbrs {
				rec = binary.LittleEndian.AppendUint32(rec, u)
			}
		}
		if rec, err = edgeAttrs(rec, VertexID(v), nbrs, attrs, attrSize, src, attr); err != nil {
			return nil, nil, nil, err
		}
		degrees[v] = uint32(len(nbrs))
		if _, err := bw.Write(rec); err != nil {
			return nil, nil, nil, err
		}
		if enc == EncodingDelta {
			sizes[v] = int64(len(rec))
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, nil, nil, err
	}
	return degrees, sizes, nil, nil
}

// ascending refuses a list that the gap-coding layouts (delta, block)
// cannot store.
func ascending(enc Encoding, v int, nbrs []VertexID) error {
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i] < nbrs[i-1] {
			return fmt.Errorf("graph: %s encoding needs ascending neighbors: vertex %d lists %d after %d", enc, v, nbrs[i], nbrs[i-1])
		}
	}
	return nil
}

// edgeAttrs appends the attribute bytes of v's list nbrs to dst: the
// stream's own bytes given, checked for length; else attr's, called in
// (src, dst) orientation with v as the source when src is set; else
// zeros.
func edgeAttrs(dst []byte, v VertexID, nbrs []VertexID, given []byte, attrSize int, src bool, attr AttrFunc) ([]byte, error) {
	if attrSize == 0 {
		return dst, nil
	}
	if given != nil {
		if len(given) != len(nbrs)*attrSize {
			return nil, fmt.Errorf("graph: vertex %d: %d attr bytes for %d edges, want %d each", v, len(given), len(nbrs), attrSize)
		}
		return append(dst, given...), nil
	}
	if attr == nil {
		return append(dst, make([]byte, len(nbrs)*attrSize)...), nil
	}
	for _, u := range nbrs {
		dst = append(dst, make([]byte, attrSize)...)
		if src {
			attr(v, u, dst[len(dst)-attrSize:])
		} else {
			attr(u, v, dst[len(dst)-attrSize:])
		}
	}
	return dst, nil
}

// ImageWriter builds a complete graph image from per-vertex neighbor
// streams without ever materializing edge data in memory — the
// out-of-core construction path (FAST'15 §3.5.2 builds the image once
// and reuses it for every algorithm; this writer makes that build
// scale with disk instead of RAM). It reads each direction's source
// once: a record pass encodes the edge-list file and builds the compact
// index from what it wrote. BuildImage and Image.Encode are thin
// wrappers over this type, so exactly one encoder for the on-SSD
// layout exists.
type ImageWriter struct {
	// NumV is the vertex count (records are written for all of 0..NumV-1).
	NumV int
	// Directed selects separate out- and in-edge files.
	Directed bool
	// Encoding selects the on-SSD record layout (default EncodingRaw).
	Encoding Encoding
	// AttrSize is the per-edge attribute size in bytes.
	AttrSize int
	// Attr generates attribute bytes for edges whose stream does not
	// carry them. May be nil when AttrSize is 0 or streams carry attrs.
	Attr AttrFunc
	// Out streams each vertex's out-neighbors (all its neighbors when
	// undirected), ascending for the delta and block layouts.
	Out StreamSource
	// In streams each vertex's in-neighbors, likewise; required iff
	// Directed.
	In StreamSource

	// spoolDir receives WriteImage's two spool files ("" = the system
	// temp directory).
	spoolDir string
}

// ImageInfo reports what WriteImage produced.
type ImageInfo struct {
	NumV     int
	NumEdges int64 // directed: #edges; undirected: #undirected edges
	AttrSize int
	Directed bool
	Encoding Encoding
	OutBytes int64
	InBytes  int64
	OutIndex *Index
	InIndex  *Index // nil if undirected
}

// DataBytes returns the total edge-list file size.
func (info *ImageInfo) DataBytes() int64 { return info.OutBytes + info.InBytes }

// IndexBytes returns the in-memory footprint of the compact indexes.
func (info *ImageInfo) IndexBytes() int64 {
	b := info.OutIndex.MemoryFootprint()
	if info.InIndex != nil {
		b += info.InIndex.MemoryFootprint()
	}
	return b
}

// encodeDirection runs one direction's record pass into w and indexes
// what it wrote.
func (iw *ImageWriter) encodeDirection(w io.Writer, src StreamSource, isSrc bool) (*Index, error) {
	st, err := src()
	if err != nil {
		return nil, err
	}
	deg, sizes, blocks, err := encodeStream(w, st, iw.NumV, iw.AttrSize, iw.Encoding, isSrc, iw.Attr)
	if err != nil {
		return nil, err
	}
	return buildDirIndex(deg, sizes, blocks, iw.AttrSize, iw.Encoding), nil
}

// sideBySide runs out on the calling goroutine and, when both is set,
// in on a second one, and joins them before it returns.
func sideBySide(both bool, out, in func() error) (outErr, inErr error) {
	if !both {
		return out(), nil
	}
	done := make(chan error, 1)
	go func() { done <- in() }()
	outErr = out()
	return outErr, <-done
}

// encode runs one record pass per direction, the out-edge file into
// outW and, side by side, the in-edge file into inW (unused when
// undirected), and describes the image they make up. WriteImage's
// sinks are temp files, BuildImage's are buffers.
func (iw *ImageWriter) encode(outW, inW io.Writer) (*ImageInfo, error) {
	if iw.NumV < 0 || iw.Out == nil || (iw.Directed && iw.In == nil) {
		return nil, fmt.Errorf("graph: ImageWriter needs NumV and stream sources for every direction")
	}
	if iw.Encoding >= numEncodings {
		return nil, fmt.Errorf("graph: unknown edge-list encoding %d", iw.Encoding)
	}
	info := &ImageInfo{NumV: iw.NumV, AttrSize: iw.AttrSize, Directed: iw.Directed, Encoding: iw.Encoding}
	outErr, inErr := sideBySide(iw.Directed, func() (err error) {
		info.OutIndex, err = iw.encodeDirection(outW, iw.Out, true)
		return err
	}, func() (err error) {
		info.InIndex, err = iw.encodeDirection(inW, iw.In, false)
		return err
	})
	if outErr != nil {
		return nil, fmt.Errorf("graph: out-edge record pass: %w", outErr)
	}
	if inErr != nil {
		return nil, fmt.Errorf("graph: in-edge record pass: %w", inErr)
	}
	info.OutBytes = info.OutIndex.FileSize()
	if iw.Directed {
		info.InBytes = info.InIndex.FileSize()
		info.NumEdges = info.OutIndex.NumEdges()
	} else {
		info.NumEdges = info.OutIndex.NumEdges() / 2
	}
	return info, nil
}

// spool is an unlinked temp file that one direction's record pass
// encodes into, through a CRC tee that sums the extents the checksum
// trailer records.
type spool struct {
	*crcWriter
	f *os.File
}

func newSpool(dir string) (*spool, error) {
	f, err := os.CreateTemp(dir, "fg-image-*")
	if err != nil {
		return nil, fmt.Errorf("graph: creating spool: %w", err)
	}
	os.Remove(f.Name()) // the OS reclaims it when the fd closes
	return &spool{crcWriter: &crcWriter{w: f}, f: f}, nil
}

// copyTo copies the want bytes spooled into w.
func (s *spool) copyTo(w io.Writer, want int64) error {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("rewinding spool: %w", err)
	}
	n, err := io.Copy(w, s.f)
	if err != nil {
		return fmt.Errorf("copying spool: %w", err)
	}
	if n != want {
		return fmt.Errorf("spool holds %d bytes, index says %d", n, want)
	}
	return nil
}

// WriteImage writes the full image container (magic, header, index
// section, out-edge file, in-edge file, checksum trailer) to w. Each
// direction is encoded once, the two side by side, into its own spool;
// the header and the index section, built from what was spooled, go to
// w first and both files are copied in behind them. Temp disk holds
// both directions' data bytes until WriteImage returns; memory holds
// the indexes and, per direction, one vertex's list and record (one row
// stripe of edges in the block layout). The persisted index
// section (per-vertex degrees, plus true record sizes for delta
// layouts) is what makes reopening the image O(index) instead of an
// O(data) record-header scan.
func (iw *ImageWriter) WriteImage(w io.Writer) (*ImageInfo, error) {
	out, err := newSpool(iw.spoolDir)
	if err != nil {
		return nil, err
	}
	defer out.f.Close()
	var in *spool
	var inW io.Writer
	if iw.Directed {
		if in, err = newSpool(iw.spoolDir); err != nil {
			return nil, err
		}
		defer in.f.Close()
		inW = in
	}
	info, err := iw.encode(out, inW)
	if err != nil {
		return nil, err
	}
	if err := writeImageHeader(w, info); err != nil {
		return nil, err
	}
	if err := writeIndexArrays(w, info.OutIndex); err != nil {
		return nil, fmt.Errorf("graph: writing out-edge index: %w", err)
	}
	if in != nil {
		if err := writeIndexArrays(w, info.InIndex); err != nil {
			return nil, fmt.Errorf("graph: writing in-edge index: %w", err)
		}
	}
	if err := out.copyTo(w, info.OutBytes); err != nil {
		return nil, fmt.Errorf("graph: out-edge record pass: %w", err)
	}
	var inSums []uint32
	if in != nil {
		if err := in.copyTo(w, info.InBytes); err != nil {
			return nil, fmt.Errorf("graph: in-edge record pass: %w", err)
		}
		inSums = in.s.finish()
	}
	if err := writeChecksumTrailer(w, out.s.finish(), inSums); err != nil {
		return nil, fmt.Errorf("graph: writing checksum trailer: %w", err)
	}
	return info, nil
}

// BuildImage materializes an in-memory Image through the same encoder,
// its sinks two buffers behind the CRC tees WriteImage's spools use, so
// the image carries the sums the checksum trailer would record.
func (iw *ImageWriter) BuildImage() (*Image, error) {
	var outBuf, inBuf bytes.Buffer
	out, in := &crcWriter{w: &outBuf}, &crcWriter{w: &inBuf}
	info, err := iw.encode(out, in)
	if err != nil {
		return nil, err
	}
	return &Image{
		Directed: info.Directed, NumV: info.NumV, NumEdges: info.NumEdges,
		AttrSize: info.AttrSize, Encoding: info.Encoding,
		OutIndex: info.OutIndex, InIndex: info.InIndex,
		OutData: outBuf.Bytes(), InData: inBuf.Bytes(),
		OutSums: out.s.finish(), InSums: in.s.finish(),
	}, nil
}

// writeImageHeader writes the v2 container magic and fixed header.
func writeImageHeader(w io.Writer, info *ImageInfo) error {
	if _, err := io.WriteString(w, imageMagicV2); err != nil {
		return err
	}
	var flags uint8
	if info.Directed {
		flags = 1
	}
	hdr := []interface{}{
		flags,
		uint8(info.Encoding),
		uint32(info.AttrSize),
		uint64(info.NumV),
		uint64(info.NumEdges),
		uint64(info.OutBytes),
		uint64(info.InBytes),
	}
	for _, f := range hdr {
		if err := binary.Write(w, binary.LittleEndian, f); err != nil {
			return err
		}
	}
	return nil
}

// indexChunk is the element granularity of index-section I/O.
const indexChunk = 64 << 10

// writeIndexArrays writes one direction's persisted index: per-vertex
// degrees as little-endian uint32, followed by the layout's extent
// data — per-vertex record byte sizes (uint32) for delta, the block
// directory (shift u32, stripes u32, block offsets (stripes²+1)×u64)
// for block.
func writeIndexArrays(w io.Writer, ix *Index) error {
	n := ix.NumVertices()
	if err := writeU32Array(w, n, func(v int) uint32 { return ix.Degree(VertexID(v)) }); err != nil {
		return err
	}
	switch ix.Encoding() {
	case EncodingDelta:
		for v := 0; v < n; v++ {
			if s := ix.RecordBytes(VertexID(v)); s > int64(^uint32(0)) {
				return fmt.Errorf("record of vertex %d is %d bytes, exceeding the u32 index limit", v, s)
			}
		}
		return writeU32Array(w, n, func(v int) uint32 { return uint32(ix.RecordBytes(VertexID(v))) })
	case EncodingBlock:
		bdir := ix.Blocks()
		if err := binary.Write(w, binary.LittleEndian, bdir.Shift); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(bdir.Stripes)); err != nil {
			return err
		}
		buf := make([]byte, 0, 8*indexChunk)
		for _, off := range bdir.Offsets {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(off))
			if len(buf) == cap(buf) {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// readBlockDir reads one direction's persisted block directory,
// validating the geometry against the vertex count (the shift is a
// pure function of n — see blockShiftFor).
func readBlockDir(r io.Reader, n int) (*BlockDir, error) {
	var shift, stripes uint32
	if err := binary.Read(r, binary.LittleEndian, &shift); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &stripes); err != nil {
		return nil, err
	}
	if shift != blockShiftFor(n) || int(stripes) != blockStripesFor(n) {
		return nil, fmt.Errorf("block grid %d stripes of 2^%d rows does not match %d vertices", stripes, shift, n)
	}
	bd := &BlockDir{Shift: shift, Stripes: int(stripes), Offsets: make([]int64, int(stripes)*int(stripes)+1)}
	buf := make([]byte, 8*indexChunk)
	for i := 0; i < len(bd.Offsets); {
		want := (len(bd.Offsets) - i) * 8
		if want > len(buf) {
			want = len(buf)
		}
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return nil, err
		}
		for k := 0; k < want; k += 8 {
			bd.Offsets[i] = int64(binary.LittleEndian.Uint64(buf[k:]))
			i++
		}
	}
	prev := int64(0)
	for i, off := range bd.Offsets {
		if off < prev {
			return nil, fmt.Errorf("block directory not monotone at block %d", i)
		}
		prev = off
	}
	if bd.Offsets[0] != 0 {
		return nil, fmt.Errorf("block directory starts at %d, want 0", bd.Offsets[0])
	}
	return bd, nil
}

// writeU32Array writes n little-endian uint32 values in bounded chunks.
func writeU32Array(w io.Writer, n int, at func(int) uint32) error {
	buf := make([]byte, 0, 4*indexChunk)
	for v := 0; v < n; v++ {
		buf = binary.LittleEndian.AppendUint32(buf, at(v))
		if len(buf) == cap(buf) {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// readU32Array reads n little-endian uint32 values in bounded chunks.
func readU32Array(r io.Reader, n int, set func(int, uint32)) error {
	buf := make([]byte, 4*indexChunk)
	for v := 0; v < n; {
		want := (n - v) * 4
		if want > len(buf) {
			want = len(buf)
		}
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return err
		}
		for i := 0; i < want; i += 4 {
			set(v, binary.LittleEndian.Uint32(buf[i:]))
			v++
		}
	}
	return nil
}
