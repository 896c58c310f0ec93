package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// NeighborStream yields one direction's edge endpoints in (vertex,
// neighbor) order — the order edge-list records are laid out on SSD.
// attr carries the edge's attribute bytes when the stream already has
// them (re-encoding an existing image); a nil attr asks the writer to
// generate them with its AttrFunc. The returned attr slice is only
// valid until the next call.
type NeighborStream interface {
	Next() (v, u VertexID, attr []byte, ok bool, err error)
}

// StreamSource produces a fresh NeighborStream. The ImageWriter calls
// it twice per direction — once for the degree pass, once for the
// record pass — so a source must replay the same sequence each call
// (extsort keeps its sorted runs on disk for exactly this reason).
type StreamSource func() (NeighborStream, error)

// sliceStream streams adjacency lists (attr always nil).
type sliceStream struct {
	lists [][]VertexID
	v     int
	i     int
}

// SliceSource adapts in-memory adjacency lists to a StreamSource.
func SliceSource(lists [][]VertexID) StreamSource {
	return func() (NeighborStream, error) {
		return &sliceStream{lists: lists}, nil
	}
}

func (s *sliceStream) Next() (VertexID, VertexID, []byte, bool, error) {
	for s.v < len(s.lists) {
		if s.i < len(s.lists[s.v]) {
			u := s.lists[s.v][s.i]
			s.i++
			return VertexID(s.v), u, nil, true, nil
		}
		s.v++
		s.i = 0
	}
	return 0, 0, nil, false, nil
}

// recordStream decodes an encoded edge-list file back into (vertex,
// neighbor, attr) triples — the stream form of an existing record-layout
// image, used to funnel Image.Encode through the one canonical encoder.
// Each record is read whole at the byte length the image's index gives
// it and decoded by PageVertex, the same decoder the query path uses.
type recordStream struct {
	br       *bufio.Reader
	ix       *Index
	attrSize int
	enc      Encoding

	v      int        // current vertex
	i      int        // next neighbor ordinal
	rec    []byte     // current record's bytes
	ids    []VertexID // its decoded neighbor IDs
	attrs  []byte     // its attr bytes (aliases rec)
	loaded bool
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

// loadRecord reads and decodes the next record. Host files are outside
// input, so a short file, a corrupt record (PageVertex's panic idiom,
// recovered here) and a count that disagrees with the index all come
// back as errors.
func (s *recordStream) loadRecord() (err error) {
	v := VertexID(s.v)
	size := s.ix.RecordBytes(v)
	if int64(cap(s.rec)) < size {
		s.rec = make([]byte, size)
	}
	s.rec = s.rec[:size]
	if _, err := io.ReadFull(s.br, s.rec); err != nil {
		return fmt.Errorf("graph: reading record of vertex %d: %w", v, err)
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
		return fmt.Errorf("graph: record of vertex %d holds %d edges, index says %d", v, len(s.ids), want)
	}
	s.attrs = s.rec[pv.attrOff():]
	return nil
}

func (s *recordStream) Next() (VertexID, VertexID, []byte, bool, error) {
	for {
		if !s.loaded {
			if s.v >= s.ix.NumVertices() {
				return 0, 0, nil, false, nil
			}
			s.i = 0
			if err := s.loadRecord(); err != nil {
				return 0, 0, nil, false, err
			}
			s.loaded = true
		}
		if s.i < len(s.ids) {
			u := s.ids[s.i]
			var attr []byte
			if s.attrSize > 0 {
				attr = s.attrs[s.i*s.attrSize : (s.i+1)*s.attrSize]
			}
			v := VertexID(s.v)
			s.i++
			return v, u, attr, true, nil
		}
		s.v++
		s.loaded = false
	}
}

// countStream runs the degree pass: it consumes a stream, validates
// ordering and vertex range, and returns per-vertex degrees.
func countStream(st NeighborStream, n int) ([]uint32, error) {
	degrees := make([]uint32, n)
	last := int64(-1)
	for {
		v, _, _, ok, err := st.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return degrees, nil
		}
		if int64(v) < last {
			return nil, fmt.Errorf("graph: edge stream not sorted: vertex %d after %d", v, last)
		}
		if int(v) >= n {
			return nil, fmt.Errorf("graph: vertex %d out of range (n=%d)", v, n)
		}
		last = int64(v)
		degrees[v] = degrees[v] + 1
	}
}

// encodeStream is THE canonical encoder of FlashGraph's on-SSD
// edge-list layouts: concatenated records in vertex-ID order, one empty
// record per edgeless vertex. Every path that produces image bytes —
// BuildImage, Image.Encode, the streaming ImageWriter — funnels through
// this function. It buffers only one vertex's record at a time, so
// memory is bounded by the maximum degree, not the graph.
//
// enc selects the record layout. EncodingRaw emits [count u32][edges
// count×u32][attrs]; EncodingDelta emits [uvarint count][uvarint first
// ID][uvarint gaps...][attrs] and requires each vertex's neighbors to
// arrive in ascending ID order (the order every sorted source already
// produces). The returned sizes slice carries each record's true byte
// length for EncodingDelta (nil for raw, where sizes follow from
// degrees) — the data the encoding-aware index sizer needs.
//
// EncodingBlock dispatches to the 2D edge-block layout (block.go): no
// per-vertex records at all — the returned BlockDir carries the block
// extents instead of per-record sizes.
//
// src tells the AttrFunc which endpoint owns the record (out-edge
// records name their source first; in-edge records the destination).
// Stream-supplied attr bytes win over the AttrFunc.
func encodeStream(w io.Writer, st NeighborStream, n int, attrSize int, enc Encoding, src bool, attr AttrFunc) (degrees []uint32, sizes []int64, bdir *BlockDir, total int64, err error) {
	if enc == EncodingBlock {
		degrees, bdir, total, err = encodeBlockStream(w, st, n, attrSize, src, attr)
		return degrees, nil, bdir, total, err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	degrees = make([]uint32, n)
	if enc == EncodingDelta {
		sizes = make([]int64, n)
	}
	var nbrs []byte  // pending edge bytes of the current vertex
	var attrs []byte // pending attr bytes of the current vertex
	var attrScratch []byte
	if attrSize > 0 {
		attrScratch = make([]byte, attrSize)
	}

	pv, pu, pattr, pok, perr := st.Next()
	if perr != nil {
		return nil, nil, nil, 0, perr
	}
	var scratch [binary.MaxVarintLen64]byte
	for v := 0; v < n; v++ {
		nbrs = nbrs[:0]
		attrs = attrs[:0]
		var cnt uint32
		var prev VertexID
		for pok && int(pv) == v {
			if enc == EncodingDelta {
				if cnt == 0 {
					nbrs = binary.AppendUvarint(nbrs, uint64(pu))
				} else {
					if pu < prev {
						return nil, nil, nil, 0, fmt.Errorf("graph: delta encoding needs ascending neighbors: vertex %d lists %d after %d", v, pu, prev)
					}
					nbrs = binary.AppendUvarint(nbrs, uint64(pu-prev))
				}
				prev = pu
			} else {
				binary.LittleEndian.PutUint32(scratch[:], pu)
				nbrs = append(nbrs, scratch[:edgeSize]...)
			}
			cnt++
			if attrSize > 0 {
				if pattr != nil {
					if len(pattr) != attrSize {
						return nil, nil, nil, 0, fmt.Errorf("graph: edge (%d,%d): attr is %d bytes, want %d", pv, pu, len(pattr), attrSize)
					}
					attrs = append(attrs, pattr...)
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
					attrs = append(attrs, buf...)
				}
			}
			pv, pu, pattr, pok, perr = st.Next()
			if perr != nil {
				return nil, nil, nil, 0, perr
			}
		}
		if pok && int(pv) < v {
			return nil, nil, nil, 0, fmt.Errorf("graph: edge stream not sorted: vertex %d after %d", pv, v)
		}
		degrees[v] = cnt
		var hdr []byte
		if enc == EncodingDelta {
			hdr = binary.AppendUvarint(scratch[:0], uint64(cnt))
		} else {
			binary.LittleEndian.PutUint32(scratch[:], cnt)
			hdr = scratch[:headerSize]
		}
		if _, err := bw.Write(hdr); err != nil {
			return nil, nil, nil, 0, err
		}
		if _, err := bw.Write(nbrs); err != nil {
			return nil, nil, nil, 0, err
		}
		if _, err := bw.Write(attrs); err != nil {
			return nil, nil, nil, 0, err
		}
		rec := int64(len(hdr) + len(nbrs) + len(attrs))
		if enc == EncodingDelta {
			sizes[v] = rec
		}
		total += rec
	}
	if pok {
		return nil, nil, nil, 0, fmt.Errorf("graph: vertex %d out of range (n=%d)", pv, n)
	}
	if err := bw.Flush(); err != nil {
		return nil, nil, nil, 0, err
	}
	return degrees, sizes, nil, total, nil
}

// ImageWriter builds a complete graph image from sorted neighbor
// streams without ever materializing edge data in memory — the
// out-of-core construction path (FAST'15 §3.5.2 builds the image once
// and reuses it for every algorithm; this writer makes that build
// scale with disk instead of RAM). It consumes each direction's
// source twice: a degree pass sizes the edge-list files and builds
// the compact indexes, then a record pass writes the files
// sequentially. BuildImage and Image.Encode are thin wrappers over
// this type, so exactly one encoder for the on-SSD layout exists.
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
	// Out streams (src, dst) sorted by src then dst.
	Out StreamSource
	// In streams (dst, src) sorted by dst then src; required iff
	// Directed.
	In StreamSource
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

// countDirection runs the sizing pass for one direction. For the raw
// layout degrees alone determine every extent, so a cheap counting scan
// suffices; for the delta and block layouts extents are data-dependent,
// so the pass runs the canonical encoder against io.Discard to learn
// the exact per-record byte lengths (delta) or block extents (block) —
// the attr generator is skipped, since attr bytes have fixed size and
// cannot change extents.
func (iw *ImageWriter) countDirection(src StreamSource, isSrc bool) ([]uint32, []int64, *BlockDir, error) {
	st, err := src()
	if err != nil {
		return nil, nil, nil, err
	}
	if iw.Encoding == EncodingRaw {
		deg, err := countStream(st, iw.NumV)
		return deg, nil, nil, err
	}
	deg, sizes, bdir, _, err := encodeStream(io.Discard, st, iw.NumV, iw.AttrSize, iw.Encoding, isSrc, nil)
	return deg, sizes, bdir, err
}

// encodeDirection runs the record pass for one direction, verifying it
// replayed the same degrees and byte total the sizing pass saw.
func (iw *ImageWriter) encodeDirection(w io.Writer, src StreamSource, isSrc bool, want *Index) error {
	st, err := src()
	if err != nil {
		return err
	}
	degrees, _, _, total, err := encodeStream(w, st, iw.NumV, iw.AttrSize, iw.Encoding, isSrc, iw.Attr)
	if err != nil {
		return err
	}
	if total != want.FileSize() {
		return fmt.Errorf("graph: stream replay mismatch: wrote %d bytes, sizing pass promised %d", total, want.FileSize())
	}
	for v, d := range degrees {
		if d != want.Degree(VertexID(v)) {
			return fmt.Errorf("graph: stream replay mismatch at vertex %d: degree %d vs %d", v, d, want.Degree(VertexID(v)))
		}
	}
	return nil
}

// WriteImage writes the full image container (magic, header, index
// section, out-edge file, in-edge file) to w in two passes per
// direction, holding only the indexes and one vertex record in memory.
// The persisted index section (per-vertex degrees, plus true record
// sizes for delta layouts) is what makes reopening the image O(index)
// instead of an O(data) record-header scan.
func (iw *ImageWriter) WriteImage(w io.Writer) (*ImageInfo, error) {
	if iw.NumV < 0 || iw.Out == nil || (iw.Directed && iw.In == nil) {
		return nil, fmt.Errorf("graph: ImageWriter needs NumV and stream sources for every direction")
	}
	if iw.Encoding >= numEncodings {
		return nil, fmt.Errorf("graph: unknown edge-list encoding %d", iw.Encoding)
	}
	outDeg, outSizes, outBlocks, err := iw.countDirection(iw.Out, true)
	if err != nil {
		return nil, fmt.Errorf("graph: out-edge sizing pass: %w", err)
	}
	info := &ImageInfo{
		NumV:     iw.NumV,
		AttrSize: iw.AttrSize,
		Directed: iw.Directed,
		Encoding: iw.Encoding,
		OutIndex: buildDirIndex(outDeg, outSizes, outBlocks, iw.AttrSize, iw.Encoding),
	}
	var inDeg []uint32
	var inSizes []int64
	var inBlocks *BlockDir
	if iw.Directed {
		inDeg, inSizes, inBlocks, err = iw.countDirection(iw.In, false)
		if err != nil {
			return nil, fmt.Errorf("graph: in-edge sizing pass: %w", err)
		}
		info.InIndex = buildDirIndex(inDeg, inSizes, inBlocks, iw.AttrSize, iw.Encoding)
		info.NumEdges = info.OutIndex.NumEdges()
		info.InBytes = info.InIndex.FileSize()
	} else {
		info.NumEdges = info.OutIndex.NumEdges() / 2
	}
	info.OutBytes = info.OutIndex.FileSize()

	if err := writeImageHeader(w, info); err != nil {
		return nil, err
	}
	if err := writeIndexArrays(w, outDeg, outSizes, outBlocks, iw.Encoding); err != nil {
		return nil, fmt.Errorf("graph: writing out-edge index: %w", err)
	}
	if iw.Directed {
		if err := writeIndexArrays(w, inDeg, inSizes, inBlocks, iw.Encoding); err != nil {
			return nil, fmt.Errorf("graph: writing in-edge index: %w", err)
		}
	}
	// The record passes stream through a CRC tee, so the per-extent
	// data checksums persisted in the trailer come out of the encoder's
	// existing single pass — no re-read of what was just written.
	outCRC := newCRCWriter(w)
	if err := iw.encodeDirection(outCRC, iw.Out, true, info.OutIndex); err != nil {
		return nil, fmt.Errorf("graph: out-edge record pass: %w", err)
	}
	var inSums []uint32
	if iw.Directed {
		inCRC := newCRCWriter(w)
		if err := iw.encodeDirection(inCRC, iw.In, false, info.InIndex); err != nil {
			return nil, fmt.Errorf("graph: in-edge record pass: %w", err)
		}
		inSums = inCRC.s.finish()
	}
	if err := writeChecksumTrailer(w, outCRC.s.finish(), inSums); err != nil {
		return nil, fmt.Errorf("graph: writing checksum trailer: %w", err)
	}
	return info, nil
}

// BuildImage materializes an in-memory Image through the same encoder
// (one record pass per direction; the sizing pass is subsumed because
// the data lands in RAM where lengths are free).
func (iw *ImageWriter) BuildImage() (*Image, error) {
	if iw.NumV < 0 || iw.Out == nil || (iw.Directed && iw.In == nil) {
		return nil, fmt.Errorf("graph: ImageWriter needs NumV and stream sources for every direction")
	}
	if iw.Encoding >= numEncodings {
		return nil, fmt.Errorf("graph: unknown edge-list encoding %d", iw.Encoding)
	}
	img := &Image{Directed: iw.Directed, NumV: iw.NumV, AttrSize: iw.AttrSize, Encoding: iw.Encoding}
	var outBuf bytes.Buffer
	st, err := iw.Out()
	if err != nil {
		return nil, err
	}
	outDeg, outSizes, outBlocks, _, err := encodeStream(&outBuf, st, iw.NumV, iw.AttrSize, iw.Encoding, true, iw.Attr)
	if err != nil {
		return nil, err
	}
	img.OutData = outBuf.Bytes()
	img.OutIndex = buildDirIndex(outDeg, outSizes, outBlocks, iw.AttrSize, iw.Encoding)
	if iw.Directed {
		var inBuf bytes.Buffer
		st, err := iw.In()
		if err != nil {
			return nil, err
		}
		inDeg, inSizes, inBlocks, _, err := encodeStream(&inBuf, st, iw.NumV, iw.AttrSize, iw.Encoding, false, iw.Attr)
		if err != nil {
			return nil, err
		}
		img.InData = inBuf.Bytes()
		img.InIndex = buildDirIndex(inDeg, inSizes, inBlocks, iw.AttrSize, iw.Encoding)
		img.NumEdges = img.OutIndex.NumEdges()
	} else {
		img.NumEdges = img.OutIndex.NumEdges() / 2
	}
	return img, nil
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
func writeIndexArrays(w io.Writer, degrees []uint32, sizes []int64, bdir *BlockDir, enc Encoding) error {
	if err := writeU32Array(w, len(degrees), func(v int) uint32 { return degrees[v] }); err != nil {
		return err
	}
	switch enc {
	case EncodingDelta:
		for v, s := range sizes {
			if s > int64(^uint32(0)) {
				return fmt.Errorf("record of vertex %d is %d bytes, exceeding the u32 index limit", v, s)
			}
		}
		return writeU32Array(w, len(sizes), func(v int) uint32 { return uint32(sizes[v]) })
	case EncodingBlock:
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
