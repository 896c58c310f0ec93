package graph

import "encoding/binary"

// PageVertex is the decoded form of one vertex's edge-list record — the
// object handed to RunOnVertex ("page_vertex" in the paper's API) — and
// the only decoder of the raw and delta record layouts. It reads one
// contiguous byte slice covering the record's exact extent
// (Index.Locate): a page-cache frame, a stripe buffer, or an in-memory
// image's data. Raw records are [count u32][edges count×u32][attrs
// count×attrSize]; delta records are [uvarint count][uvarint first]
// [uvarint gaps...][attrs].
//
// A corrupt record panics, matching the engine's fatal-read idiom for
// device errors: the worker's per-run recover converts it into a failed
// query while the shared substrate (and every other graph in a catalog)
// survives.
//
// For delta records, neighbor IDs are a sequential varint stream:
// Edges is the streaming decoder (one pass, the form the algorithm
// layer uses), and Edge(i) costs O(i) for random access — an internal
// cursor makes ascending i (i, i+1, i+2, ...) amortized O(1), but
// arbitrary jumps re-decode from the stream head. Raw records keep O(1)
// random access. AttrBytes/AttrUint32 are O(1) under both layouts.
type PageVertex struct {
	// ID is the vertex whose edge list this is.
	ID VertexID
	// Dir reports which list this is for directed graphs.
	Dir EdgeDir

	rec      []byte
	attrSize int
	encoding Encoding

	// Lazily decoded header: numEdges is -1 until header has validated
	// the count against the record's extent; idsOff is where the
	// neighbor IDs start. (curIdx, curOff, curPrev) is the delta layout's
	// sequential Edge cursor — the ID decoded last, its ordinal, and the
	// stream offset right after it.
	numEdges int
	idsOff   int
	curIdx   int
	curOff   int
	curPrev  VertexID
}

// EdgeDir selects an edge-list direction.
type EdgeDir uint8

const (
	// OutEdges selects the out-edge list (the only list of an undirected
	// graph).
	OutEdges EdgeDir = iota
	// InEdges selects the in-edge list of a directed graph.
	InEdges
)

// NewPageVertexBytes wraps a record's bytes in the given on-SSD layout.
func NewPageVertexBytes(id VertexID, dir EdgeDir, rec []byte, attrSize int, enc Encoding) PageVertex {
	return PageVertex{ID: id, Dir: dir, rec: rec, attrSize: attrSize, encoding: enc, numEdges: -1}
}

// uvarintAt decodes one unsigned varint at byte offset off of the
// record, returning the value and the offset just past it.
func (pv *PageVertex) uvarintAt(off int) (uint64, int) {
	v, n := binary.Uvarint(pv.rec[off:])
	if n <= 0 {
		panic("graph: corrupt varint in delta edge-list record")
	}
	return v, off + n
}

// header decodes the record's edge count and checks it against the
// record's byte extent before the count sizes any decode allocation or
// any access is computed from it; NumEdges and Edge run it once per
// record. A raw record's length is a pure function of its count, so the
// check is exact; a delta edge costs at least one ID-stream byte plus
// its attribute bytes, so a count beyond that is corruption.
func (pv *PageVertex) header() {
	if pv.encoding != EncodingDelta {
		if len(pv.rec) >= headerSize {
			if cnt := binary.LittleEndian.Uint32(pv.rec); RecordSize(cnt, pv.attrSize) == int64(len(pv.rec)) {
				pv.numEdges = int(cnt)
				pv.idsOff = headerSize
				return
			}
		}
		panic("graph: corrupt edge count in raw edge-list record")
	}
	cnt, off := pv.uvarintAt(0)
	if avail := len(pv.rec) - off; cnt > uint64(avail) || int64(cnt)*int64(1+pv.attrSize) > int64(avail) {
		panic("graph: corrupt edge count in delta edge-list record")
	}
	pv.numEdges = int(cnt)
	pv.idsOff = off
	pv.curIdx = -1
	pv.curOff = off
	pv.curPrev = 0
}

// NumEdges returns the record's edge count.
func (pv *PageVertex) NumEdges() int {
	if pv.numEdges < 0 {
		pv.header()
	}
	return pv.numEdges
}

// Edge returns the i-th neighbor. O(1) for raw records; O(i) worst case
// for delta records (ascending access is amortized O(1) via the
// internal cursor) — prefer the streaming Edges form when visiting the
// whole list.
func (pv *PageVertex) Edge(i int) VertexID {
	if pv.numEdges < 0 {
		pv.header()
	}
	if pv.encoding != EncodingDelta {
		return binary.LittleEndian.Uint32(pv.rec[headerSize+i*edgeSize:])
	}
	if i < pv.curIdx {
		// Restart the sequential decode from the stream head. The first
		// varint is the absolute ID, which prev=0 folds into the same
		// prev+gap accumulation.
		pv.curIdx = -1
		pv.curOff = pv.idsOff
		pv.curPrev = 0
	}
	for pv.curIdx < i {
		gap, off := pv.uvarintAt(pv.curOff)
		pv.curPrev += VertexID(gap)
		pv.curIdx++
		pv.curOff = off
	}
	return pv.curPrev
}

// Edges decodes all neighbors in one sequential pass, appending to dst
// (reusing its capacity). The returned slice aliases dst's backing
// array. This is the streaming decode form — O(degree) under both
// layouts. The second parameter is unused (the record is always
// contiguous, so nothing is ever copied); pass nil.
func (pv *PageVertex) Edges(dst []VertexID, _ []byte) []VertexID {
	n := pv.NumEdges()
	dst = dst[:0]
	if n == 0 {
		return dst
	}
	ids := pv.rec[pv.idsOff:pv.attrOff()]
	if pv.encoding == EncodingDelta {
		// The first varint is the absolute ID; prev=0 folds it into the
		// same prev+gap accumulation as every gap after it.
		var pos int
		dst, pos, _ = decodeGaps(dst, ids, 0, n, 0)
		if pos < 0 {
			panic("graph: corrupt varint in delta edge-list record")
		}
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, binary.LittleEndian.Uint32(ids[i*edgeSize:]))
	}
	return dst
}

// attrOff returns the byte offset of the attribute block: attributes
// trail the ID stream at fixed size, so it follows from the record's
// exact extent under both layouts.
func (pv *PageVertex) attrOff() int {
	return len(pv.rec) - pv.NumEdges()*pv.attrSize
}

// AttrBytes returns the raw attribute bytes of the i-th edge, aliasing
// the record.
func (pv *PageVertex) AttrBytes(i int) []byte {
	off := pv.attrOff() + i*pv.attrSize
	return pv.rec[off : off+pv.attrSize]
}

// AttrUint32 decodes the i-th edge attribute as a little-endian uint32
// (used for weights).
func (pv *PageVertex) AttrUint32(i int) uint32 {
	return binary.LittleEndian.Uint32(pv.AttrBytes(i))
}
