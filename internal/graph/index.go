package graph

import (
	"io"
	"sort"
)

// Index is FlashGraph's compact in-memory graph index (§3.5.1) for one
// edge-list file. Storing exact (offset, size) pairs would cost 12 bytes
// per vertex; instead the index stores
//
//   - one degree byte per vertex (255 means "large: look in the hash
//     table"),
//   - the exact byte offset of every 32nd vertex's record,
//   - a hash table for degrees ≥ 255 (power-law graphs put only a small
//     fraction of vertices here).
//
// A lookup starts from the nearest stored offset and walks at most 31
// degree bytes, computing record sizes at runtime. For the raw layout a
// record's size is a pure function of its degree; for the delta layout
// record sizes are data-dependent, so the index additionally needs one
// record-size byte per vertex (255 spills to a second hash table) — the
// encoding-aware sizer behind Locate.
//
// Storing the delta layout's two bytes separately would cost ~2.25
// bytes per vertex per direction; instead they are compacted into ONE
// packed byte indexing a shared escape table of (degree byte, record
// byte) pairs. Degree and record size are strongly correlated (a
// d-edge record is roughly d gap bytes plus a header), so real graphs
// exhibit far fewer than 255 distinct pairs; rare pairs escape to a
// third hash table via the 255 sentinel code. The amortized cost is
// ~1.25 bytes per vertex per direction for BOTH layouts.
type Index struct {
	n        int
	attrSize int
	encoding Encoding
	// Raw/block layouts: one degree byte per vertex (nil for delta).
	degree   []uint8
	groupOff []int64 // exact offset of vertex (g*GroupSize)'s record
	large    map[VertexID]uint32
	// Delta layout only: packed[v] indexes pairTable, the shared escape
	// table of (degreeByte<<8 | recByte) pairs ordered by frequency;
	// code escapePair spills the pair itself to rarePair.
	packed    []uint8
	pairTable []uint16
	rarePair  map[VertexID]uint16
	largeRec  map[VertexID]int64
	// Block layout only: the 2D edge-block directory. Degrees are still
	// indexed per vertex, but there are no per-vertex records — Locate
	// and RecordBytes do not apply.
	blocks   *BlockDir
	fileSize int64
	numEdges int64
}

// GroupSize is the interval between stored exact offsets (the paper's
// default: one location for every 32 edge lists).
const GroupSize = 32

// largeDegree is the degree-byte sentinel for hash-table residents.
const largeDegree = 255

// largeRecord is the record-size-byte sentinel for hash-table residents.
const largeRecord = 255

// escapePair is the packed-byte sentinel for pairs outside the shared
// escape table (the table holds at most escapePair entries, codes
// 0..254).
const escapePair = 255

// BuildIndexSized constructs the index for an edge-list file in the
// given encoding. sizes lists each record's true byte length; it is
// required for EncodingDelta and ignored (may be nil) for EncodingRaw,
// where sizes follow from degrees.
func BuildIndexSized(degrees []uint32, sizes []int64, attrSize int, enc Encoding) *Index {
	if enc == EncodingDelta && len(sizes) != len(degrees) {
		panic("graph: BuildIndexSized: delta encoding needs one size per record")
	}
	if enc == EncodingBlock {
		panic("graph: BuildIndexSized: block layout needs BuildIndexBlocks")
	}
	ix := &Index{
		n:        len(degrees),
		attrSize: attrSize,
		encoding: enc,
		groupOff: make([]int64, (len(degrees)+GroupSize-1)/GroupSize+1),
		large:    make(map[VertexID]uint32),
	}
	delta := enc == EncodingDelta
	var pairs []uint16 // delta: per-vertex (degByte<<8)|recByte, compacted below
	if delta {
		ix.largeRec = make(map[VertexID]int64)
		pairs = make([]uint16, len(degrees))
	} else {
		ix.degree = make([]uint8, len(degrees))
	}
	off := int64(0)
	var edges int64
	for v, d := range degrees {
		if v%GroupSize == 0 {
			ix.groupOff[v/GroupSize] = off
		}
		degByte := uint8(d)
		if d >= largeDegree {
			degByte = largeDegree
			ix.large[VertexID(v)] = d
		}
		var rec int64
		if delta {
			rec = sizes[v]
			recByte := uint8(rec)
			if rec >= largeRecord {
				recByte = largeRecord
				ix.largeRec[VertexID(v)] = rec
			}
			pairs[v] = uint16(degByte)<<8 | uint16(recByte)
		} else {
			ix.degree[v] = degByte
			rec = RecordSize(d, attrSize)
		}
		off += rec
		edges += int64(d)
	}
	ix.fileSize = off
	ix.numEdges = edges
	if len(degrees)%GroupSize == 0 {
		ix.groupOff[len(degrees)/GroupSize] = off
	}
	if delta {
		ix.compactPairs(pairs)
	}
	return ix
}

// compactPairs builds the packed delta index from the per-vertex
// (degree byte, record byte) pairs: the up-to-255 most frequent pairs
// get table codes (ties broken by pair value, so construction is
// deterministic), everything else escapes to the rare-pair hash table.
func (ix *Index) compactPairs(pairs []uint16) {
	count := make(map[uint16]int)
	for _, p := range pairs {
		count[p]++
	}
	distinct := make([]uint16, 0, len(count))
	for p := range count {
		distinct = append(distinct, p)
	}
	sort.Slice(distinct, func(i, j int) bool {
		if count[distinct[i]] != count[distinct[j]] {
			return count[distinct[i]] > count[distinct[j]]
		}
		return distinct[i] < distinct[j]
	})
	if len(distinct) > escapePair {
		distinct = distinct[:escapePair]
	}
	ix.pairTable = distinct
	code := make(map[uint16]uint8, len(distinct))
	for i, p := range distinct {
		code[p] = uint8(i)
	}
	ix.packed = make([]uint8, len(pairs))
	for v, p := range pairs {
		if c, ok := code[p]; ok {
			ix.packed[v] = c
		} else {
			if ix.rarePair == nil {
				ix.rarePair = make(map[VertexID]uint16)
			}
			ix.packed[v] = escapePair
			ix.rarePair[VertexID(v)] = p
		}
	}
}

// pairOf resolves a delta vertex's (degree byte, record byte) pair from
// the packed form.
func (ix *Index) pairOf(v VertexID) (degByte, recByte uint8) {
	var p uint16
	if c := ix.packed[v]; c == escapePair {
		p = ix.rarePair[v]
	} else {
		p = ix.pairTable[c]
	}
	return uint8(p >> 8), uint8(p)
}

// BuildIndexBlocks constructs the index for a block-layout edge-list
// file: degrees serve in-memory degree queries, the block directory
// carries every extent.
func BuildIndexBlocks(degrees []uint32, bdir *BlockDir, attrSize int) *Index {
	ix := &Index{
		n:        len(degrees),
		attrSize: attrSize,
		encoding: EncodingBlock,
		degree:   make([]uint8, len(degrees)),
		large:    make(map[VertexID]uint32),
		blocks:   bdir,
		fileSize: bdir.DataSize(),
	}
	for v, d := range degrees {
		if d >= largeDegree {
			ix.degree[v] = largeDegree
			ix.large[VertexID(v)] = d
		} else {
			ix.degree[v] = uint8(d)
		}
		ix.numEdges += int64(d)
	}
	return ix
}

// buildDirIndex dispatches one direction's index construction on the
// layout: sizes feed the delta index, bdir the block index.
func buildDirIndex(degrees []uint32, sizes []int64, bdir *BlockDir, attrSize int, enc Encoding) *Index {
	if enc == EncodingBlock {
		return BuildIndexBlocks(degrees, bdir, attrSize)
	}
	return BuildIndexSized(degrees, sizes, attrSize, enc)
}

// NumVertices returns the number of vertices indexed.
func (ix *Index) NumVertices() int { return ix.n }

// NumEdges returns the total edge endpoints in the file.
func (ix *Index) NumEdges() int64 { return ix.numEdges }

// FileSize returns the total byte length of the edge-list file.
func (ix *Index) FileSize() int64 { return ix.fileSize }

// AttrSize returns the per-edge attribute size.
func (ix *Index) AttrSize() int { return ix.attrSize }

// Encoding returns the on-SSD layout this index describes.
func (ix *Index) Encoding() Encoding { return ix.encoding }

// Degree returns vertex v's degree.
func (ix *Index) Degree(v VertexID) uint32 {
	var d uint8
	if ix.packed != nil {
		d, _ = ix.pairOf(v)
	} else {
		d = ix.degree[v]
	}
	if d == largeDegree {
		return ix.large[v]
	}
	return uint32(d)
}

// Blocks returns the block directory (nil unless the layout is
// EncodingBlock).
func (ix *Index) Blocks() *BlockDir { return ix.blocks }

// RecordBytes is the encoding-aware sizer: the true on-SSD byte length
// of v's record. For the raw layout it is computed from the degree; for
// the delta layout it is the stored data-dependent extent. The block
// layout has no per-vertex records.
func (ix *Index) RecordBytes(v VertexID) int64 {
	switch ix.encoding {
	case EncodingRaw:
		return RecordSize(ix.Degree(v), ix.attrSize)
	case EncodingBlock:
		panic("graph: block layout has no per-vertex records")
	}
	_, b := ix.pairOf(v)
	if b == largeRecord {
		return ix.largeRec[v]
	}
	return int64(b)
}

// Locate computes the byte extent [off, off+size) of v's record by
// walking from the nearest stored group offset. It does not apply to
// the block layout (use Blocks().StripeExtent). The walk bodies inline
// the per-vertex sizing (instead of calling RecordBytes per step):
// Locate runs once per edge-list request and up to GroupSize-1 sizing
// steps deep, and the call-per-step version dominated delta decode
// profiles.
func (ix *Index) Locate(v VertexID) (off, size int64) {
	if ix.encoding == EncodingBlock {
		panic("graph: block layout has no per-vertex records")
	}
	g := int(v) / GroupSize
	off = ix.groupOff[g]
	u := VertexID(g * GroupSize)
	if ix.packed != nil {
		for ; u < v; u++ {
			var b uint8
			if c := ix.packed[u]; c != escapePair {
				b = uint8(ix.pairTable[c])
			} else {
				b = uint8(ix.rarePair[u])
			}
			if b != largeRecord {
				off += int64(b)
			} else {
				off += ix.largeRec[u]
			}
		}
		return off, ix.RecordBytes(v)
	}
	for ; u < v; u++ {
		if d := ix.degree[u]; d != largeDegree {
			off += RecordSize(uint32(d), ix.attrSize)
		} else {
			off += RecordSize(ix.large[u], ix.attrSize)
		}
	}
	return off, ix.RecordBytes(v)
}

// LargeVertices returns how many distinct vertices live in the hash
// tables (diagnostics: power-law graphs keep this small). A delta
// vertex can be in both tables — a degree-spilled vertex's record is
// necessarily also >= 255 bytes — so the union is counted, not the sum.
func (ix *Index) LargeVertices() int {
	n := len(ix.large)
	for v := range ix.largeRec {
		if _, dup := ix.large[v]; !dup {
			n++
		}
	}
	return n
}

// MemoryFootprint estimates the index's in-memory size in bytes: one
// byte per vertex (degree byte, or the delta layout's packed pair
// code) + the shared pair table + group offsets + hash-table entries.
// This is the number the paper quotes as ~1.25 B/vertex (undirected)
// and ~2.5 B/vertex (directed, two indexes) — for all record layouts,
// now that the delta layout's degree and record-size bytes share one
// packed byte.
func (ix *Index) MemoryFootprint() int64 {
	m := int64(len(ix.degree)) + int64(len(ix.groupOff))*8 + int64(len(ix.large))*16
	m += int64(len(ix.packed)) + int64(len(ix.pairTable))*2
	m += int64(len(ix.rarePair))*16 + int64(len(ix.largeRec))*16
	if ix.blocks != nil {
		m += 8 + int64(len(ix.blocks.Offsets))*8
	}
	return m
}

// hashDegreeBytes and hashRecBytes write the per-vertex degree-byte
// and record-size-byte streams the content fingerprint has always
// hashed, synthesized from the packed pair form when the index is
// compacted — so compacting the representation never moves an image's
// identity (cached results key on it).
func (ix *Index) hashDegreeBytes(w io.Writer) {
	if ix.packed == nil {
		w.Write(ix.degree)
		return
	}
	var buf [4096]byte
	k := 0
	for v := 0; v < ix.n; v++ {
		buf[k], _ = ix.pairOf(VertexID(v))
		if k++; k == len(buf) {
			w.Write(buf[:])
			k = 0
		}
	}
	w.Write(buf[:k])
}

func (ix *Index) hashRecBytes(w io.Writer) {
	if ix.packed == nil {
		return // raw/block layouts have no record-size bytes
	}
	var buf [4096]byte
	k := 0
	for v := 0; v < ix.n; v++ {
		_, buf[k] = ix.pairOf(VertexID(v))
		if k++; k == len(buf) {
			w.Write(buf[:])
			k = 0
		}
	}
	w.Write(buf[:k])
}
