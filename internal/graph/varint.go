package graph

import (
	"encoding/binary"
	"math"
)

// decodeGaps is the shared hot loop of the delta decoders: it decodes n
// varint gaps from raw[pos:], accumulates them onto prev (prefix-sum; a
// vertex ID or a block's column base, widened), and appends each
// resulting ID to dst. It returns the extended slice,
// the stream position just past the n-th gap, and the last ID decoded.
// A corrupt or truncated stream, or one that accumulates an ID past the
// 32 bits of a VertexID, returns pos == -1 (dst and the ID are then
// unspecified); the callers translate that into their own error idiom
// (panic for PageVertex, error for the block decoder). IDs therefore
// never wrap: a run whose last ID is in range has every ID in range.
//
// The loop is sized on the gaps R-MAT graphs actually produce. The
// ledger's scale-18 image holds 47% one-byte, 49% two-byte and 4%
// three-byte gaps in the block layout (45 / 48 / 7 in delta, 58 / 41 / 2
// at scale 16) and none wider; the one-byte gaps cluster in hub rows,
// the rest alternate one and two bytes with no pattern a branch
// predictor can learn (BenchmarkDecodeBlockEdges logs the mix it runs
// on). So one 8-byte load serves every gap that lies wholly inside it:
//
//   - no continuation bit in the word: eight complete one-byte gaps,
//     added and stored without a per-byte branch. That holds at only one
//     word in twenty, but those words are the hub rows and carry almost
//     a quarter of all gaps.
//   - no two adjacent continuation bits: every gap starting in the word
//     is one or two bytes, and four of them always fit, so up to four
//     peel off the low end by shift with the width chosen arithmetically
//     (the continuation bit masks the second byte in and sizes the
//     shift) — the one-or-two-byte coin flip costs no mispredicted
//     branch.
//   - otherwise a three-byte gap is near: one gap of up to three bytes
//     is taken, again by mask, and the word reloads. This is a branch
//     and not part of the peel because it is rarely taken and a
//     three-way arithmetic peel lengthens the dependency chain of every
//     gap to save it.
//
// Gaps of four bytes or more, and the last seven bytes of the stream,
// go through binary.Uvarint, which is also where a gap too wide for a
// VertexID is refused. With every gap that narrow the accumulator only
// grows (wrapping 64 bits would take 2^32 gaps), so one comparison
// after the last gap range-checks all n IDs. The destination is grown
// to its final length up front so every path index-writes instead of
// paying append's length/capacity bookkeeping per edge.
func decodeGaps(dst []VertexID, raw []byte, pos, n int, prev uint64) ([]VertexID, int, uint64) {
	base := len(dst)
	if cap(dst) < base+n {
		grown := make([]VertexID, base, base+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	out := dst[base:]
	i := 0
	for i < n {
		if pos+8 <= len(raw) {
			x := binary.LittleEndian.Uint64(raw[pos:])
			m := x & 0x8080808080808080
			if m == 0 {
				if n-i < 8 {
					for ; i < n; i++ {
						prev += x & 0xff
						x >>= 8
						pos++
						out[i] = VertexID(prev)
					}
					break
				}
				o := out[i : i+8 : i+8]
				prev += x & 0xff
				o[0] = VertexID(prev)
				prev += x >> 8 & 0xff
				o[1] = VertexID(prev)
				prev += x >> 16 & 0xff
				o[2] = VertexID(prev)
				prev += x >> 24 & 0xff
				o[3] = VertexID(prev)
				prev += x >> 32 & 0xff
				o[4] = VertexID(prev)
				prev += x >> 40 & 0xff
				o[5] = VertexID(prev)
				prev += x >> 48 & 0xff
				o[6] = VertexID(prev)
				prev += x >> 56
				o[7] = VertexID(prev)
				pos += 8
				i += 8
				continue
			}
			if m&(m>>8) == 0 {
				o := out[i : i+min(4, n-i)]
				for j := range o {
					c := x >> 7 & 1
					prev += x&0x7f | (x>>1&0x3f80)&-c
					x >>= 8 + 8*c
					pos += 1 + int(c)
					o[j] = VertexID(prev)
				}
				i += len(o)
				continue
			}
			if x&0x808080 != 0x808080 {
				c0 := x >> 7 & 1
				c1 := c0 & (x >> 15)
				prev += x&0x7f | (x>>1&0x3f80)&-c0 | (x>>2&0x1fc000)&-c1
				pos += 1 + int(c0+c1)
				out[i] = VertexID(prev)
				i++
				continue
			}
		}
		gap, k := binary.Uvarint(raw[pos:])
		if k <= 0 || gap > math.MaxUint32 {
			return dst, -1, prev
		}
		pos += k
		prev += gap
		out[i] = VertexID(prev)
		i++
	}
	if prev > math.MaxUint32 {
		return dst, -1, prev
	}
	return dst, pos, prev
}
