package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"
)

// decodeGapsRef is the obvious scalar reference for decodeGaps: one
// binary.Uvarint per gap, no word loads, no unrolling, every ID checked
// against the 32 bits of a VertexID as it is formed (prev must start
// within them). The fuzzer holds the batch decoder to byte-identical
// behavior on every stream it accepts, and to rejecting the same
// streams — truncated and overlong varints, IDs out of range.
func decodeGapsRef(raw []byte, pos, n int, prev uint64) ([]VertexID, int, uint64) {
	var dst []VertexID
	for i := 0; i < n; i++ {
		gap, k := binary.Uvarint(raw[pos:])
		if k <= 0 || gap > math.MaxUint32-prev {
			return dst, -1, prev
		}
		pos += k
		prev += gap
		dst = append(dst, VertexID(prev))
	}
	return dst, pos, prev
}

func FuzzDecodeGaps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint16(16), uint64(0))
	f.Add([]byte{0xAC, 0x02, 0xF0, 0xA2, 0x04}, uint16(2), uint64(7))                                     // multi-byte gaps 300, 70000
	f.Add([]byte{0x80}, uint16(1), uint64(0))                                                             // truncated varint
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02}, uint16(1), uint64(0)) // 64-bit overflow
	f.Add([]byte{}, uint16(0), uint64(1))
	for _, raw := range wordEdgeStreams() {
		f.Add(raw, uint16(12), uint64(0))
	}
	mix, _ := gapStream(mixedGaps(40, 1))
	f.Add(mix, uint16(33), uint64(7))              // measured width mix, seven gaps left behind the last
	f.Add(mix[:len(mix)-3], uint16(40), uint64(7)) // the same, cut inside the last word
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, prev uint64) {
		// Callers start the accumulator at a vertex ID or a column base.
		diffGaps(t, raw, 0, int(n), prev&math.MaxUint32)
	})
}

// encodeDeltaRecord builds a valid delta record ([uvarint count]
// [uvarint first][uvarint gaps...][attrs]) the way encodeStream does,
// for round-trip checking.
func encodeDeltaRecord(edges []VertexID, attrs []byte) []byte {
	rec := binary.AppendUvarint(nil, uint64(len(edges)))
	var prev VertexID
	for i, e := range edges {
		if i == 0 {
			rec = binary.AppendUvarint(rec, uint64(e))
		} else {
			rec = binary.AppendUvarint(rec, uint64(e-prev))
		}
		prev = e
	}
	return append(rec, attrs...)
}

// encodeRawRecord builds a valid raw record ([count u32][edges
// count×u32][attrs]) the way encodeStream does.
func encodeRawRecord(edges []VertexID, attrs []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(edges)))
	for _, e := range edges {
		rec = binary.LittleEndian.AppendUint32(rec, e)
	}
	return append(rec, attrs...)
}

// decodeAdversarial drives the PageVertex decoder over an arbitrary
// byte string in the given record layout. The decoder's corruption
// contract is a panic with the "graph:" record-corruption prefix (the
// engine's per-run recover turns it into a failed query); any other
// panic — slice bounds, OOM-sized allocation — is a decoder bug. A
// record it accepts must be self-consistent: exactly NumEdges IDs.
func decodeAdversarial(t *testing.T, rec []byte, attrSize int, enc Encoding) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			s, ok := r.(string)
			if !ok || !strings.HasPrefix(s, "graph:") {
				t.Fatalf("undocumented panic decoding %s record %x: %v", enc, rec, r)
			}
		}
	}()
	pv := NewPageVertexBytes(1, OutEdges, rec, attrSize, enc)
	n := pv.NumEdges()
	if got := pv.Edges(nil, nil); len(got) != n {
		t.Fatalf("%s record %x: NumEdges %d, Edges decoded %d", enc, rec, n, len(got))
	}
	if n > 0 {
		_ = pv.Edge(0)
		_ = pv.Edge(n - 1)
		if attrSize > 0 {
			_ = pv.AttrBytes(n - 1)
		}
	}
}

// FuzzPageVertexDelta fuzzes PageVertex under both record layouts (the
// name predates the raw half; the checked-in corpus is keyed by it).
func FuzzPageVertexDelta(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{3, 5, 1, 200}, uint8(0))                 // tiny valid-ish stream
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, uint8(4)) // huge claimed count
	f.Add(encodeDeltaRecord([]VertexID{2, 9, 9, 300}, nil), uint8(0))
	f.Add(encodeRawRecord([]VertexID{2, 9, 9, 300}, nil), uint8(0))
	f.Add(encodeRawRecord([]VertexID{4, 8}, []byte{1, 0, 0, 0, 2, 0, 0, 0}), uint8(4))     // weighted
	f.Add(encodeRawRecord([]VertexID{4, 8, 12}, []byte{1, 0, 0, 0, 2, 0, 0, 0}), uint8(4)) // weighted, count one too many
	f.Add([]byte{1, 0, 0}, uint8(0))                                                       // shorter than a raw header
	f.Fuzz(func(t *testing.T, data []byte, rawAttr uint8) {
		attrSize := int(rawAttr % 9)

		// Adversarial half: the input is the record.
		decodeAdversarial(t, data, attrSize, EncodingDelta)
		decodeAdversarial(t, data, attrSize, EncodingRaw)

		// Constructive half: the input seeds a valid record, which must
		// round-trip exactly — and still fail cleanly after a byte flip.
		nEdges := len(data) / 4
		if nEdges > 4096 {
			nEdges = 4096
		}
		edges := make([]VertexID, nEdges)
		for i := range edges {
			edges[i] = binary.LittleEndian.Uint32(data[i*4:])
		}
		sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
		attrs := make([]byte, nEdges*attrSize)
		for i := range attrs {
			attrs[i] = byte(i * 31)
		}
		for _, c := range []struct {
			enc Encoding
			rec []byte
		}{
			{EncodingDelta, encodeDeltaRecord(edges, attrs)},
			{EncodingRaw, encodeRawRecord(edges, attrs)},
		} {
			enc, rec := c.enc, c.rec
			pv := NewPageVertexBytes(7, OutEdges, rec, attrSize, enc)
			if got := pv.NumEdges(); got != nEdges {
				t.Fatalf("%s: NumEdges = %d, want %d", enc, got, nEdges)
			}
			got := pv.Edges(nil, nil)
			for i, e := range edges {
				if got[i] != e {
					t.Fatalf("%s: Edges[%d] = %d, want %d", enc, i, got[i], e)
				}
			}
			for _, i := range []int{0, nEdges / 2, nEdges - 1} {
				if i < 0 || i >= nEdges {
					continue
				}
				if g := pv.Edge(i); g != edges[i] {
					t.Fatalf("%s: Edge(%d) = %d, want %d", enc, i, g, edges[i])
				}
				if attrSize > 0 {
					if ab := pv.AttrBytes(i); !bytes.Equal(ab, attrs[i*attrSize:(i+1)*attrSize]) {
						t.Fatalf("%s: AttrBytes(%d) = %x, want %x", enc, i, ab, attrs[i*attrSize:(i+1)*attrSize])
					}
				}
			}

			flipped := append([]byte(nil), rec...)
			flipped[int(rawAttr)%len(flipped)] ^= 0xFF
			decodeAdversarial(t, flipped, attrSize, enc)
			decodeAdversarial(t, rec[:len(rec)-1], attrSize, enc)
		}
	})
}

// validHeaderV2 builds a well-formed v2 container header for seeding.
func validHeaderV2(directed bool, enc Encoding) []byte {
	var b bytes.Buffer
	b.WriteString(imageMagicV2)
	var flags uint8
	if directed {
		flags = 1
	}
	b.WriteByte(flags)
	b.WriteByte(uint8(enc))
	for _, v := range []any{uint32(4), uint64(100), uint64(200), uint64(1000), uint64(900)} {
		binary.Write(&b, binary.LittleEndian, v)
	}
	return b.Bytes()
}

func FuzzReadImageHeader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("FGIMG001"))
	f.Add([]byte("FGIMG999" + strings.Repeat("\x00", 40)))
	f.Add(append([]byte("FGIMG001"), make([]byte, 37)...)) // a whole v1 header: rejected by name, never parsed
	f.Add(validHeaderV2(true, EncodingDelta))
	f.Add(validHeaderV2(false, EncodingBlock))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := readImageHeader(bytes.NewReader(data))
		if err != nil {
			return // rejection is the expected path for junk
		}
		if !bytes.HasPrefix(data, []byte(imageMagicV2)) {
			t.Fatalf("accepted a header with magic %q", data[:8])
		}
		if h.encoding >= numEncodings {
			t.Fatalf("accepted header with encoding %d", h.encoding)
		}
		// dataOffset is pure arithmetic on the decoded fields; hold it to
		// not panicking for any accepted header with a plausible vertex
		// count (callers bound numV against file size before use).
		if h.numV < 1<<31 {
			_ = h.dataOffset()
		}
	})
}

// FuzzReadChecksumTrailer drives the trailer parser over arbitrary
// bytes and data-section lengths. Rejection is the expected path; a
// panic, or an allocation sized by a claimed count rather than by the
// bytes present, is a bug. An accepted trailer must carry the writer's
// extent and round-trip through writeChecksumTrailer: the rewritten
// trailer reads back to the same sums and is byte-identical to the
// input.
func FuzzReadChecksumTrailer(f *testing.F) {
	img := BuildImage(fixtureAdjacency(), 0, nil)
	var enc bytes.Buffer
	if err := img.EncodeAs(&enc, EncodingRaw); err != nil {
		f.Fatal(err)
	}
	full, err := Decode(bytes.NewReader(enc.Bytes()))
	if err != nil {
		f.Fatal(err)
	}
	trailer := enc.Bytes()[enc.Len()-trailerLen(full):]
	outLen, inLen := int64(len(full.OutData)), int64(len(full.InData))
	f.Add(trailer, outLen, inLen)
	f.Add(trailer[:len(trailer)-1], outLen, inLen)   // self-CRC cut short
	f.Add(trailer, outLen+ChecksumExtentSize, inLen) // counts disagree with the lengths
	f.Add([]byte{}, outLen, inLen)                   // no trailer: refused
	f.Add([]byte(checksumMagic[:5]), outLen, inLen)  // partial magic
	claim := append([]byte(checksumMagic), 0, 0x10, 0, 0, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0, 0, 0)
	f.Add(claim, int64(0x0FFFFFFF)*ChecksumExtentSize, int64(0)) // 24 bytes claiming 2^28 sums
	huge := append([]byte(checksumMagic), 0, 0, 0, 0x40, 1, 0, 0, 0, 0, 0, 0, 0)
	f.Add(huge, outLen, int64(0)) // a 1 GiB extent
	f.Fuzz(func(t *testing.T, data []byte, outLen, inLen int64) {
		r := bytes.NewReader(data)
		outSums, inSums, err := readChecksumTrailer(r, outLen, inLen)
		if len(data) == 0 && !errors.Is(err, ErrUnsupportedContainer) {
			t.Fatalf("no trailer: err = %v, want ErrUnsupportedContainer", err)
		}
		if err != nil {
			return
		}
		used := len(data) - r.Len()
		if want := len(checksumMagic) + 12 + 4*(len(outSums)+len(inSums)) + 4; used != want {
			t.Fatalf("accepted a %d-byte trailer holding %d+%d sums (%d bytes)", used, len(outSums), len(inSums), want)
		}
		var re bytes.Buffer
		if err := writeChecksumTrailer(&re, outSums, inSums); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), data[:used]) {
			t.Fatalf("rewritten trailer %x differs from accepted %x", re.Bytes(), data[:used])
		}
		rOut := int64(len(outSums)) * ChecksumExtentSize
		rIn := int64(len(inSums)) * ChecksumExtentSize
		o2, i2, err := readChecksumTrailer(&re, rOut, rIn)
		if err != nil || !equalSums(o2, outSums) || !equalSums(i2, inSums) {
			t.Fatalf("rewritten trailer reads back as %v %v (err %v), want %v %v", o2, i2, err, outSums, inSums)
		}
	})
}

// FuzzDecodeStripe drives the 2D block decoder over an arbitrary byte
// string laid out as one row stripe of a 2×2 grid (the fuzzer also
// picks where the two blocks split). decodeBlock reports corruption as
// an error; any panic is a decoder bug. Every run it delivers must name
// a row of the stripe, hold ascending columns inside the grid, and
// carry exactly its attrs.
func FuzzDecodeStripe(f *testing.F) {
	const shift = 4
	valid := encodeBlock(nil, 0, 0, []VertexID{1, 1, 3}, []VertexID{2, 5, 0}, nil, 0)
	validAttr := encodeBlock(nil, 0, 16, []VertexID{0, 7}, []VertexID{16, 31}, []byte{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Add(valid, uint16(len(valid)), uint8(0))
	f.Add(append(append([]byte(nil), valid...), validAttr...), uint16(len(valid)), uint8(4))
	f.Add([]byte{1, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, uint16(8), uint8(0)) // one row claiming 2^35 edges
	f.Add([]byte{1, 200, 1, 1, 1}, uint16(5), uint8(0))                          // row delta past the stripe
	f.Add([]byte{1, 0, 1, 100}, uint16(4), uint8(0))                             // column past the block
	for _, wrapped := range wrappedRuns() {                                      // a column past the block, hidden by gaps that wrap back inside
		f.Add(wrapped, uint16(len(wrapped)), uint8(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint16, rawAttr uint8) {
		attrSize := int(rawAttr % 9)
		end := int64(len(data))
		cut := int64(split)
		if cut > end {
			cut = end
		}
		bd := &BlockDir{Shift: shift, Stripes: 2, Offsets: []int64{0, cut, end, end, end}}
		var edges int
		_, err := bd.DecodeStripe(data, 0, attrSize, nil, func(row VertexID, cols []VertexID, attrs []byte) {
			if row >= 1<<shift {
				t.Fatalf("row %d delivered from stripe 0 of %d-row stripes", row, 1<<shift)
			}
			for i, c := range cols {
				if c >= 2<<shift || i > 0 && c < cols[i-1] {
					t.Fatalf("row %d: column %d after %v in a %d-column grid", row, c, cols[:i], 2<<shift)
				}
			}
			if len(attrs) != len(cols)*attrSize {
				t.Fatalf("row %d: %d edges with %d attr bytes at attr size %d", row, len(cols), len(attrs), attrSize)
			}
			edges += len(cols)
		})
		if err == nil && edges > len(data) {
			t.Fatalf("decoded %d edges from %d bytes", edges, len(data))
		}
	})
}
