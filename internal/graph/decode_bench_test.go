package graph

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// benchImage builds the fixture graph in the given encoding.
func benchImage(b *testing.B, enc Encoding) *Image {
	b.Helper()
	img := BuildImage(fixtureAdjacency(), 0, nil)
	if enc == EncodingRaw {
		return img
	}
	var buf bytes.Buffer
	if err := img.EncodeAs(&buf, enc); err != nil {
		b.Fatal(err)
	}
	out, err := Decode(&buf)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// benchEdges decodes every vertex's edge list once per iteration and
// reports ns/edge — the decode-CPU number the io experiment tracks.
func benchEdges(b *testing.B, img *Image) {
	var dst []VertexID
	var edges int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 0; v < img.NumV; v++ {
			off, size := img.OutIndex.Locate(VertexID(v))
			pv := NewPageVertexBytes(VertexID(v), OutEdges, img.OutData[off:off+size], 0, img.Encoding)
			dst = pv.Edges(dst, nil)
			edges += int64(len(dst))
		}
	}
	if edges > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
	}
}

func BenchmarkDecodeDeltaEdges(b *testing.B) {
	benchEdges(b, benchImage(b, EncodingDelta))
}

func BenchmarkDecodeRawEdges(b *testing.B) {
	benchEdges(b, benchImage(b, EncodingRaw))
}

// BenchmarkDecodeGaps isolates the batch varint loop on a power-law-ish
// gap stream (mostly single-byte gaps, occasional wide ones).
func BenchmarkDecodeGaps(b *testing.B) {
	const n = 1 << 16
	var raw []byte
	for i := 0; i < n; i++ {
		gap := uint64(i%100 + 1)
		if i%64 == 0 {
			gap += 100000
		}
		raw = binary.AppendUvarint(raw, gap)
	}
	dst := make([]VertexID, 0, n)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var pos int
		dst, pos, _ = decodeGaps(dst[:0], raw, 0, n, 0)
		if pos < 0 {
			b.Fatal("corrupt stream")
		}
	}
}
