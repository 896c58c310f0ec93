package graph

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"flashgraph/internal/util"
)

// benchEdges decodes every vertex's edge list once per iteration and
// reports ns/edge — the decode-CPU number the ledger's
// graph.decode_{raw,delta}_ns_per_edge probes track.
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

// benchRMAT is the R-MAT fixture the decode benchmarks share: the
// ledger's batch graph (scale 18, 16 edges per vertex, a 4×4 block
// grid), drawn once per test binary.
var benchRMAT = sync.OnceValue(func() *Adjacency { return rmatAdjacency(18, 16, 1) })

func BenchmarkDecodeDeltaEdges(b *testing.B) {
	b.Run("fixture", func(b *testing.B) {
		benchEdges(b, encodedAs(b, BuildImage(fixtureAdjacency(), 0, nil), EncodingDelta))
	})
	b.Run("rmat", func(b *testing.B) {
		benchEdges(b, encodedAs(b, BuildImage(benchRMAT(), 0, nil), EncodingDelta))
	})
}

func BenchmarkDecodeRawEdges(b *testing.B) {
	benchEdges(b, BuildImage(fixtureAdjacency(), 0, nil))
}

// mixedGaps draws n gaps whose varints are 1, 2 or 3 bytes wide with
// probability 45 / 50 / 5 %, each width independent of the last: the
// measured mix of the ledger's block image with the clustering taken
// out, which is the worst case for a branch on the width.
func mixedGaps(n int, seed uint64) []uint64 {
	r := util.NewRNG(seed)
	gaps := make([]uint64, n)
	for i := range gaps {
		switch p := r.Intn(100); {
		case p < 45:
			gaps[i] = uint64(r.Intn(1 << 7))
		case p < 95:
			gaps[i] = 1<<7 + uint64(r.Intn(1<<14-1<<7))
		default:
			gaps[i] = 1<<14 + uint64(r.Intn(1<<21-1<<14))
		}
	}
	return gaps
}

// rowGaps lists the gaps of a's out-edge rows as the delta layout
// stores them (first ID, then differences), hub rows and tail rows in
// vertex order.
func rowGaps(a *Adjacency) []uint64 {
	var gaps []uint64
	for _, row := range a.Out {
		var prev VertexID
		for _, u := range row {
			gaps = append(gaps, uint64(u-prev))
			prev = u
		}
	}
	return gaps
}

// BenchmarkDecodeGaps isolates the batch varint loop on the traffic it
// gets — the independent 45/50/5 width mix and an R-MAT graph's own
// rows — at the run lengths of a block run (4, 12) and a hub row (64),
// plus an all-single-byte stream as the dense-graph case.
func BenchmarkDecodeGaps(b *testing.B) {
	single := make([]uint64, 1<<16)
	for i := range single {
		single[i] = uint64(i%100 + 1)
	}
	for _, s := range []struct {
		name string
		gaps []uint64
	}{
		{"mix45-50-5", mixedGaps(1<<16, 1)},
		{"rmat", rowGaps(benchRMAT())},
		{"single", single},
	} {
		raw, _ := gapStream(s.gaps)
		n := len(s.gaps)
		for _, run := range []int{4, 12, 64} {
			b.Run(fmt.Sprintf("%s/run%d", s.name, run), func(b *testing.B) {
				dst := make([]VertexID, 0, run)
				b.SetBytes(int64(len(raw)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pos := 0
					for left := n; left > 0; left -= run {
						dst, pos, _ = decodeGaps(dst[:0], raw, pos, min(run, left), 0)
						if pos < 0 {
							b.Fatal("corrupt stream")
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/gap")
			})
		}
	}
}

// blockGapWidths walks every run of one direction of a block image
// with the reference varint decoder and returns the count of column
// gaps by encoded width (index = bytes, 4 = four or more), and how
// often an eight-byte window tried at a gap with eight or more left in
// its run (advancing eight gaps on a hit, one on a miss) holds eight
// single-byte gaps.
func blockGapWidths(tb testing.TB, data []byte, bd *BlockDir) (widths [5]int64, tried, hit int64) {
	for i := 0; i < bd.Stripes*bd.Stripes; i++ {
		bb := data[bd.Offsets[i]:bd.Offsets[i+1]]
		if len(bb) == 0 {
			continue
		}
		rowCount, pos := binary.Uvarint(bb)
		for ; rowCount > 0; rowCount-- {
			_, k := binary.Uvarint(bb[pos:])
			pos += k
			cnt, k := binary.Uvarint(bb[pos:])
			pos += k
			for skip := uint64(0); cnt > 0; cnt-- {
				if skip > 0 {
					skip--
				} else if cnt >= 8 && pos+8 <= len(bb) {
					tried++
					if binary.LittleEndian.Uint64(bb[pos:])&0x8080808080808080 == 0 {
						hit++
						skip = 7
					}
				}
				_, k := binary.Uvarint(bb[pos:])
				if k <= 0 {
					tb.Fatalf("block %d: corrupt gap at byte %d", i, pos)
				}
				widths[min(k, 4)]++
				pos += k
			}
		}
	}
	return widths, tried, hit
}

// BenchmarkDecodeBlockEdges decodes every stripe of the R-MAT
// fixture's block image per iteration — the ledger's
// graph.decode_block_ns_per_edge probe in miniature — and logs the gap
// width mix the kernel is sized on, so that claim is re-measured by
// every run rather than remembered.
func BenchmarkDecodeBlockEdges(b *testing.B) {
	img := encodedAs(b, BuildImage(benchRMAT(), 0, nil), EncodingBlock)
	bd := img.OutIndex.Blocks()
	w, tried, hit := blockGapWidths(b, img.OutData, bd)
	total := float64(w[1] + w[2] + w[3] + w[4])
	b.Logf("gap widths: %.1f%% 1-byte, %.1f%% 2-byte, %.1f%% 3-byte, %.2f%% 4+; 8-wide single-byte window hits %.1f%% of %d tries",
		100*float64(w[1])/total, 100*float64(w[2])/total, 100*float64(w[3])/total, 100*float64(w[4])/total,
		100*float64(hit)/float64(max(tried, 1)), tried)

	var cols []VertexID
	var edges int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < bd.Stripes; r++ {
			off, size := bd.StripeExtent(r)
			var err error
			cols, err = bd.DecodeStripe(img.OutData[off:off+size], r, img.AttrSize, cols, func(_ VertexID, c []VertexID, _ []byte) {
				edges += int64(len(c))
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
}
