package graph

import (
	"encoding/binary"
	"testing"
)

// gapStream encodes gaps as a varint stream and returns the prefix-sum
// reference decode.
func gapStream(gaps []uint64) (raw []byte, want []VertexID) {
	prev := uint64(0)
	for _, g := range gaps {
		raw = binary.AppendUvarint(raw, g)
		prev += g
		want = append(want, VertexID(prev))
	}
	return raw, want
}

// TestDecodeGapsMatchesUvarint drives the batched decoder over streams
// chosen to hit every path: all single-byte gaps (pure fast path),
// multi-byte gaps at every alignment within the 4-byte window, tails
// shorter than a window, and empty streams.
func TestDecodeGapsMatchesUvarint(t *testing.T) {
	cases := [][]uint64{
		{},
		{5},
		{1, 2, 3},
		{1, 2, 3, 4},
		{1, 2, 3, 4, 5, 6, 7, 8, 9},
		{127, 127, 127, 127}, // largest single-byte gaps
		{128, 1, 1, 1},       // multi-byte at window start
		{1, 128, 1, 1},       // ... at each later slot
		{1, 1, 128, 1},
		{1, 1, 1, 128},
		{300, 70000, 1 << 30, 1, 2, 3},  // wide gaps
		{1, 2, 300, 4, 5, 6, 700, 8, 9}, // mixed, misaligning the window
	}
	// A long pseudo-random mix exercises window re-arming at scale.
	long := make([]uint64, 1000)
	for i := range long {
		long[i] = uint64((i*2654435761 + 7) % 1000)
		if i%13 == 0 {
			long[i] += 500 // force multi-byte varints throughout
		}
	}
	cases = append(cases, long)

	for ci, gaps := range cases {
		raw, want := gapStream(gaps)
		var got []VertexID
		got, pos, prev := decodeGaps(got, raw, 0, len(gaps), 0)
		if pos != len(raw) {
			t.Fatalf("case %d: pos = %d, want %d", ci, pos, len(raw))
		}
		if len(got) != len(want) {
			t.Fatalf("case %d: decoded %d IDs, want %d", ci, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %d: id[%d] = %d, want %d", ci, i, got[i], want[i])
			}
		}
		if len(want) > 0 && VertexID(prev) != want[len(want)-1] {
			t.Fatalf("case %d: prev = %d, want %d", ci, prev, want[len(want)-1])
		}
	}

	// Truncated stream: the decoder must report corruption, not decode
	// garbage.
	raw, _ := gapStream([]uint64{1, 2, 3, 4, 5})
	if _, pos, _ := decodeGaps(nil, raw[:len(raw)-1], 0, 5, 0); pos != -1 {
		t.Fatalf("truncated stream: pos = %d, want -1", pos)
	}
	if _, pos, _ := decodeGaps(nil, []byte{0x80, 0x80}, 0, 1, 0); pos != -1 {
		t.Fatalf("dangling continuation bits: pos = %d, want -1", pos)
	}
}

// TestDeltaIndexCompaction checks the packed pair index against a
// brute-force reference over a degree distribution that exercises both
// sentinels and (via synthetic record sizes) the rare-pair escape.
func TestDeltaIndexCompaction(t *testing.T) {
	const n = 3000
	degrees := make([]uint32, n)
	sizes := make([]int64, n)
	for v := 0; v < n; v++ {
		degrees[v] = uint32(v % 9)
		sizes[v] = int64(degrees[v])*2 + 1
		switch {
		case v%500 == 3: // degree sentinel + record sentinel
			degrees[v] = 400
			sizes[v] = 800
		case v%97 == 0: // decorrelated pair (wide gaps): rare-pair fodder
			sizes[v] = int64(degrees[v])*3 + int64(v%11) + 2
		}
	}
	ix := BuildIndexSized(degrees, sizes, 0, EncodingDelta)

	wantOff := int64(0)
	for v := 0; v < n; v++ {
		if got := ix.Degree(VertexID(v)); got != degrees[v] {
			t.Fatalf("vertex %d: Degree = %d, want %d", v, got, degrees[v])
		}
		if got := ix.RecordBytes(VertexID(v)); got != sizes[v] {
			t.Fatalf("vertex %d: RecordBytes = %d, want %d", v, got, sizes[v])
		}
		off, size := ix.Locate(VertexID(v))
		if off != wantOff || size != sizes[v] {
			t.Fatalf("vertex %d: Locate = (%d,%d), want (%d,%d)", v, off, size, wantOff, sizes[v])
		}
		wantOff += sizes[v]
	}
	if ix.FileSize() != wantOff {
		t.Fatalf("FileSize = %d, want %d", ix.FileSize(), wantOff)
	}

	// The compaction target: about one byte per vertex plus the group
	// offsets (8/32 = 0.25/vertex), i.e. well under the old ~2.25.
	perVertex := float64(ix.MemoryFootprint()) / n
	if perVertex > 1.6 {
		t.Fatalf("delta index footprint = %.2f B/vertex, want <= 1.6 (packed pair compaction)", perVertex)
	}
}
