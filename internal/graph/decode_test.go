package graph

import (
	"bytes"
	"encoding/binary"
	"math"
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
// chosen to hit every path: all single-byte gaps (the eight-wide body),
// a multi-byte gap at each of the first slots of the word, tails shorter
// than a word, and empty streams.
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

// diffGaps holds decodeGaps to decodeGapsRef on one call: the same
// streams rejected, and on the others the same position, the same
// accumulator and the same IDs.
func diffGaps(t testing.TB, raw []byte, pos, n int, prev uint64) {
	t.Helper()
	got, gotPos, gotPrev := decodeGaps(nil, raw, pos, n, prev)
	want, wantPos, wantPrev := decodeGapsRef(raw, pos, n, prev)
	if gotPos != wantPos || wantPos >= 0 && gotPrev != wantPrev {
		t.Fatalf("decodeGaps(raw=%x, pos=%d, n=%d, prev=%d) = (pos=%d, prev=%d), reference (pos=%d, prev=%d)",
			raw, pos, n, prev, gotPos, gotPrev, wantPos, wantPrev)
	}
	if wantPos < 0 {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("decodeGaps(raw=%x, pos=%d, n=%d) decoded %d IDs, reference %d", raw, pos, n, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("decodeGaps(raw=%x, pos=%d, n=%d) ID[%d] = %d, reference %d", raw, pos, n, i, got[i], want[i])
		}
	}
}

// wordEdgeStreams are gap streams that put a multi-byte varint across
// the end of the kernel's 8-byte word, or across the end of the stream:
// k one-byte gaps, then the wide one, then enough one-byte gaps that the
// word load is in bounds.
func wordEdgeStreams() [][]byte {
	var out [][]byte
	for _, wide := range []uint64{300, 70000, 1 << 21, 1<<32 - 100, 1 << 40} {
		for k := 0; k < 8; k++ {
			var raw []byte
			for i := 0; i < k; i++ {
				raw = append(raw, byte(i+1))
			}
			raw = binary.AppendUvarint(raw, wide)
			out = append(out, append(raw, 1, 2, 3, 4, 5, 6, 7, 8, 9))
		}
	}
	return append(out,
		[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 1, 1, 1, 1, 1, 1, 1, 1},    // the 10-byte maximum, 2^64-1
		[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 1, 1, 1, 1, 1, 1, 1}, // 11 bytes: overflows
		[]byte{1, 2, 3, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 1, 1, 1, 1}, // the same, mid-word
	)
}

// TestDecodeGapsDifferential runs the kernel against the reference
// where a word-at-a-time loop can go wrong: every start offset 0–7 × run
// length 0…40 over streams of the measured width mix, once with further
// valid gaps behind the n-th (the kernel must consume exactly n and
// report the exact position) and once with the stream cut right after
// it (so the last gaps are decoded from a partial word); then wide gaps
// straddling the word's end, and the longest varint and an overflowing
// one, both refused.
func TestDecodeGapsDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		gaps := mixedGaps(48, seed)
		ends := make([]int, 0, len(gaps)+1) // ends[n]: stream bytes holding the first n gaps
		var stream []byte
		for _, g := range gaps {
			ends = append(ends, len(stream))
			stream = binary.AppendUvarint(stream, g)
		}
		for start := 0; start < 8; start++ {
			raw := append(bytes.Repeat([]byte{0xFF}, start), stream...)
			for n := 0; n <= 40; n++ {
				diffGaps(t, raw, start, n, 7)
				diffGaps(t, raw[:start+ends[n]], start, n, 7)
				if n > 0 {
					diffGaps(t, raw[:start+ends[n]-1], start, n, 7) // truncated inside the n-th gap
				}
			}
		}
	}
	for _, raw := range wordEdgeStreams() {
		for n := 0; n <= 12; n++ {
			diffGaps(t, raw, 0, n, 0)
			diffGaps(t, raw, 0, n, 90) // 2^32-100 and the gaps after it now leave a VertexID
			for cut := 1; cut < len(raw); cut++ {
				diffGaps(t, raw[:cut], 0, n, 0)
			}
		}
	}

	// The reference is the oracle above; pin its edges absolutely.
	top := binary.AppendUvarint(nil, math.MaxUint32)
	top = append(top, 0, 0, 0, 1, 0, 0, 0, 0, 0)
	if _, pos, prev := decodeGaps(nil, top, 0, 4, 0); pos != 8 || prev != math.MaxUint32 {
		t.Fatalf("largest ID: pos = %d, prev = %d, want 8 and 2^32-1", pos, prev)
	}
	for name, c := range map[string]struct {
		raw []byte
		n   int
	}{
		"one past the largest ID, by a one-byte gap": {top, 5},
		"10-byte varint 2^64-1":                      {[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 1, 1}, 1},
		"11-byte varint":                             {[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 1}, 1},
	} {
		if _, pos, _ := decodeGaps(nil, c.raw, 0, c.n, 0); pos != -1 {
			t.Fatalf("%s: pos = %d, want -1", name, pos)
		}
	}
}

// wrappedRuns are blocks of a 16-column grid whose only run strays to
// column 100, far outside the block, and then wraps the 64-bit
// accumulator back to column 1, inside it: by one gap of 2^64-99, and by
// a gap to 2^64-1 followed by a one-byte gap of 2.
func wrappedRuns() [][]byte {
	direct := []byte{1, 0, 2, 100} // one row, row delta 0, two edges, first gap 100
	direct = binary.AppendUvarint(direct, 1<<64-99)
	twoStep := []byte{1, 0, 3, 100}
	twoStep = append(binary.AppendUvarint(twoStep, 1<<64-101), 2)
	return [][]byte{direct, twoStep}
}

// TestDecodeBlockGapWrap: the block decoder range-checks a run at its
// last column only, which covers every column only while gaps
// accumulate without wrapping. A gap that wraps must be reported as
// corruption, and the out-of-block column before it must never reach a
// consumer that indexes by it.
func TestDecodeBlockGapWrap(t *testing.T) {
	for _, data := range wrappedRuns() {
		end := int64(len(data))
		bd := &BlockDir{Shift: 4, Stripes: 2, Offsets: []int64{0, end, end, end, end}}
		_, err := bd.DecodeStripe(data, 0, 0, nil, func(row VertexID, cols []VertexID, _ []byte) {
			for _, c := range cols {
				if c >= 1<<bd.Shift {
					t.Errorf("block %x: row %d: column %d delivered from a block of columns 0..15 (run %v)", data, row, c, cols)
				}
			}
		})
		if err == nil {
			t.Errorf("block %x: a gap wrapping the column accumulator decoded without error", data)
		}
	}
}

// TestDecodeStripeAllocatesNothing: with its column scratch warm, a
// stripe decode allocates nothing — not per block, per run or per edge.
func TestDecodeStripeAllocatesNothing(t *testing.T) {
	img := encodedAs(t, BuildImage(fixtureAdjacency(), 0, nil), EncodingBlock)
	bd := img.OutIndex.Blocks()
	var cols []VertexID
	var edges int
	sweep := func() {
		for r := 0; r < bd.Stripes; r++ {
			off, size := bd.StripeExtent(r)
			var err error
			cols, err = bd.DecodeStripe(img.OutData[off:off+size], r, img.AttrSize, cols, func(_ VertexID, c []VertexID, _ []byte) {
				edges += len(c)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep() // sizes cols for the longest run
	if allocs := testing.AllocsPerRun(10, sweep); allocs != 0 {
		t.Fatalf("DecodeStripe allocates %.1f times per sweep with warm scratch, want 0", allocs)
	}
	if edges == 0 {
		t.Fatal("fixture decoded no edges")
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
