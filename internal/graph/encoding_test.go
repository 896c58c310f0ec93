package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildFileEnc runs the full out-of-core path (StreamBuilder with the
// given encoding, WriteFile) and returns the image file's bytes.
func buildFileEnc(t *testing.T, edges []Edge, n int, directed bool, attrSize int, attr AttrFunc, memBytes int64, enc Encoding) []byte {
	t.Helper()
	dir := t.TempDir()
	b := NewStreamBuilder(BuildConfig{
		NumV: n, Directed: directed, Encoding: enc, AttrSize: attrSize, Attr: attr,
		MemBytes: memBytes, TmpDir: dir,
	})
	for _, e := range edges {
		if err := b.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "img.fg")
	if _, err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// adjacencyOf decodes every record of an image into neighbor lists and
// per-edge attrs via the public decoder (Index.Locate + PageVertex) —
// the observable form a vertex program sees.
func adjacencyOf(t *testing.T, img *Image) (out, in [][]VertexID, outAttrs [][]uint32) {
	t.Helper()
	decode := func(data []byte, ix *Index, wantAttrs bool) ([][]VertexID, [][]uint32) {
		lists := make([][]VertexID, img.NumV)
		var attrs [][]uint32
		if wantAttrs {
			attrs = make([][]uint32, img.NumV)
		}
		for v := 0; v < img.NumV; v++ {
			off, size := ix.Locate(VertexID(v))
			pv := NewPageVertexBytes(VertexID(v), OutEdges, data[off:off+size], img.AttrSize, img.Encoding)
			lists[v] = pv.Edges(nil, nil)
			if deg := ix.Degree(VertexID(v)); uint32(len(lists[v])) != deg {
				t.Fatalf("vertex %d: decoded %d edges, index says %d", v, len(lists[v]), deg)
			}
			if wantAttrs {
				for i := range lists[v] {
					attrs[v] = append(attrs[v], pv.AttrUint32(i))
				}
			}
		}
		return lists, attrs
	}
	out, outAttrs = decode(img.OutData, img.OutIndex, img.AttrSize == 4)
	if img.Directed {
		in, _ = decode(img.InData, img.InIndex, false)
	}
	return out, in, outAttrs
}

// TestEncodingRoundTripBitIdentity is the encoding-parameterized
// round-trip suite: for directed/undirected/weighted/empty-vertex/
// degree-255+ graphs built under spill-forcing extsort budgets, the
// delta image must decode to adjacency lists (and attrs) identical to
// the raw image of the same edges, through Decode and OpenImageFile
// alike.
func TestEncodingRoundTripBitIdentity(t *testing.T) {
	attr := func(src, dst VertexID, buf []byte) {
		binary.LittleEndian.PutUint32(buf, uint32(src)*31+uint32(dst))
	}
	cases := []struct {
		name     string
		directed bool
		attrSize int
		attr     AttrFunc
		edges    []Edge
		n        int
	}{
		{"directed", true, 0, nil, testEdges(700, 6000, 42), 700},
		{"undirected", false, 0, nil, testEdges(700, 6000, 43), 700},
		{"weighted-directed", true, 4, attr, testEdges(500, 4000, 44), 500},
		{"weighted-undirected", false, 4, attr, testEdges(500, 4000, 45), 500},
		// Trailing and interior edgeless vertices.
		{"empty-vertices", true, 0, nil, []Edge{{0, 3}, {3, 9}, {9, 0}}, 64},
		// Hub with degree >= 255: both the degree byte and (delta) the
		// record-size byte must spill to the hash tables.
		{"degree-255+", true, 4, attr, func() []Edge {
			var es []Edge
			for i := 1; i <= 400; i++ {
				es = append(es, Edge{Src: 0, Dst: VertexID(i)})
			}
			return es
		}(), 401},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// 64KiB budget → guaranteed multi-run spills on the big cases.
			rawFile := buildFileEnc(t, tc.edges, tc.n, tc.directed, tc.attrSize, tc.attr, 64<<10, EncodingRaw)
			deltaFile := buildFileEnc(t, tc.edges, tc.n, tc.directed, tc.attrSize, tc.attr, 64<<10, EncodingDelta)

			rawImg, err := Decode(bytes.NewReader(rawFile))
			if err != nil {
				t.Fatal(err)
			}
			deltaImg, err := Decode(bytes.NewReader(deltaFile))
			if err != nil {
				t.Fatal(err)
			}
			if rawImg.Encoding != EncodingRaw || deltaImg.Encoding != EncodingDelta {
				t.Fatalf("encodings = %s/%s, want raw/delta", rawImg.Encoding, deltaImg.Encoding)
			}
			if rawImg.NumEdges != deltaImg.NumEdges || rawImg.NumV != deltaImg.NumV {
				t.Fatalf("metadata mismatch: %d/%d edges, %d/%d vertices",
					rawImg.NumEdges, deltaImg.NumEdges, rawImg.NumV, deltaImg.NumV)
			}

			rOut, rIn, rAttrs := adjacencyOf(t, rawImg)
			dOut, dIn, dAttrs := adjacencyOf(t, deltaImg)
			for v := 0; v < tc.n; v++ {
				if !equalIDs(rOut[v], dOut[v]) {
					t.Fatalf("vertex %d: out lists differ: raw %v delta %v", v, rOut[v], dOut[v])
				}
				if tc.directed && !equalIDs(rIn[v], dIn[v]) {
					t.Fatalf("vertex %d: in lists differ: raw %v delta %v", v, rIn[v], dIn[v])
				}
				if tc.attrSize == 4 && !equalU32(rAttrs[v], dAttrs[v]) {
					t.Fatalf("vertex %d: attrs differ: raw %v delta %v", v, rAttrs[v], dAttrs[v])
				}
			}

			// File-backed delta open must agree with the decoded image on
			// every extent, and re-encode to the identical container.
			path := filepath.Join(t.TempDir(), "delta.fg")
			if err := os.WriteFile(path, deltaFile, 0o644); err != nil {
				t.Fatal(err)
			}
			fb, err := OpenImageFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer fb.Close()
			for v := 0; v < tc.n; v++ {
				o1, s1 := fb.OutIndex.Locate(VertexID(v))
				o2, s2 := deltaImg.OutIndex.Locate(VertexID(v))
				if o1 != o2 || s1 != s2 {
					t.Fatalf("vertex %d: file-backed extent (%d,%d) vs decoded (%d,%d)", v, o1, s1, o2, s2)
				}
			}
			var reenc bytes.Buffer
			if err := fb.Encode(&reenc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reenc.Bytes(), deltaFile) {
				t.Fatal("file-backed delta re-encode diverges from the source container")
			}
		})
	}
}

// TestUnknownEncodingRejectedAtBuild pins the build-time guard: an
// out-of-range Encoding (the typed field accepts any uint8) must fail
// the build cleanly instead of stamping an image no reader can open.
func TestUnknownEncodingRejectedAtBuild(t *testing.T) {
	bogus := Encoding(37)
	iw := &ImageWriter{NumV: 2, Encoding: bogus, Out: SliceSource([][]VertexID{{1}, {}})}
	if _, err := iw.BuildImage(); err == nil {
		t.Fatal("BuildImage accepted an unknown encoding")
	}
	if _, err := iw.WriteImage(io.Discard); err == nil {
		t.Fatal("WriteImage accepted an unknown encoding")
	}
	b := NewStreamBuilder(BuildConfig{NumV: 2, Encoding: bogus, TmpDir: t.TempDir()})
	if err := b.Add(Edge{Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteFile(filepath.Join(t.TempDir(), "x.fg")); err == nil {
		t.Fatal("StreamBuilder.WriteFile accepted an unknown encoding")
	}
}

func equalIDs(a, b []VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDeltaImageIsSmaller pins the point of the second layout: on an
// ID-sorted power-law graph the delta image must be meaningfully
// smaller than the raw image.
func TestDeltaImageIsSmaller(t *testing.T) {
	edges := testEdges(2000, 30000, 7)
	rawFile := buildFileEnc(t, edges, 2000, true, 0, nil, 1<<20, EncodingRaw)
	deltaFile := buildFileEnc(t, edges, 2000, true, 0, nil, 1<<20, EncodingDelta)
	rawImg, _ := Decode(bytes.NewReader(rawFile))
	deltaImg, err := Decode(bytes.NewReader(deltaFile))
	if err != nil {
		t.Fatal(err)
	}
	if deltaImg.DataSize() >= rawImg.DataSize()*3/4 {
		t.Fatalf("delta data %d bytes vs raw %d: want >= 25%% smaller", deltaImg.DataSize(), rawImg.DataSize())
	}
}

// TestPageVertexDeltaDecoder unit-tests the sequential varint decoder
// against a hand-assembled delta record: count, absolute first ID,
// gaps, then 4-byte attrs.
func TestPageVertexDeltaDecoder(t *testing.T) {
	ids := []VertexID{5, 5, 300, 70000, 70001}
	attrs := []uint32{10, 20, 30, 40, 50}
	var rec []byte
	rec = binary.AppendUvarint(rec, uint64(len(ids)))
	prev := VertexID(0)
	for i, u := range ids {
		if i == 0 {
			rec = binary.AppendUvarint(rec, uint64(u))
		} else {
			rec = binary.AppendUvarint(rec, uint64(u-prev))
		}
		prev = u
	}
	for _, a := range attrs {
		rec = binary.LittleEndian.AppendUint32(rec, a)
	}

	pv := NewPageVertexBytes(1, OutEdges, rec, 4, EncodingDelta)
	if pv.NumEdges() != len(ids) {
		t.Fatalf("NumEdges = %d, want %d", pv.NumEdges(), len(ids))
	}
	// Streaming form.
	if got := pv.Edges(nil, nil); !equalIDs(got, ids) {
		t.Fatalf("Edges = %v, want %v", got, ids)
	}
	// Ascending Edge(i) (cursor fast path).
	for i, want := range ids {
		if got := pv.Edge(i); got != want {
			t.Fatalf("Edge(%d) = %d, want %d", i, got, want)
		}
	}
	// Random access, including cursor rewinds.
	for _, i := range []int{4, 0, 2, 2, 1, 3, 0, 4} {
		if got := pv.Edge(i); got != ids[i] {
			t.Fatalf("Edge(%d) = %d, want %d", i, got, ids[i])
		}
	}
	// Attrs are O(1) positioned from the record tail.
	for i, want := range attrs {
		if got := pv.AttrUint32(i); got != want {
			t.Fatalf("AttrUint32(%d) = %d, want %d", i, got, want)
		}
	}

	// Empty record: a single zero-count varint byte.
	empty := NewPageVertexBytes(2, OutEdges, []byte{0}, 0, EncodingDelta)
	if empty.NumEdges() != 0 || len(empty.Edges(nil, nil)) != 0 {
		t.Fatal("empty delta record must decode to zero edges")
	}
}

// TestPageVertexRawRejectsCorruptCount: a raw record's length is a pure
// function of its count, so a count that does not match the record's
// extent is corruption and must panic in the record-corruption idiom —
// on a weighted image a smaller count would otherwise decode cleanly
// and read neighbor bytes as weights.
func TestPageVertexRawRejectsCorruptCount(t *testing.T) {
	attr := func(src, dst VertexID, buf []byte) { binary.LittleEndian.PutUint32(buf, 7) }
	adj := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}}, true)
	img := BuildImage(adj, 4, attr) // RAM-built: no checksum trailer to catch the flip
	off, size := img.OutIndex.Locate(0)
	rec := append([]byte(nil), img.OutData[off:off+size]...)

	good := NewPageVertexBytes(0, OutEdges, rec, 4, EncodingRaw)
	if got := good.Edges(nil, nil); !equalIDs(got, []VertexID{1, 2, 3}) || good.AttrUint32(2) != 7 {
		t.Fatalf("intact record decoded %v / weight %d", got, good.AttrUint32(2))
	}
	for _, cnt := range []uint32{2, 4, 1 << 30} {
		binary.LittleEndian.PutUint32(rec, cnt)
		var got []VertexID
		msg := func() (msg string) {
			defer func() { msg, _ = recover().(string) }()
			pv := NewPageVertexBytes(0, OutEdges, rec, 4, EncodingRaw)
			got = pv.Edges(nil, nil)
			return ""
		}()
		if !strings.HasPrefix(msg, "graph: corrupt edge count") {
			t.Fatalf("count %d in a 3-edge record: decoded %v, panic %q; want the corrupt-edge-count panic", cnt, got, msg)
		}
	}
}

// TestReencodeBadInputIsAnError: host files are outside input, so the
// re-encode path (EncodeAs, fg-convert -reencode) must answer a
// truncated file, a corrupt record, a record whose count disagrees
// with the index, and a block row the image does not have with an
// error — never a panic, never a wrong image.
func TestReencodeBadInputIsAnError(t *testing.T) {
	reencode := func(enc Encoding, name string, data []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "bad.fg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fb, err := OpenImageFile(path)
		if err != nil {
			return // rejected even earlier
		}
		defer fb.Close()
		for _, target := range []Encoding{EncodingRaw, EncodingDelta, EncodingBlock} {
			err := fb.EncodeAs(io.Discard, target)
			if err == nil {
				t.Errorf("%s image, %s: re-encoded to %s without error", enc, name, target)
			} else if !strings.HasPrefix(err.Error(), "graph:") {
				t.Errorf("%s image, %s, to %s: error %q does not name the graph package", enc, name, target, err)
			}
		}
	}
	for _, enc := range []Encoding{EncodingRaw, EncodingDelta} {
		file := buildFileEnc(t, testEdges(300, 2000, 11), 300, true, 0, nil, 1<<20, enc)
		img, err := Decode(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		dataOff := len(file) - trailerLen(img) - int(img.DataSize())
		hub := VertexID(0) // any vertex whose count is one byte and can drop by one
		for d := img.OutIndex.Degree(hub); d < 2 || d > 127; d = img.OutIndex.Degree(hub) {
			hub++
		}
		recOff, _ := img.OutIndex.Locate(hub)

		reencode(enc, "truncated mid-data", file[:dataOff+int(img.OutIndex.FileSize())/2])

		// The hub's count drops by one: still a well-formed delta record
		// (raw rejects it by length), but not the degree the index holds.
		fewer := append([]byte(nil), file...)
		fewer[dataOff+int(recOff)]--
		reencode(enc, "count below the index degree", fewer)

		poisoned := append([]byte(nil), file...)
		for i := 0; i < 4; i++ {
			poisoned[dataOff+int(recOff)+i] ^= 0xFF
		}
		reencode(enc, "poisoned record header", poisoned)
	}

	// A block image has no per-vertex record to poison. Its hazard is a
	// row the grid admits (below the stripe's 2^16 span) that the image
	// does not have: 100 vertices are one partial stripe, and the first
	// row delta of block (0,0) — the byte after its one-byte row count —
	// moves every row of the block past vertex 99.
	file := buildFileEnc(t, testEdges(100, 600, 11), 100, true, 0, nil, 1<<20, EncodingBlock)
	img, err := Decode(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	dataOff := len(file) - trailerLen(img) - int(img.DataSize())
	if rows := file[dataOff]; rows == 0 || rows > 100 || file[dataOff+1] != 0 {
		t.Fatalf("block (0,0) starts % x, want a one-byte row count then row delta 0", file[dataOff:dataOff+2])
	}
	beyond := append([]byte(nil), file...)
	beyond[dataOff+1] = 127
	reencode(EncodingBlock, "row beyond the last vertex", beyond)
}

// TestOpenImageFileV2SkipsDataScan proves the O(index) open: a v2
// container whose data section is corrupted still opens (the indexes
// come from the persisted arrays, so no record header is read), while
// actually reading the poisoned record fails loudly at decode time.
func TestOpenImageFileV2SkipsDataScan(t *testing.T) {
	edges := testEdges(300, 2000, 11)
	file := buildFileEnc(t, edges, 300, true, 0, nil, 1<<20, EncodingRaw)

	// Locate the data section and poison the first record header.
	img, err := Decode(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	dataOff := int64(len(file)) - img.DataSize()
	poisoned := append([]byte(nil), file...)
	for i := 0; i < 4; i++ {
		poisoned[dataOff+int64(i)] ^= 0xFF
	}
	path := filepath.Join(t.TempDir(), "poisoned.fg")
	if err := os.WriteFile(path, poisoned, 0o644); err != nil {
		t.Fatal(err)
	}

	fb, err := OpenImageFile(path)
	if err != nil {
		t.Fatalf("v2 open touched the data section: %v", err)
	}
	defer fb.Close()
	if fb.OutIndex.NumEdges() != img.OutIndex.NumEdges() {
		t.Fatal("persisted index does not match the scanned one")
	}
}

// TestV1FixtureRegression holds both readers to rejecting the byte-frozen
// v1 container checked into testdata (written by the pre-bump encoder,
// which no tool has shipped since PR 5) by name: a typed "unsupported
// container version" error quoting the magic, not "bad magic" and not a
// misparse of its 45-byte header as a v2 one.
func TestV1FixtureRegression(t *testing.T) {
	const fixture = "testdata/v1-directed-weighted.fgimg"
	rejected := func(t *testing.T, img *Image, err error) {
		t.Helper()
		if img != nil || !errors.Is(err, ErrUnsupportedContainer) || !strings.Contains(err.Error(), imageMagicV1) {
			t.Fatalf("v1 container: image %v, err %v; want ErrUnsupportedContainer naming %q", img != nil, err, imageMagicV1)
		}
	}
	t.Run("decode", func(t *testing.T) {
		raw, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		img, err := Decode(bytes.NewReader(raw))
		rejected(t, img, err)
	})
	t.Run("openfile", func(t *testing.T) {
		img, err := OpenImageFile(fixture)
		rejected(t, img, err)
	})
}
