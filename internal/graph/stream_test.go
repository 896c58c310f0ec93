package graph

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
	"flashgraph/internal/util"
)

// ---------------------------------------------------------------------------
// Legacy reference encoder: a verbatim copy of the seed's fully
// in-memory path (encodeLists + BuildImage + Encode). It exists ONLY
// here, as the oracle the streaming pipeline must match byte for byte.
// ---------------------------------------------------------------------------

func legacyEncodeLists(lists [][]VertexID, n int, attrSize int, src bool, attr AttrFunc) ([]byte, []uint32) {
	degrees := make([]uint32, n)
	var total int64
	for v := 0; v < n; v++ {
		degrees[v] = uint32(len(lists[v]))
		total += RecordSize(degrees[v], attrSize)
	}
	data := make([]byte, total)
	off := 0
	for v := 0; v < n; v++ {
		binary.LittleEndian.PutUint32(data[off:], degrees[v])
		off += headerSize
		for _, u := range lists[v] {
			binary.LittleEndian.PutUint32(data[off:], u)
			off += edgeSize
		}
		if attrSize > 0 {
			for _, u := range lists[v] {
				if attr != nil {
					if src {
						attr(VertexID(v), u, data[off:off+attrSize])
					} else {
						attr(u, VertexID(v), data[off:off+attrSize])
					}
				}
				off += attrSize
			}
		}
	}
	return data, degrees
}

func legacyBuildImage(a *Adjacency, attrSize int, attr AttrFunc) *Image {
	img := &Image{Directed: a.Directed, NumV: a.N, AttrSize: attrSize}
	outData, outDeg := legacyEncodeLists(a.Out, a.N, attrSize, true, attr)
	img.OutData = outData
	img.OutIndex = BuildIndexSized(outDeg, nil, attrSize, EncodingRaw)
	if a.Directed {
		inData, inDeg := legacyEncodeLists(a.In, a.N, attrSize, false, attr)
		img.InData = inData
		img.InIndex = BuildIndexSized(inDeg, nil, attrSize, EncodingRaw)
		img.NumEdges = img.OutIndex.NumEdges()
	} else {
		img.NumEdges = img.OutIndex.NumEdges() / 2
	}
	return img
}

// legacyEncodeContainer assembles the v2 container independently of the
// production writer: fixed header, per-direction degree arrays, then
// the raw data slices produced by the seed's legacy record encoder. The
// record layout predates the container bump, so the oracle property —
// streaming and in-memory paths produce identical bytes — survives it.
func legacyEncodeContainer(img *Image) []byte {
	var buf bytes.Buffer
	buf.WriteString(imageMagicV2)
	var flags uint8
	if img.Directed {
		flags = 1
	}
	for _, f := range []interface{}{
		flags, uint8(EncodingRaw), uint32(img.AttrSize), uint64(img.NumV), uint64(img.NumEdges),
		uint64(len(img.OutData)), uint64(len(img.InData)),
	} {
		binary.Write(&buf, binary.LittleEndian, f)
	}
	writeDegrees := func(ix *Index) {
		for v := 0; v < img.NumV; v++ {
			binary.Write(&buf, binary.LittleEndian, ix.Degree(VertexID(v)))
		}
	}
	writeDegrees(img.OutIndex)
	if img.Directed {
		writeDegrees(img.InIndex)
	}
	buf.Write(img.OutData)
	buf.Write(img.InData)
	var inSums []uint32
	if img.Directed {
		inSums = ChecksumData(img.InData)
	}
	if err := writeChecksumTrailer(&buf, ChecksumData(img.OutData), inSums); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// testEdges generates a reproducible messy edge list: power-law-ish,
// with duplicates, self-loops, isolated vertices, and one hub whose
// degree lands in the index hash table (>= 255).
func testEdges(n, m int, seed uint64) []Edge {
	r := util.NewRNG(seed)
	edges := make([]Edge, 0, m+300)
	for i := 0; i < m; i++ {
		src := VertexID(r.Intn(n))
		dst := VertexID(r.Intn(n))
		if r.Intn(20) == 0 {
			dst = src // inject self-loops
		}
		edges = append(edges, Edge{Src: src, Dst: dst})
		if r.Intn(10) == 0 {
			edges = append(edges, Edge{Src: src, Dst: dst}) // inject dupes
		}
	}
	// A hub with degree >= 255 exercises the large-degree hash table.
	for i := 0; i < 300; i++ {
		edges = append(edges, Edge{Src: 7, Dst: VertexID(8 + i%(n-8))})
	}
	return edges
}

// streamBuild runs the full out-of-core path (StreamBuilder with a
// budget that forces spills, WriteFile, reopen) and returns the file
// bytes plus stats.
func streamBuild(t *testing.T, edges []Edge, n int, directed bool, attrSize int, attr AttrFunc, memBytes int64, keepDupes bool) ([]byte, *BuildStats) {
	t.Helper()
	dir := t.TempDir()
	b := NewStreamBuilder(BuildConfig{
		NumV: n, Directed: directed, AttrSize: attrSize, Attr: attr,
		MemBytes: memBytes, TmpDir: dir, KeepDupes: keepDupes,
	})
	for _, e := range edges {
		if err := b.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "img.fg")
	st, err := b.WriteFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, st
}

func TestStreamingMatchesLegacyBitForBit(t *testing.T) {
	attr := func(src, dst VertexID, buf []byte) {
		binary.LittleEndian.PutUint32(buf, uint32(src)*31+uint32(dst))
	}
	// Attributes wider than any fixed scratch buffer (regression: the
	// encoder must size its attr scratch from attrSize, not a cap).
	wideAttr := func(src, dst VertexID, buf []byte) {
		for i := range buf {
			buf[i] = byte(uint32(src) + uint32(dst)*3 + uint32(i))
		}
	}
	cases := []struct {
		name     string
		directed bool
		attrSize int
		attr     AttrFunc
	}{
		{"directed", true, 0, nil},
		{"undirected", false, 0, nil},
		{"weighted-directed", true, 4, attr},
		{"weighted-undirected", false, 4, attr},
		{"wide-attrs", true, 96, wideAttr},
	}
	const n, m = 700, 6000
	edges := testEdges(n, m, 42)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Legacy oracle: adjacency + dedup + in-memory encode.
			a := FromEdges(n, edges, tc.directed)
			a.Dedup()
			want := legacyBuildImage(a, tc.attrSize, tc.attr)
			wantFile := legacyEncodeContainer(want)

			// Streaming path, 64KiB budget → guaranteed multi-run spills.
			gotFile, st := streamBuild(t, edges, n, tc.directed, tc.attrSize, tc.attr, 64<<10, false)
			if st.Spills < 2 {
				t.Fatalf("spills = %d; budget failed to force external sorting", st.Spills)
			}
			if !bytes.Equal(gotFile, wantFile) {
				t.Fatalf("file bytes differ: streaming %d bytes (fnv %x) vs legacy %d bytes (fnv %x)",
					len(gotFile), fnvSum(gotFile), len(wantFile), fnvSum(wantFile))
			}

			// BuildImage (the wrapper) must also match the legacy encoder.
			viaWrapper := BuildImage(a, tc.attrSize, tc.attr)
			if !bytes.Equal(viaWrapper.OutData, want.OutData) || !bytes.Equal(viaWrapper.InData, want.InData) {
				t.Fatal("BuildImage wrapper diverges from legacy encoder")
			}
			if viaWrapper.NumEdges != want.NumEdges {
				t.Fatalf("NumEdges = %d, want %d", viaWrapper.NumEdges, want.NumEdges)
			}

			// Image.Encode (the other wrapper) must reproduce the legacy
			// container exactly.
			var enc bytes.Buffer
			if err := viaWrapper.Encode(&enc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc.Bytes(), wantFile) {
				t.Fatal("Image.Encode diverges from legacy container bytes")
			}
		})
	}
}

func TestStreamingEmptyVerticesAndGaps(t *testing.T) {
	// Vertices 0, 3, 9 have edges; everything else is empty, including
	// a trailing run of edgeless vertices.
	edges := []Edge{{0, 3}, {3, 9}, {9, 0}}
	const n = 16
	a := FromEdges(n, edges, true)
	a.Dedup()
	want := legacyEncodeContainer(legacyBuildImage(a, 0, nil))
	got, _ := streamBuild(t, edges, n, true, 0, nil, 1<<20, false)
	if !bytes.Equal(got, want) {
		t.Fatal("gap handling diverges from legacy encoder")
	}
}

func TestStreamingKeepDupes(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 1}, {2, 2}, {1, 0}}
	const n = 3
	a := FromEdges(n, edges, true) // no Dedup
	want := legacyEncodeContainer(legacyBuildImage(a, 0, nil))
	got, _ := streamBuild(t, edges, n, true, 0, nil, 1<<20, true)
	if !bytes.Equal(got, want) {
		t.Fatal("keep-dupes build diverges from legacy encoder")
	}
}

func TestOpenImageFileIndexOnly(t *testing.T) {
	const n, m = 500, 4000
	edges := testEdges(n, m, 9)
	raw, _ := streamBuild(t, edges, n, true, 0, nil, 1<<20, false)
	dir := t.TempDir()
	path := filepath.Join(dir, "img.fg")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	img, err := OpenImageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	if !img.FileBacked() {
		t.Fatal("OpenImageFile image must report FileBacked")
	}
	if img.OutData != nil || img.InData != nil {
		t.Fatal("file-backed image must not materialize edge data")
	}

	// Indexes must agree exactly with the decoded (in-RAM) image.
	dec, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if img.NumV != dec.NumV || img.NumEdges != dec.NumEdges || img.DataSize() != dec.DataSize() {
		t.Fatalf("metadata mismatch: %+v vs %+v", img, dec)
	}
	for v := 0; v < n; v++ {
		o1, s1 := img.OutIndex.Locate(VertexID(v))
		o2, s2 := dec.OutIndex.Locate(VertexID(v))
		if o1 != o2 || s1 != s2 {
			t.Fatalf("vertex %d: file-backed index (%d,%d) vs decoded (%d,%d)", v, o1, s1, o2, s2)
		}
	}

	// Encode of the file-backed image must reproduce the file exactly.
	var enc bytes.Buffer
	if err := img.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), raw) {
		t.Fatal("file-backed Encode diverges from the source file")
	}
}

func TestFileBackedLoadToFSStreamsBytes(t *testing.T) {
	const n, m = 300, 2500
	edges := testEdges(n, m, 77)
	raw, _ := streamBuild(t, edges, n, true, 0, nil, 1<<20, false)
	path := filepath.Join(t.TempDir(), "img.fg")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	img, err := OpenImageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer img.Close()
	dec, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	arr := ssd.NewArray(ssd.ArrayParams{Devices: 2})
	defer arr.Close()
	fs := safs.New(arr, safs.Config{CacheBytes: 1 << 20})
	files, err := img.LoadToFS(fs, "g")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, files.Out.Size())
	if err := files.Out.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, dec.OutData) {
		t.Fatal("file-backed LoadToFS wrote different out-edge bytes than the in-RAM image")
	}
	gotIn := make([]byte, files.In.Size())
	if err := files.In.ReadAt(gotIn, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotIn, dec.InData) {
		t.Fatal("file-backed LoadToFS wrote different in-edge bytes than the in-RAM image")
	}
}

func TestStreamBuilderInfersNumV(t *testing.T) {
	b := NewStreamBuilder(BuildConfig{Directed: true, TmpDir: t.TempDir()})
	for _, e := range []Edge{{0, 9}, {4, 2}} {
		if err := b.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	img, st, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if img.NumV != 10 || st.NumV != 10 {
		t.Fatalf("NumV = %d/%d, want 10 (max ID 9 + 1)", img.NumV, st.NumV)
	}
	if st.InputEdges != 2 || st.NumEdges != 2 {
		t.Fatalf("edges = %d in / %d stored, want 2/2", st.InputEdges, st.NumEdges)
	}
}

func TestStreamBuilderLargeDegreeHashTable(t *testing.T) {
	// One vertex with 400 out-neighbors: the streaming index must spill
	// it to the hash table exactly like the in-memory path.
	var edges []Edge
	for i := 1; i <= 400; i++ {
		edges = append(edges, Edge{Src: 0, Dst: VertexID(i)})
	}
	const n = 401
	a := FromEdges(n, edges, true)
	a.Dedup()
	want := legacyEncodeContainer(legacyBuildImage(a, 0, nil))
	got, _ := streamBuild(t, edges, n, true, 0, nil, 1<<20, false)
	if !bytes.Equal(got, want) {
		t.Fatal("hub graph diverges from legacy encoder")
	}
	img, err := Decode(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if img.OutIndex.LargeVertices() != 1 || img.OutIndex.Degree(0) != 400 {
		t.Fatalf("hub not in hash table: large=%d degree=%d", img.OutIndex.LargeVertices(), img.OutIndex.Degree(0))
	}
}
