package graph

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"flashgraph/internal/util"
)

func TestRecordSize(t *testing.T) {
	if RecordSize(0, 0) != 4 {
		t.Fatalf("empty record = %d, want 4 (header)", RecordSize(0, 0))
	}
	if RecordSize(3, 0) != 16 {
		t.Fatalf("3 edges = %d, want 16", RecordSize(3, 0))
	}
	if RecordSize(3, 4) != 28 {
		t.Fatalf("3 edges + 4B attrs = %d, want 28", RecordSize(3, 4))
	}
}

func TestIndexExactOffsets(t *testing.T) {
	// The index must reproduce exactly the offsets a full table would.
	degrees := []uint32{0, 5, 300, 1, 254, 255, 256, 2, 0, 7}
	for len(degrees) < 100 {
		degrees = append(degrees, uint32(len(degrees)%9))
	}
	ix := BuildIndexSized(degrees, nil, 0, EncodingRaw)
	off := int64(0)
	for v, d := range degrees {
		gotOff, gotSize := ix.Locate(VertexID(v))
		if gotOff != off {
			t.Fatalf("vertex %d: offset = %d, want %d", v, gotOff, off)
		}
		if gotSize != RecordSize(d, 0) {
			t.Fatalf("vertex %d: size = %d, want %d", v, gotSize, RecordSize(d, 0))
		}
		if ix.Degree(VertexID(v)) != d {
			t.Fatalf("vertex %d: degree = %d, want %d", v, ix.Degree(VertexID(v)), d)
		}
		off += RecordSize(d, 0)
	}
	if ix.FileSize() != off {
		t.Fatalf("FileSize = %d, want %d", ix.FileSize(), off)
	}
}

func TestIndexLargeDegreesInHashTable(t *testing.T) {
	degrees := []uint32{10, 255, 1000, 254, 100000}
	ix := BuildIndexSized(degrees, nil, 0, EncodingRaw)
	if ix.LargeVertices() != 3 {
		t.Fatalf("large vertices = %d, want 3 (255, 1000, 100000)", ix.LargeVertices())
	}
	for v, d := range degrees {
		if ix.Degree(VertexID(v)) != d {
			t.Fatalf("degree(%d) = %d, want %d", v, ix.Degree(VertexID(v)), d)
		}
	}
}

func TestIndexQuickMatchesExact(t *testing.T) {
	// Property: for arbitrary degree sequences and attr sizes, Locate
	// matches a straightforward prefix-sum table.
	prop := func(raw []uint16, attrChoice bool) bool {
		if len(raw) == 0 {
			return true
		}
		attrSize := 0
		if attrChoice {
			attrSize = 8
		}
		degrees := make([]uint32, len(raw))
		for i, r := range raw {
			degrees[i] = uint32(r) % 600 // mixes small and large (>=255)
		}
		ix := BuildIndexSized(degrees, nil, attrSize, EncodingRaw)
		off := int64(0)
		for v, d := range degrees {
			gotOff, gotSize := ix.Locate(VertexID(v))
			if gotOff != off || gotSize != RecordSize(d, attrSize) {
				return false
			}
			off += RecordSize(d, attrSize)
		}
		return ix.FileSize() == off
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexMemoryFootprintCompact(t *testing.T) {
	// Power-law-ish degrees: footprint should be well under the naive
	// 12 bytes/vertex the paper cites for full (offset, size) tables.
	n := 100000
	degrees := make([]uint32, n)
	r := util.NewRNG(1)
	for i := range degrees {
		degrees[i] = uint32(r.Intn(20))
	}
	degrees[5] = 100000 // one hub
	ix := BuildIndexSized(degrees, nil, 0, EncodingRaw)
	perVertex := float64(ix.MemoryFootprint()) / float64(n)
	if perVertex > 2.0 {
		t.Fatalf("index uses %.2f B/vertex, want < 2 (paper: ~1.25)", perVertex)
	}
}

func smallAdj(t *testing.T) *Adjacency {
	t.Helper()
	edges := []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 0}, {2, 4}}
	return FromEdges(5, edges, true)
}

func TestFromEdgesDirected(t *testing.T) {
	a := smallAdj(t)
	wantOut := [][]VertexID{{1, 2}, {2}, {0, 4}, {0}, nil}
	wantIn := [][]VertexID{{2, 3}, {0}, {0, 1}, nil, {2}}
	for v := 0; v < 5; v++ {
		if len(a.Out[v]) != len(wantOut[v]) {
			t.Fatalf("out[%d] = %v, want %v", v, a.Out[v], wantOut[v])
		}
		for i := range wantOut[v] {
			if a.Out[v][i] != wantOut[v][i] {
				t.Fatalf("out[%d] = %v, want %v", v, a.Out[v], wantOut[v])
			}
		}
		if len(a.In[v]) != len(wantIn[v]) {
			t.Fatalf("in[%d] = %v, want %v", v, a.In[v], wantIn[v])
		}
		for i := range wantIn[v] {
			if a.In[v][i] != wantIn[v][i] {
				t.Fatalf("in[%d] = %v, want %v", v, a.In[v], wantIn[v])
			}
		}
	}
}

func TestFromEdgesUndirected(t *testing.T) {
	a := FromEdges(3, []Edge{{0, 1}, {1, 2}}, false)
	if a.In != nil {
		t.Fatal("undirected graph must not have In lists")
	}
	if len(a.Out[1]) != 2 || a.Out[1][0] != 0 || a.Out[1][1] != 2 {
		t.Fatalf("out[1] = %v", a.Out[1])
	}
}

func TestDedup(t *testing.T) {
	a := FromEdges(3, []Edge{{0, 1}, {0, 1}, {0, 0}, {0, 2}}, true)
	a.Dedup()
	if len(a.Out[0]) != 2 {
		t.Fatalf("out[0] = %v, want [1 2]", a.Out[0])
	}
}

func TestBuildImageRoundTripDecode(t *testing.T) {
	a := smallAdj(t)
	img := BuildImage(a, 0, nil)
	if img.NumEdges != 6 {
		t.Fatalf("NumEdges = %d, want 6", img.NumEdges)
	}
	// Decode every vertex's out record via the index.
	for v := 0; v < a.N; v++ {
		off, size := img.OutIndex.Locate(VertexID(v))
		pv := NewPageVertexBytes(VertexID(v), OutEdges, img.OutData[off:off+size], 0, img.Encoding)
		got := pv.Edges(nil, nil)
		if len(got) != len(a.Out[v]) {
			t.Fatalf("vertex %d: edges = %v, want %v", v, got, a.Out[v])
		}
		for i := range got {
			if got[i] != a.Out[v][i] {
				t.Fatalf("vertex %d: edges = %v, want %v", v, got, a.Out[v])
			}
		}
	}
	// And the in records.
	for v := 0; v < a.N; v++ {
		off, size := img.InIndex.Locate(VertexID(v))
		pv := NewPageVertexBytes(VertexID(v), InEdges, img.InData[off:off+size], 0, img.Encoding)
		got := pv.Edges(nil, nil)
		if len(got) != len(a.In[v]) {
			t.Fatalf("vertex %d: in-edges = %v, want %v", v, got, a.In[v])
		}
	}
}

func TestBuildImageWithAttrs(t *testing.T) {
	a := smallAdj(t)
	attr := func(src, dst VertexID, buf []byte) {
		binary.LittleEndian.PutUint32(buf, uint32(src)*100+uint32(dst))
	}
	img := BuildImage(a, 4, attr)
	off, size := img.OutIndex.Locate(0)
	pv := NewPageVertexBytes(0, OutEdges, img.OutData[off:off+size], 4, img.Encoding)
	if pv.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", pv.NumEdges())
	}
	// Edges of 0 are [1, 2]; attrs are 001 and 002.
	if got := pv.AttrUint32(0); got != 1 {
		t.Fatalf("attr 0 = %d, want 1", got)
	}
	if got := pv.AttrUint32(1); got != 2 {
		t.Fatalf("attr 1 = %d, want 2", got)
	}
	// In-edge attrs must describe the same (src, dst) pair: in-record of
	// vertex 2 lists sources [0, 1] with attrs 002, 102.
	off, size = img.InIndex.Locate(2)
	ipv := NewPageVertexBytes(2, InEdges, img.InData[off:off+size], 4, img.Encoding)
	if got := ipv.AttrUint32(0); got != 2 {
		t.Fatalf("in attr 0 = %d, want 2", got)
	}
	if got := ipv.AttrUint32(1); got != 102 {
		t.Fatalf("in attr 1 = %d, want 102", got)
	}
}

func TestImageSerializationRoundTrip(t *testing.T) {
	a := smallAdj(t)
	img := BuildImage(a, 0, nil)
	var buf bytes.Buffer
	if err := img.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumV != img.NumV || got.NumEdges != img.NumEdges || got.Directed != img.Directed {
		t.Fatalf("header mismatch: %+v vs %+v", got, img)
	}
	if !bytes.Equal(got.OutData, img.OutData) || !bytes.Equal(got.InData, img.InData) {
		t.Fatal("edge data mismatch")
	}
	// Rebuilt index must agree.
	for v := 0; v < img.NumV; v++ {
		o1, s1 := img.OutIndex.Locate(VertexID(v))
		o2, s2 := got.OutIndex.Locate(VertexID(v))
		if o1 != o2 || s1 != s2 {
			t.Fatalf("vertex %d: rebuilt index (%d,%d) vs (%d,%d)", v, o2, s2, o1, s1)
		}
	}
}

func TestReadFromRejectsBadMagic(t *testing.T) {
	if _, err := Decode(strings.NewReader("NOTMAGIC-and-more-bytes")); err == nil {
		t.Fatal("expected magic error")
	}
}

func TestImageQuickRoundTrip(t *testing.T) {
	prop := func(rawEdges []uint32, directed bool) bool {
		const n = 64
		var edges []Edge
		for i := 0; i+1 < len(rawEdges); i += 2 {
			edges = append(edges, Edge{rawEdges[i] % n, rawEdges[i+1] % n})
		}
		a := FromEdges(n, edges, directed)
		img := BuildImage(a, 0, nil)
		var buf bytes.Buffer
		if err := img.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if got.OutIndex.Degree(VertexID(v)) != uint32(len(a.Out[v])) {
				return false
			}
		}
		return bytes.Equal(got.OutData, img.OutData)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParseEdgeList(t *testing.T) {
	in := "# comment\n0 1\n1 2\n\n% another\n2 0\n"
	edges, n, err := ParseEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(edges) != 3 {
		t.Fatalf("n=%d edges=%v", n, edges)
	}
	if edges[0] != (Edge{0, 1}) || edges[2] != (Edge{2, 0}) {
		t.Fatalf("edges = %v", edges)
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	if _, _, err := ParseEdgeList(strings.NewReader("0\n")); err == nil {
		t.Fatal("expected error on single-field line")
	}
	if _, _, err := ParseEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("expected error on non-numeric")
	}
	edges, n, err := ParseEdgeList(strings.NewReader(""))
	if err != nil || n != 0 || len(edges) != 0 {
		t.Fatalf("empty input: %v %d %v", edges, n, err)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	edges := []Edge{{0, 5}, {5, 3}, {2, 2}}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, edges); err != nil {
		t.Fatal(err)
	}
	got, n, err := ParseEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 || len(got) != 3 {
		t.Fatalf("n=%d got=%v", n, got)
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Fatalf("got %v want %v", got, edges)
		}
	}
}

func TestPageVertexEdgeAccessors(t *testing.T) {
	a := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}}, true)
	img := BuildImage(a, 0, nil)
	off, size := img.OutIndex.Locate(0)
	pv := NewPageVertexBytes(0, OutEdges, img.OutData[off:off+size], 0, img.Encoding)
	if pv.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d", pv.NumEdges())
	}
	for i, want := range []VertexID{1, 2, 3} {
		if pv.Edge(i) != want {
			t.Fatalf("Edge(%d) = %d, want %d", i, pv.Edge(i), want)
		}
	}
}
