package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"flashgraph/internal/util"
)

// fixtureFingerprint is the recorded content fingerprint of the checked-
// in v2 delta fixture. It pins two compatibility surfaces at once: the
// v2 container bytes (the fixture must keep decoding) and fingerprint
// byte-stability (index-representation changes, like the packed pair
// compaction, must not move the hash — cached results key on it). The
// recorded value moves only when Fingerprint's definition does (last:
// the data component became the per-extent CRC32C table).
const fixtureFingerprint = "a9a0c44b0b6fb305"

// fixtureAdjacency builds the fixture graph deterministically from
// arithmetic (no RNG, so the fixture is regenerable bit-identically):
// 600 vertices, small cyclic out-degrees, plus vertex 5 as a degree-400
// hub whose degree byte and record-size byte both spill past the 255
// sentinels.
func fixtureAdjacency() *Adjacency {
	const n = 600
	var edges []Edge
	for v := 0; v < n; v++ {
		d := v % 7
		if v == 5 {
			d = 400
		}
		for i := 0; i < d; i++ {
			edges = append(edges, Edge{Src: VertexID(v), Dst: VertexID((v*31 + i*17 + 7) % n)})
		}
	}
	a := FromEdges(n, edges, true)
	a.Dedup()
	return a
}

// fixtureDeltaBytes encodes the fixture graph as a v2 delta container.
func fixtureDeltaBytes(t *testing.T) []byte {
	t.Helper()
	img := BuildImage(fixtureAdjacency(), 0, nil)
	var buf bytes.Buffer
	if err := img.EncodeAs(&buf, EncodingDelta); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const fixturePath = "testdata/v2-directed-delta.fgimg"

// TestRegenV2DeltaFixture rewrites the fixture from the deterministic
// builder. It only runs when explicitly requested:
//
//	REGEN_FIXTURE=1 go test -run TestRegenV2DeltaFixture ./internal/graph
func TestRegenV2DeltaFixture(t *testing.T) {
	if os.Getenv("REGEN_FIXTURE") == "" {
		t.Skip("set REGEN_FIXTURE=1 to rewrite the fixture")
	}
	data := fixtureDeltaBytes(t)
	if err := os.WriteFile(fixturePath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	img, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %d bytes, fingerprint %s", fixturePath, len(data), img.Fingerprint())
}

// TestV2DeltaFixture is the compatibility gate over the checked-in v2
// delta container: today's encoder must reproduce it bit-identically,
// today's decoders (RAM and file-backed) must open it, its fingerprint
// must equal the recorded constant, and the rebuilt compact index must
// agree with the decoded edge lists — including the hub vertex that
// lives in both large-vertex hash tables.
func TestV2DeltaFixture(t *testing.T) {
	want, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("missing fixture (run TestRegenV2DeltaFixture with REGEN_FIXTURE=1): %v", err)
	}
	if got := fixtureDeltaBytes(t); !bytes.Equal(got, want) {
		t.Fatalf("encoder no longer reproduces the v2 fixture (len %d vs %d)", len(got), len(want))
	}

	img, err := Decode(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if fp := img.Fingerprint(); fp != fixtureFingerprint {
		t.Fatalf("fingerprint drifted: %s, recorded %s", fp, fixtureFingerprint)
	}

	// File-backed open must agree byte-for-byte on identity.
	path := filepath.Join(t.TempDir(), "fixture.fgimg")
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	fimg, err := OpenImageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fimg.Close()
	if fp := fimg.Fingerprint(); fp != fixtureFingerprint {
		t.Fatalf("file-backed fingerprint drifted: %s", fp)
	}

	// Cross-check the rebuilt index and record decode against the
	// adjacency the fixture was built from.
	adj := fixtureAdjacency()
	if img.NumV != adj.N {
		t.Fatalf("NumV = %d, want %d", img.NumV, adj.N)
	}
	var dst []VertexID
	var scratch [64]byte
	for _, v := range []VertexID{0, 5, 31, 255, 599} {
		if got, want := img.OutIndex.Degree(v), uint32(len(adj.Out[v])); got != want {
			t.Fatalf("vertex %d: degree %d, want %d", v, got, want)
		}
		off, size := img.OutIndex.Locate(v)
		if rb := img.OutIndex.RecordBytes(v); rb != size {
			t.Fatalf("vertex %d: RecordBytes %d != Locate size %d", v, rb, size)
		}
		pv := NewPageVertexBytes(v, OutEdges, img.OutData[off:off+size], 0, EncodingDelta)
		dst = pv.Edges(dst, scratch[:])
		if len(dst) != len(adj.Out[v]) {
			t.Fatalf("vertex %d: decoded %d edges, want %d", v, len(dst), len(adj.Out[v]))
		}
		for i, u := range adj.Out[v] {
			if dst[i] != u {
				t.Fatalf("vertex %d: edge %d = %d, want %d", v, i, dst[i], u)
			}
		}
	}
	// The hub's spills must actually exercise both hash tables.
	if img.OutIndex.LargeVertices() == 0 {
		t.Fatal("fixture lost its large-vertex hash-table residents")
	}
}

// TestFingerprintCoversAllData: two images with the same shape and
// degree sequence that differ in one byte far from both ends of the
// edge data must not share an identity (the result cache keys on it),
// whether the per-extent sums come from a checksum trailer or from a
// pass over trailer-less data; every way of opening the same bytes
// agrees.
func TestFingerprintCoversAllData(t *testing.T) {
	const n, deg = 40000, 4 // 20-byte raw records: 800 KB of edge data
	ring := func(twist VertexID) *Image {
		lists := make([][]VertexID, n)
		for v := range lists {
			for i := 1; i <= deg; i++ {
				lists[v] = append(lists[v], VertexID((v+i)%n))
			}
		}
		lists[n/2][deg-1] += twist
		return BuildImage(&Adjacency{N: n, Out: lists}, 0, nil)
	}
	a, b := ring(0), ring(1)
	if mid := a.OutIndex.FileSize() / 2; mid < 256<<10+4096 {
		t.Fatalf("edge data too small (%d bytes) for a mid-file difference", a.OutIndex.FileSize())
	}
	if a.OutSums != nil {
		t.Fatal("RAM-built image unexpectedly carries persisted sums")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("trailer-less images differing mid-file share a fingerprint")
	}

	dir := t.TempDir()
	open := func(img *Image, name string) (ram, file *Image) {
		var buf bytes.Buffer
		if err := img.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		ram, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		file, err = OpenImageFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { file.Close() })
		if ram.OutSums == nil || file.OutSums == nil {
			t.Fatal("encoded image lost its checksum trailer")
		}
		return ram, file
	}
	aRAM, aFile := open(a, "a.fg")
	bRAM, _ := open(b, "b.fg")
	if aRAM.Fingerprint() == bRAM.Fingerprint() {
		t.Fatal("trailer-carrying images differing mid-file share a fingerprint")
	}
	if fp := a.Fingerprint(); aRAM.Fingerprint() != fp || aFile.Fingerprint() != fp {
		t.Fatalf("one image, three identities: built %s, decoded %s, file-backed %s",
			fp, aRAM.Fingerprint(), aFile.Fingerprint())
	}
}

// rmatAdjacency draws a 2^scale-vertex, edgesPerVertex-per-vertex R-MAT
// graph (the quadrant probabilities internal/gen uses; that package
// imports this one, so the decoder tests carry their own few lines of
// it). Its rows are what the varint kernel is sized on: a few hub rows
// of dense, single-byte gaps and a long tail of short rows whose gaps
// take two bytes as often as one.
func rmatAdjacency(scale, edgesPerVertex int, seed uint64) *Adjacency {
	return FromEdges(1<<scale, rmatEdges(scale, edgesPerVertex, seed), true)
}

// rmatEdges is rmatAdjacency's edge stream, in generation order.
func rmatEdges(scale, edgesPerVertex int, seed uint64) []Edge {
	n := 1 << scale
	r := util.NewRNG(seed)
	edges := make([]Edge, 0, n*edgesPerVertex)
	for i := 0; i < n*edgesPerVertex; i++ {
		var src, dst VertexID
		for lvl := 0; lvl < scale; lvl++ {
			switch p := r.Float64(); {
			case p < 0.57:
			case p < 0.76:
				dst |= 1 << lvl
			case p < 0.95:
				src |= 1 << lvl
			default:
				src |= 1 << lvl
				dst |= 1 << lvl
			}
		}
		edges = append(edges, Edge{Src: src, Dst: dst})
	}
	return edges
}

// encodedAs re-encodes img into enc through the container round trip.
func encodedAs(tb testing.TB, img *Image, enc Encoding) *Image {
	tb.Helper()
	if enc == img.Encoding {
		return img
	}
	var buf bytes.Buffer
	if err := img.EncodeAs(&buf, enc); err != nil {
		tb.Fatal(err)
	}
	out, err := Decode(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}
