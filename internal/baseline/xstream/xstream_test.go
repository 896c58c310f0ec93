package xstream

import (
	"math"
	"path/filepath"
	"sync/atomic"
	"testing"

	"flashgraph/internal/baseline/galois"
	"flashgraph/internal/csr"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
)

func setup(t *testing.T, scale, epv int, seed uint64) (*Engine, *csr.Graph, *safs.FS) {
	t.Helper()
	a := graph.FromEdges(1<<scale, gen.RMAT(scale, epv, seed), true)
	a.Dedup()
	img := graph.BuildImage(a, 0, nil)
	arr := ssd.NewArray(ssd.ArrayParams{Devices: 4, StripeSize: 64 * 4096})
	t.Cleanup(arr.Close)
	fs := safs.New(arr, safs.Config{CacheBytes: 1 << 20})
	e, err := New(img, fs, "xs", 4)
	if err != nil {
		t.Fatal(err)
	}
	return e, csr.FromAdjacency(a), fs
}

func TestEdgeFileComplete(t *testing.T) {
	e, ref, _ := setup(t, 9, 6, 1)
	if e.numEdges != ref.NumEdges() {
		t.Fatalf("edge file has %d edges, want %d", e.numEdges, ref.NumEdges())
	}
	var streamed int64 // callback batches run on parallel goroutines
	err := e.scanEdges(func(edges []graph.Edge) {
		for _, ed := range edges {
			if int(ed.Src) >= ref.N || int(ed.Dst) >= ref.N {
				t.Errorf("bad edge %v", ed)
			}
		}
		atomic.AddInt64(&streamed, int64(len(edges)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != e.numEdges {
		t.Fatalf("streamed %d, want %d", streamed, e.numEdges)
	}
}

func TestBFSMatchesGalois(t *testing.T) {
	e, ref, _ := setup(t, 9, 6, 2)
	got, err := e.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	want := galois.BFS(ref, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("level[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestBFSScansWholeGraphPerLevel(t *testing.T) {
	e, ref, _ := setup(t, 9, 6, 3)
	e.FullScans = 0
	if _, err := e.BFS(0); err != nil {
		t.Fatal(err)
	}
	// X-Stream's cost: about one full scan per BFS level.
	levels := 0
	for _, l := range galois.BFS(ref, 0) {
		if int(l) > levels {
			levels = int(l)
		}
	}
	if e.FullScans < levels {
		t.Fatalf("full scans = %d, want >= depth %d", e.FullScans, levels)
	}
}

func TestWCCMatchesGalois(t *testing.T) {
	e, ref, _ := setup(t, 9, 4, 4)
	got, err := e.WCC()
	if err != nil {
		t.Fatal(err)
	}
	want := galois.WCC(ref)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestPageRankMatchesGalois(t *testing.T) {
	e, ref, _ := setup(t, 9, 8, 5)
	got, err := e.PageRank(30, 0.85, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	want := galois.PageRankDelta(ref, 30, 0.85, 1e-7)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-5*(1+want[v]) {
			t.Fatalf("pr[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestTriangleCountMatchesGalois(t *testing.T) {
	e, ref, _ := setup(t, 8, 6, 6)
	got, err := e.TriangleCount()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := galois.TriangleCount(ref)
	if got != want {
		t.Fatalf("tc = %d, want %d", got, want)
	}
}

func TestTriangleCountMultiInterval(t *testing.T) {
	e, ref, _ := setup(t, 9, 6, 7)
	e.MemBudget = 8 << 10
	got, err := e.TriangleCount()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := galois.TriangleCount(ref)
	if got != want {
		t.Fatalf("tc = %d, want %d (intervals = %d)", got, want, e.Iterations)
	}
	if e.Iterations < 2 {
		t.Fatalf("expected multiple intervals, got %d", e.Iterations)
	}
}

func TestCanonicalFileDedups(t *testing.T) {
	// Graph with mutual edges: canonical file must hold each pair once.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 1, Dst: 2}, {Src: 0, Dst: 2}}
	a := graph.FromEdges(3, edges, true)
	img := graph.BuildImage(a, 0, nil)
	arr := ssd.NewArray(ssd.ArrayParams{Devices: 2, StripeSize: 64 * 4096})
	t.Cleanup(arr.Close)
	fs := safs.New(arr, safs.Config{})
	e, err := New(img, fs, "xs", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.buildCanonical(); err != nil {
		t.Fatal(err)
	}
	if e.canonEdges != 3 {
		t.Fatalf("canonical edges = %d, want 3", e.canonEdges)
	}
	got, err := e.TriangleCount()
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("tc = %d, want 1", got)
	}
}

// layouts builds a's image in each layout the baselines read — raw and
// delta, RAM-resident and file-backed (whose OutData is nil) — by name.
func layouts(t *testing.T, a *graph.Adjacency) map[string]*graph.Image {
	t.Helper()
	imgs := map[string]*graph.Image{}
	for _, enc := range []graph.Encoding{graph.EncodingRaw, graph.EncodingDelta} {
		iw := &graph.ImageWriter{NumV: a.N, Directed: a.Directed, Encoding: enc,
			Out: graph.SliceSource(a.Out), In: graph.SliceSource(a.In)}
		img, err := iw.BuildImage()
		if err != nil {
			t.Fatal(err)
		}
		imgs[enc.String()+"/ram"] = img
		path := filepath.Join(t.TempDir(), enc.String()+".img")
		if _, err := graph.WriteImageFile(path, iw); err != nil {
			t.Fatal(err)
		}
		if img, err = graph.OpenImageFile(path); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { img.Close() })
		imgs[enc.String()+"/file"] = img
	}
	return imgs
}

// TestLayoutsMatchGalois holds WCC and PageRank to galois on every
// layout the engine is built from.
func TestLayoutsMatchGalois(t *testing.T) {
	a := graph.FromEdges(1<<8, gen.RMAT(8, 6, 9), true)
	a.Dedup()
	ref := csr.FromAdjacency(a)
	wantWCC := galois.WCC(ref)
	wantPR := galois.PageRankDelta(ref, 30, 0.85, 1e-7)
	for name, img := range layouts(t, a) {
		arr := ssd.NewArray(ssd.ArrayParams{Devices: 4, StripeSize: 64 * 4096})
		fs := safs.New(arr, safs.Config{CacheBytes: 1 << 20})
		e, err := New(img, fs, "xs", 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		labels, err := e.WCC()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := range wantWCC {
			if labels[v] != wantWCC[v] {
				t.Fatalf("%s: label[%d] = %d, want %d", name, v, labels[v], wantWCC[v])
			}
		}
		pr, err := e.PageRank(30, 0.85, 1e-7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := range wantPR {
			if math.Abs(pr[v]-wantPR[v]) > 1e-5*(1+wantPR[v]) {
				t.Fatalf("%s: pr[%d] = %v, want %v", name, v, pr[v], wantPR[v])
			}
		}
		arr.Close()
	}
}
