package graphchi

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
	e, err := New(img, fs, "gc", 4)
	if err != nil {
		t.Fatal(err)
	}
	return e, csr.FromAdjacency(a), fs
}

func TestScanDeliversEveryVertexInOrder(t *testing.T) {
	e, ref, _ := setup(t, 9, 6, 1)
	var seen int64 // fn batches run on parallel goroutines
	err := e.scan(graph.OutEdges, func(v graph.VertexID, nbrs []graph.VertexID) {
		// Batch construction is ordered; verify content per vertex
		// rather than global callback order.
		if len(nbrs) != ref.OutDegree(v) {
			t.Errorf("vertex %d: %d nbrs, want %d", v, len(nbrs), ref.OutDegree(v))
		}
		atomic.AddInt64(&seen, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != int64(ref.N) {
		t.Fatalf("scan delivered %d vertices, want %d", seen, ref.N)
	}
}

func TestScanIsSequentialIO(t *testing.T) {
	e, _, fs := setup(t, 12, 8, 2)
	fs.Array().ResetStats()
	if err := e.scan(graph.OutEdges, func(graph.VertexID, []graph.VertexID) {}); err != nil {
		t.Fatal(err)
	}
	st := fs.Array().Stats()
	if st.Reads == 0 {
		t.Fatal("no device reads")
	}
	// Streaming requests split only at stripe boundaries: mean request
	// size must dwarf a 4KB random read.
	if mean := st.BytesRead / st.Reads; mean < 16<<10 {
		t.Fatalf("mean request size %d suggests non-sequential I/O", mean)
	}
}

func TestPageRankMatchesPullReference(t *testing.T) {
	e, ref, _ := setup(t, 9, 8, 3)
	got, err := e.PageRank(50, 0.85, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	// Pull-style reference on CSR.
	n := ref.N
	want := make([]float64, n)
	next := make([]float64, n)
	for v := range want {
		want[v] = 1.0
	}
	for iter := 0; iter < 50; iter++ {
		var maxDelta float64
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range ref.In(graph.VertexID(v)) {
				if d := ref.OutDegree(u); d > 0 {
					sum += want[u] / float64(d)
				}
			}
			next[v] = 0.15 + 0.85*sum
			if d := math.Abs(next[v] - want[v]); d > maxDelta {
				maxDelta = d
			}
		}
		want, next = next, want
		if maxDelta < 1e-10 {
			break
		}
	}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-8*(1+want[v]) {
			t.Fatalf("pr[%d] = %v, want %v", v, got[v], want[v])
		}
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

func TestTriangleCountMatchesGalois(t *testing.T) {
	e, ref, _ := setup(t, 8, 6, 5)
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
	e, ref, _ := setup(t, 9, 6, 6)
	e.MemBudget = 8 << 10 // force several intervals
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

func TestFullScanAccounting(t *testing.T) {
	e, _, _ := setup(t, 8, 4, 7)
	before := e.FullScans
	if _, err := e.WCC(); err != nil {
		t.Fatal(err)
	}
	if e.FullScans <= before {
		t.Fatal("WCC must perform full scans")
	}
	if e.Iterations == 0 {
		t.Fatal("iterations not recorded")
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
	wantPR := galois.PageRankDelta(ref, 200, 0.85, 1e-12)
	for name, img := range layouts(t, a) {
		arr := ssd.NewArray(ssd.ArrayParams{Devices: 4, StripeSize: 64 * 4096})
		fs := safs.New(arr, safs.Config{CacheBytes: 1 << 20})
		e, err := New(img, fs, "gc", 4)
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
		pr, err := e.PageRank(200, 0.85, 1e-12)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := range wantPR {
			if math.Abs(pr[v]-wantPR[v]) > 1e-6*(1+wantPR[v]) {
				t.Fatalf("%s: pr[%d] = %v, want %v", name, v, pr[v], wantPR[v])
			}
		}
		arr.Close()
	}
}
