package core

import (
	"testing"

	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
)

// buildEncodedImage builds the same RMAT graph in the given on-SSD
// encoding through the canonical encoder.
func buildEncodedImage(t testing.TB, scale, epv int, seed uint64, attrSize int, enc graph.Encoding) (*graph.Image, *graph.Adjacency) {
	t.Helper()
	edges := gen.RMAT(scale, epv, seed)
	a := graph.FromEdges(1<<scale, edges, true)
	a.Dedup()
	var attr graph.AttrFunc
	if attrSize > 0 {
		attr = func(src, dst graph.VertexID, buf []byte) {
			buf[0], buf[1], buf[2], buf[3] = byte(src), byte(dst), 0, 0
		}
	}
	iw := &graph.ImageWriter{
		NumV: a.N, Directed: true, Encoding: enc,
		AttrSize: attrSize, Attr: attr,
		Out: graph.SliceSource(a.Out), In: graph.SliceSource(a.In),
	}
	img, err := iw.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	return img, a
}

// TestSEMServesDeltaEncodedImages drives the delta decoder through the
// REAL semi-external-memory hot path — merged edge-list requests,
// safs.View spans crossing page boundaries, concurrent workers — and
// requires the answers to match a reference traversal exactly. The
// race pass runs this with -race, so the per-request PageVertex cursor
// state is also proven worker-private.
func TestSEMServesDeltaEncodedImages(t *testing.T) {
	read := map[graph.Encoding]int64{}
	for _, enc := range []graph.Encoding{graph.EncodingRaw, graph.EncodingDelta} {
		t.Run(enc.String(), func(t *testing.T) {
			img, a := buildEncodedImage(t, 9, 8, 5, 0, enc)
			// A small page size forces many records to straddle page
			// boundaries inside merged views — the delta varint reader's
			// hardest case.
			fs := newTestFS(t, safs.Config{CacheBytes: 256 << 10, PageSize: 512})
			eng, err := NewEngine(img, Config{Threads: 4, FS: fs, RangeShift: 4})
			if err != nil {
				t.Fatal(err)
			}
			bfs := &testBFS{src: 0}
			st, err := eng.Run(bfs)
			if err != nil {
				t.Fatal(err)
			}
			read[enc] = st.BytesRead
			want := refBFSLevels(a, 0)
			for v := range want {
				if bfs.level[v] != want[v] {
					t.Fatalf("%s: vertex %d level %d, want %d", enc, v, bfs.level[v], want[v])
				}
			}
		})
	}
	// What the layout is for: fewer bytes on SSD are fewer bytes read by
	// the same query.
	if raw, delta := read[graph.EncodingRaw], read[graph.EncodingDelta]; delta == 0 || delta >= raw {
		t.Fatalf("the same BFS read %d bytes from the delta image, %d from the raw one", delta, raw)
	}
}

// attrSummerAlg accumulates per-vertex (neighbor-ID sum, weight sum)
// into slices — workers write disjoint indices, so the race pass also
// proves the decode shares no hidden state across requests.
type attrSummerAlg struct {
	ids     []uint64
	weights []uint64
}

func (a *attrSummerAlg) Init(eng ExecutionEngine) {
	a.ids = make([]uint64, eng.NumVertices())
	a.weights = make([]uint64, eng.NumVertices())
	eng.ActivateAllSeeds()
}

func (a *attrSummerAlg) Run(ctx *Ctx, v graph.VertexID) {
	if ctx.OutDegree(v) > 0 {
		ctx.RequestSelf(graph.OutEdges)
	}
}

func (a *attrSummerAlg) RunOnVertex(ctx *Ctx, v graph.VertexID, pv *graph.PageVertex) {
	n := pv.NumEdges()
	edges := pv.Edges(nil, nil)
	for i := 0; i < n; i++ {
		a.ids[v] += uint64(edges[i])
		a.weights[v] += uint64(pv.AttrUint32(i))
	}
	// Also exercise random access on the delta cursor.
	if n > 1 && pv.Edge(n-1) < pv.Edge(0) {
		panic("edges not sorted")
	}
}

func (a *attrSummerAlg) RunOnMessage(ctx *Ctx, v graph.VertexID, msg Message) {}

// TestSEMWeightedDeltaAttrs checks attribute decoding (weights trail
// the varint ID stream at data-dependent offsets) through the SEM
// path, against the raw layout's answers.
func TestSEMWeightedDeltaAttrs(t *testing.T) {
	run := func(enc graph.Encoding) *attrSummerAlg {
		img, _ := buildEncodedImage(t, 8, 6, 11, 4, enc)
		fs := newTestFS(t, safs.Config{CacheBytes: 256 << 10, PageSize: 512})
		eng, err := NewEngine(img, Config{Threads: 2, FS: fs, RangeShift: 4})
		if err != nil {
			t.Fatal(err)
		}
		alg := &attrSummerAlg{}
		if _, err := eng.Run(alg); err != nil {
			t.Fatal(err)
		}
		return alg
	}
	raw := run(graph.EncodingRaw)
	delta := run(graph.EncodingDelta)
	for v := range raw.ids {
		if raw.ids[v] != delta.ids[v] || raw.weights[v] != delta.weights[v] {
			t.Fatalf("vertex %d: raw (%d,%d) delta (%d,%d)",
				v, raw.ids[v], raw.weights[v], delta.ids[v], delta.weights[v])
		}
	}
}
