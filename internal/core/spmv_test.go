package core

import (
	"testing"

	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
)

// rowLog digests a sequence of ApplyRow deliveries: an order-sensitive
// hash of every (dir, row, cols...), the call count and Σ len(cols).
type rowLog struct {
	hash  uint64
	calls int64
	edges int64
}

func (l *rowLog) mix(x uint32) { l.hash = (l.hash ^ uint64(x)) * 1099511628211 } // FNV-1a, a word at a time

func (l *rowLog) add(dir graph.EdgeDir, row graph.VertexID, cols []graph.VertexID) {
	l.mix(uint32(dir))
	l.mix(row)
	l.mix(uint32(len(cols)))
	for _, c := range cols {
		l.mix(c)
	}
	l.calls++
	l.edges += int64(len(cols))
}

// rowRecorder is an SpMV program that sweeps both directions once and
// logs what the engine hands it.
type rowRecorder struct{ rowLog }

func (p *rowRecorder) Init(ExecutionEngine) {}
func (p *rowRecorder) BeginIteration(_ ExecutionEngine, iter int) []graph.EdgeDir {
	if iter > 0 {
		return nil
	}
	return []graph.EdgeDir{graph.OutEdges, graph.InEdges}
}
func (p *rowRecorder) ApplyRow(dir graph.EdgeDir, row graph.VertexID, cols []graph.VertexID) {
	p.add(dir, row, cols)
}
func (p *rowRecorder) EndIteration(ExecutionEngine, int) bool { return true }

// referenceRuns walks img's edge data with the graph package's decoders
// called directly, in the order the SpMV engine promises: per
// direction, blocks in (row stripe, column stripe, row) order, or
// records in vertex order with empty rows skipped.
func referenceRuns(t *testing.T, img *graph.Image) rowLog {
	t.Helper()
	var log rowLog
	var scratch []graph.VertexID
	for _, d := range []struct {
		dir  graph.EdgeDir
		data []byte
		ix   *graph.Index
	}{{graph.OutEdges, img.OutData, img.OutIndex}, {graph.InEdges, img.InData, img.InIndex}} {
		if img.Encoding == graph.EncodingBlock {
			bd := d.ix.Blocks()
			for r := 0; r < bd.Stripes; r++ {
				off, size := bd.StripeExtent(r)
				var err error
				scratch, err = bd.DecodeStripe(d.data[off:off+size], r, img.AttrSize, scratch, func(row graph.VertexID, cols []graph.VertexID, _ []byte) {
					log.add(d.dir, row, cols)
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		for v := 0; v < img.NumV; v++ {
			off, size := d.ix.Locate(graph.VertexID(v))
			pv := graph.NewPageVertexBytes(graph.VertexID(v), d.dir, d.data[off:off+size], img.AttrSize, img.Encoding)
			if scratch = pv.Edges(scratch, nil); len(scratch) > 0 {
				log.add(d.dir, graph.VertexID(v), scratch)
			}
		}
	}
	return log
}

// TestSpMVDeliversReferenceRuns is the row-side analogue of the message
// model test: whatever the decoders under the SpMV engine become, the
// sequence of ApplyRow calls a program sees — which rows, in which
// order, with which columns — is the one a direct walk of the image
// yields, in every layout, from memory and through SAFS. The graph
// spans a 2×2 block grid, so rows are delivered once per block they
// touch.
func TestSpMVDeliversReferenceRuns(t *testing.T) {
	for _, enc := range []graph.Encoding{graph.EncodingRaw, graph.EncodingDelta, graph.EncodingBlock} {
		img, a := buildEncodedImage(t, 17, 2, 5, 0, enc)
		want := referenceRuns(t, img)
		var degreeSum int64
		for v := range a.Out {
			degreeSum += int64(len(a.Out[v]) + len(a.In[v]))
		}
		if want.edges != degreeSum || want.calls == 0 {
			t.Fatalf("%s: reference walk saw %d edges in %d runs, graph has %d", enc, want.edges, want.calls, degreeSum)
		}
		for _, mode := range []struct {
			name string
			cfg  func() Config
		}{
			{"mem", func() Config { return Config{InMemory: true} }},
			{"sem", func() Config { return Config{FS: newTestFS(t, safs.Config{CacheBytes: 1 << 20})} }},
		} {
			t.Run(enc.String()+"/"+mode.name, func(t *testing.T) {
				shared, err := NewShared(img, mode.cfg())
				if err != nil {
					t.Fatal(err)
				}
				eng, err := shared.NewEngine(EngineSpMV)
				if err != nil {
					t.Fatal(err)
				}
				rec := &rowRecorder{}
				if _, err := eng.Run(rec); err != nil {
					t.Fatal(err)
				}
				if rec.rowLog != want {
					t.Fatalf("engine delivered %+v, reference walk %+v", rec.rowLog, want)
				}
			})
		}
	}
}
