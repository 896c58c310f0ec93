// Package graphchi is the repository's stand-in for GraphChi (Kyrola et
// al., OSDI'12), the magnetic-disk external-memory engine the paper
// compares against in §5.3. Its defining property — and the reason
// FlashGraph beats it by 1–2 orders of magnitude on SSDs — is that it
// eliminates random I/O by sequentially scanning the ENTIRE graph every
// iteration (parallel sliding windows), even when the algorithm only
// touches a few vertices.
//
// This implementation preserves that I/O behaviour faithfully: every
// iteration streams the full edge-list file(s) from the same simulated
// SSD array in large sequential chunks; computation happens per vertex
// record as the scan passes it. GraphChi provides no BFS (the paper
// notes this; Figure 11 has no GraphChi BFS bar), so neither do we.
package graphchi

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"

	"flashgraph/internal/baseline"
	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
)

// ChunkBytes is the sequential read unit of every scan (GraphChi uses
// large blocks; §3's design discussion).
const ChunkBytes = 2 << 20

// Engine streams a graph image from SAFS, whole-graph per iteration.
type Engine struct {
	img     *graph.Image
	files   *graph.FSFiles
	fs      *safs.FS
	threads int
	// MemBudget bounds in-memory interval state for multi-pass
	// algorithms like TC (default 64MiB).
	MemBudget int64

	// Iterations performed by the last algorithm run.
	Iterations int
	// FullScans counts whole-file scans performed (the cost driver).
	FullScans int
}

// New loads img into fs under the given name and returns an engine. The
// image may be in either record layout, RAM-resident or file-backed.
func New(img *graph.Image, fs *safs.FS, name string, threads int) (*Engine, error) {
	files, err := img.LoadToFS(fs, name)
	if err != nil {
		return nil, fmt.Errorf("graphchi: %w", err)
	}
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		img:       img,
		files:     files,
		fs:        fs,
		threads:   threads,
		MemBudget: 64 << 20,
	}, nil
}

// vertexSpan is one decoded record delivered by a scan.
type vertexSpan struct {
	v    graph.VertexID
	nbrs []graph.VertexID
}

// fileReaderAt adapts a SAFS file to io.ReaderAt.
type fileReaderAt struct{ f *safs.File }

func (r fileReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if err := r.f.ReadAt(p, off); err != nil {
		return 0, err
	}
	return len(p), nil
}

// scan streams one edge-list file start to finish in ChunkBytes reads,
// delivering every vertex's neighbor list in ID order. fn calls are
// parallelized across a chunk's worth of records but the file is read
// strictly sequentially.
func (e *Engine) scan(dir graph.EdgeDir, fn func(v graph.VertexID, nbrs []graph.VertexID)) error {
	e.FullScans++
	f := e.files.Out
	if dir == graph.InEdges && e.files.In != nil {
		f = e.files.In
	}
	var batch []vertexSpan
	held := 0 // raw record bytes of the batch
	flush := func() {
		var wg sync.WaitGroup
		chunk := (len(batch) + e.threads - 1) / e.threads
		for w := 0; w < e.threads; w++ {
			lo := w * chunk
			if lo >= len(batch) {
				break
			}
			hi := lo + chunk
			if hi > len(batch) {
				hi = len(batch)
			}
			wg.Add(1)
			go func(part []vertexSpan) {
				defer wg.Done()
				for _, s := range part {
					fn(s.v, s.nbrs)
				}
			}(batch[lo:hi])
		}
		wg.Wait()
		batch, held = batch[:0], 0
	}
	r := bufio.NewReaderSize(io.NewSectionReader(fileReaderAt{f}, 0, f.Size()), ChunkBytes)
	err := e.img.WalkRecords(dir, r, func(v graph.VertexID, nbrs []graph.VertexID) error {
		batch = append(batch, vertexSpan{v: v, nbrs: slices.Clone(nbrs)})
		if held += 4 * (1 + len(nbrs)); held >= ChunkBytes {
			flush()
		}
		return nil
	})
	flush()
	return err
}

// PageRank runs pull-style PageRank: each iteration scans the in-edge
// file (out file for undirected graphs) once; converges on max delta or
// the iteration cap.
func (e *Engine) PageRank(maxIters int, damping, tol float64) ([]float64, error) {
	n := e.img.NumV
	pr := make([]float64, n)
	next := make([]float64, n)
	for v := range pr {
		pr[v] = 1.0
	}
	dir := graph.InEdges
	if !e.img.Directed {
		dir = graph.OutEdges
	}
	outDeg := e.img.OutIndex
	e.Iterations = 0
	for iter := 0; iter < maxIters; iter++ {
		e.Iterations++
		var maxDelta float64
		var mu sync.Mutex
		err := e.scan(dir, func(v graph.VertexID, nbrs []graph.VertexID) {
			sum := 0.0
			for _, u := range nbrs {
				if d := outDeg.Degree(u); d > 0 {
					sum += pr[u] / float64(d)
				}
			}
			nv := (1 - damping) + damping*sum
			next[v] = nv
			d := nv - pr[v]
			if d < 0 {
				d = -d
			}
			mu.Lock()
			if d > maxDelta {
				maxDelta = d
			}
			mu.Unlock()
		})
		if err != nil {
			return nil, err
		}
		pr, next = next, pr
		if maxDelta < tol {
			break
		}
	}
	return pr, nil
}

// WCC runs min-label propagation, scanning both files per iteration
// until no label changes.
func (e *Engine) WCC() ([]graph.VertexID, error) {
	n := e.img.NumV
	labels := make([]int64, n)
	for v := range labels {
		labels[v] = int64(v)
	}
	e.Iterations = 0
	for {
		e.Iterations++
		changed := false
		var mu sync.Mutex
		relax := func(v graph.VertexID, nbrs []graph.VertexID) {
			mu.Lock()
			l := labels[v]
			for _, u := range nbrs {
				if labels[u] < l {
					l = labels[u]
				}
			}
			if l < labels[v] {
				labels[v] = l
				changed = true
			}
			// Push as well (symmetric relaxation converges faster and
			// matches weak connectivity over directed edges).
			for _, u := range nbrs {
				if labels[u] > l {
					labels[u] = l
					changed = true
				}
			}
			mu.Unlock()
		}
		if err := e.scan(graph.OutEdges, relax); err != nil {
			return nil, err
		}
		if !changed {
			break
		}
	}
	out := make([]graph.VertexID, n)
	for v, l := range labels {
		out[v] = graph.VertexID(l)
	}
	return out, nil
}

// TriangleCount counts undirected triangles with interval multi-pass
// scans: vertices are split into intervals sized by MemBudget; for each
// interval the whole graph is scanned twice (once to materialize the
// interval's neighbor sets, once to intersect every vertex's list
// against them). This mirrors GraphChi's "read the entire graph dataset
// multiple times" cost profile for TC.
func (e *Engine) TriangleCount() (int64, error) {
	n := e.img.NumV
	// Undirected neighbor sets require both directions for directed
	// graphs; mergeNbrs handles dedup.
	bytesPerVertex := int64(16)
	var adjBytes int64 = e.img.OutIndex.NumEdges() * 8
	intervals := int((adjBytes+bytesPerVertex*int64(n))/e.MemBudget) + 1
	intervalSize := (n + intervals - 1) / intervals

	var total int64
	e.Iterations = 0
	for lo := 0; lo < n; lo += intervalSize {
		hi := lo + intervalSize
		if hi > n {
			hi = n
		}
		e.Iterations++
		// Pass 1: materialize interval vertices' undirected neighbor
		// sets (> v only: triangles count at their min corner).
		intNbrs := make([][]graph.VertexID, hi-lo)
		collect := func(v graph.VertexID, nbrs []graph.VertexID) {
			if int(v) < lo || int(v) >= hi {
				return
			}
			intNbrs[int(v)-lo] = append(intNbrs[int(v)-lo], nbrs...)
		}
		if err := e.scan(graph.OutEdges, collect); err != nil {
			return 0, err
		}
		if e.img.Directed {
			if err := e.scan(graph.InEdges, collect); err != nil {
				return 0, err
			}
		}
		var mu sync.Mutex
		for i := range intNbrs {
			intNbrs[i] = dedupGT(intNbrs[i], graph.VertexID(lo+i))
		}

		// Pass 2: stream every vertex u's merged list and intersect with
		// interval vertices v < u that are adjacent to u.
		uNbrs := make([][]graph.VertexID, n) // staging for directed merge
		count := func(u graph.VertexID, merged []graph.VertexID) {
			for _, v := range merged {
				if int(v) < lo || int(v) >= hi || v >= u {
					continue
				}
				nv := intNbrs[int(v)-lo]
				// v < u: w must satisfy w > u, w in N(v) and N(u).
				c := intersectGT(nv, merged, u)
				mu.Lock()
				total += c
				mu.Unlock()
			}
		}
		if !e.img.Directed {
			err := e.scan(graph.OutEdges, func(u graph.VertexID, nbrs []graph.VertexID) {
				count(u, dedupGT(nbrs, graph.InvalidVertex))
			})
			if err != nil {
				return 0, err
			}
			continue
		}
		// Directed: merge out then in lists per vertex across two scans.
		err := e.scan(graph.OutEdges, func(u graph.VertexID, nbrs []graph.VertexID) {
			uNbrs[u] = append([]graph.VertexID(nil), nbrs...)
		})
		if err != nil {
			return 0, err
		}
		err = e.scan(graph.InEdges, func(u graph.VertexID, nbrs []graph.VertexID) {
			merged := dedupGT(append(uNbrs[u], nbrs...), graph.InvalidVertex)
			uNbrs[u] = nil
			count(u, merged)
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// dedupGT sorts, dedups and (when v != InvalidVertex) keeps IDs > v;
// self references are dropped either way.
func dedupGT(raw []graph.VertexID, v graph.VertexID) []graph.VertexID {
	if len(raw) == 0 {
		return raw
	}
	slices.Sort(raw)
	out := raw[:0]
	var prev = graph.InvalidVertex
	for _, u := range raw {
		if u == prev || (v != graph.InvalidVertex && u <= v) {
			continue
		}
		out = append(out, u)
		prev = u
	}
	return out
}

// intersectGT counts members of a ∩ b strictly greater than x. Both are
// dedupGT output: sorted and duplicate-free.
func intersectGT(a, b []graph.VertexID, x graph.VertexID) int64 {
	return baseline.CountCommon(above(a, x), above(b, x))
}

// above returns the tail of sorted, duplicate-free s holding IDs > x.
func above(s []graph.VertexID, x graph.VertexID) []graph.VertexID {
	i, found := slices.BinarySearch(s, x)
	if found {
		i++
	}
	return s[i:]
}
