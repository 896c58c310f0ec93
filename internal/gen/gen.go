// Package gen generates synthetic graphs that stand in for the paper's
// datasets (Table 1), which we cannot redistribute:
//
//   - RMAT produces Kronecker-style power-law graphs — the degree skew of
//     the Twitter and subdomain web graphs is what drives FlashGraph's
//     merging, load balancing, and caching behaviour, and RMAT reproduces
//     it;
//   - Clustered produces a domain-clustered web-like graph (the page
//     graph is "clustered by domain, generating good cache hit rates"):
//     vertex IDs group into domains, most edges stay within a domain or
//     reach nearby domains, giving ID-locality and a long diameter;
//   - ER produces uniform random graphs (no skew control);
//   - Ring produces a cycle with optional chords (diameter tests).
//
// All generators are deterministic in their seed, and every generator
// has two forms: a streaming form (RMATStream, ERStream, ...) that
// emits edges one at a time through a callback — the out-of-core
// ingest path, which never holds an edge list — and a slice form
// implemented over it for convenience at small scales. Both forms
// produce identical edge sequences for the same parameters.
//
// RMATStream, the generator behind every benchmark and fixture graph,
// uses every core: workers draw blocks of edges from jumped-ahead RNG
// states, and emit is called in order on the caller's goroutine. Its
// stream does not depend on GOMAXPROCS. The other generators are
// serial.
package gen

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"flashgraph/internal/graph"
	"flashgraph/internal/util"
)

// Emit receives generated edges one at a time. Returning an error
// aborts generation (e.g. a failed spill in a downstream builder).
type Emit func(graph.Edge) error

// collect adapts a streaming generator to the slice form.
func collect(capacity int, stream func(Emit) error) []graph.Edge {
	edges := make([]graph.Edge, 0, capacity)
	// The collector never fails, so the stream cannot either.
	_ = stream(func(e graph.Edge) error {
		edges = append(edges, e)
		return nil
	})
	return edges
}

// rmatBlockEdges is how many edges an R-MAT worker draws at a time
// (128 KiB of edges), and rmatBuffers how many such blocks each worker
// owns: one being emitted, one being drawn, and two of slack so that a
// slow emit (a downstream sorter handing off a chunk) does not stall
// the workers at once.
const (
	rmatBlockEdges = 1 << 14
	rmatBuffers    = 4
)

// checkRMAT rejects R-MAT sizes whose vertex IDs or edge count the
// output cannot hold: graph.VertexID is 32 bits, and at scale 0 every
// edge would be the self-loop 0→0.
func checkRMAT(scale, edgesPerVertex int) error {
	switch {
	case scale < 1 || scale > 32:
		return fmt.Errorf("gen: R-MAT scale %d outside 1..32", scale)
	case edgesPerVertex < 0:
		return fmt.Errorf("gen: R-MAT edges per vertex %d is negative", edgesPerVertex)
	case edgesPerVertex > math.MaxInt>>scale:
		return fmt.Errorf("gen: R-MAT edges per vertex %d overflows the edge count at scale %d", edgesPerVertex, scale)
	}
	return nil
}

// RMATStream generates 2^scale vertices and edgesPerVertex × 2^scale
// directed edges with power-law degree distributions, using the
// standard R-MAT recursive quadrant probabilities (a=0.57, b=0.19,
// c=0.19, d=0.05) with light noise per level. It returns an error for
// a scale outside 1..32 or a negative edgesPerVertex.
//
// The edges are drawn on runtime.GOMAXPROCS(0) worker goroutines in
// blocks of rmatBlockEdges and emitted in order on the caller's
// goroutine, never concurrently. Every edge takes exactly two draws
// per level, so block k starts from the serial RNG state after
// 2·scale·rmatBlockEdges·k draws, reached by a util.Jump: the stream
// is the serial one, bit for bit, whatever GOMAXPROCS is. When emit
// fails, or panics, the workers are stopped and joined before
// RMATStream returns.
func RMATStream(scale, edgesPerVertex int, seed uint64, emit Emit) error {
	if err := checkRMAT(scale, edgesPerVertex); err != nil {
		return err
	}
	m := edgesPerVertex << scale
	blocks := (m + rmatBlockEdges - 1) / rmatBlockEdges
	workers := min(runtime.GOMAXPROCS(0), blocks)
	// next moves a worker's start one block on; stride moves a worker
	// from the end of its block past the other workers' blocks.
	var next, stride *util.Jump
	if workers > 1 {
		blockDraws := uint64(2 * scale * rmatBlockEdges)
		next = util.NewJump(blockDraws)
		stride = util.NewJump(uint64(workers-1) * blockDraws)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(done)
		wg.Wait()
	}()
	full := make([]chan []graph.Edge, workers)
	free := make([]chan []graph.Edge, workers)
	r := util.NewRNG(seed)
	for w := range workers {
		full[w] = make(chan []graph.Edge, rmatBuffers)
		free[w] = make(chan []graph.Edge, rmatBuffers)
		for range rmatBuffers {
			free[w] <- make([]graph.Edge, rmatBlockEdges)
		}
		wg.Add(1)
		go func(r util.RNG) {
			defer wg.Done()
			for lo := w * rmatBlockEdges; lo < m; lo += workers * rmatBlockEdges {
				var blk []graph.Edge
				select {
				case blk = <-free[w]:
				case <-done:
					return
				}
				blk = blk[:min(rmatBlockEdges, m-lo)]
				rmatFill(&r, scale, blk)
				select {
				case full[w] <- blk:
				case <-done:
					return
				}
				if stride != nil {
					r.Jump(stride)
				}
			}
		}(*r)
		if next != nil {
			r.Jump(next)
		}
	}
	for k := range blocks {
		blk := <-full[k%workers]
		for _, e := range blk {
			if err := emit(e); err != nil {
				return err
			}
		}
		free[k%workers] <- blk[:cap(blk)]
	}
	return nil
}

// rmatFill draws len(out) R-MAT edges from r, two draws per level per
// edge. The quadrant choice is branch-free: with q0, q1, q2 the tests
// against the three cumulative thresholds (q0 ⇒ q1 ⇒ q2), src gets the
// level's bit when !q1 and dst when (q1 && !q0) || !q2.
func rmatFill(r *util.RNG, scale int, out []graph.Edge) {
	const a, b, c = 0.57, 0.19, 0.19
	mask := 1<<scale - 1
	for i := range out {
		src, dst := 0, 0
		for lvl := range scale {
			// ±10% noise keeps the graph from being exactly self-similar.
			noise := 0.9 + 0.2*r.Float64()
			p := r.Float64()
			q0, q1, q2 := b2i(p < a*noise), b2i(p < (a+b)*noise), b2i(p < (a+b+c)*noise)
			src |= (q1 ^ 1) << lvl
			dst |= (q1&^q0 | (q2 ^ 1)) << lvl
		}
		dst = (dst + b2i(src == dst)) & mask // avoid self loops
		out[i] = graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)}
	}
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a
// SETcc, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// RMAT is the slice form of RMATStream. It panics, with RMATStream's
// message, on a size RMATStream rejects.
func RMAT(scale, edgesPerVertex int, seed uint64) []graph.Edge {
	if err := checkRMAT(scale, edgesPerVertex); err != nil {
		panic(err.Error())
	}
	return collect(edgesPerVertex<<scale, func(emit Emit) error {
		return RMATStream(scale, edgesPerVertex, seed, emit)
	})
}

// ERStream generates m uniform random directed edges over n vertices
// (self-loops excluded), emitting each as it is drawn.
func ERStream(n, m int, seed uint64, emit Emit) error {
	r := util.NewRNG(seed)
	for i := 0; i < m; i++ {
		src := graph.VertexID(r.Intn(n))
		dst := graph.VertexID(r.Intn(n))
		if src == dst {
			dst = graph.VertexID((int(dst) + 1) % n)
		}
		if err := emit(graph.Edge{Src: src, Dst: dst}); err != nil {
			return err
		}
	}
	return nil
}

// ER is the slice form of ERStream.
func ER(n, m int, seed uint64) []graph.Edge {
	return collect(m, func(emit Emit) error {
		return ERStream(n, m, seed, emit)
	})
}

// clusteredIntraProb is the probability a clustered edge stays within
// its domain; the remainder go to one of the next few domains, which
// chains domains together and yields a long diameter.
const clusteredIntraProb = 0.85

// ClusteredConfig parameterizes the web-like clustered generator.
type ClusteredConfig struct {
	// Domains is the number of vertex clusters ("web domains").
	Domains int
	// DomainSize is the number of vertices per domain.
	DomainSize int
	// EdgesPerVertex is the average out-degree.
	EdgesPerVertex int
	// Seed drives the RNG.
	Seed uint64
}

// ClusteredStream generates a domain-clustered directed graph,
// emitting each edge as it is drawn. Vertex v lives in domain
// v/DomainSize, so sorting by vertex ID clusters edge lists by domain
// on SSD — the page-graph property that gives FlashGraph good cache
// hit rates (Table 2).
func ClusteredStream(cfg ClusteredConfig, emit Emit) error {
	n := cfg.Domains * cfg.DomainSize
	m := n * cfg.EdgesPerVertex
	r := util.NewRNG(cfg.Seed)
	for i := 0; i < m; i++ {
		src := r.Intn(n)
		dom := src / cfg.DomainSize
		var dstDom int
		if r.Float64() < clusteredIntraProb {
			dstDom = dom
		} else {
			// Mostly forward links to the next 1..4 domains; occasional
			// long-range link.
			if r.Float64() < 0.9 {
				dstDom = (dom + 1 + r.Intn(4)) % cfg.Domains
			} else {
				dstDom = r.Intn(cfg.Domains)
			}
		}
		// Within a domain, prefer low-ID "hub" pages (front pages):
		// squaring the uniform sample skews toward 0.
		u := r.Float64()
		dst := dstDom*cfg.DomainSize + int(u*u*float64(cfg.DomainSize))
		if dst >= n {
			dst = n - 1
		}
		if dst == src {
			dst = (dst + 1) % n
		}
		if err := emit(graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)}); err != nil {
			return err
		}
	}
	return nil
}

// Clustered is the slice form of ClusteredStream.
func Clustered(cfg ClusteredConfig) []graph.Edge {
	return collect(cfg.Domains*cfg.DomainSize*cfg.EdgesPerVertex, func(emit Emit) error {
		return ClusteredStream(cfg, emit)
	})
}

// RingStream generates a directed cycle of n vertices with `chords`
// extra random shortcut edges, emitting each edge in turn. Diameter
// without chords is n-1.
func RingStream(n, chords int, seed uint64, emit Emit) error {
	for v := 0; v < n; v++ {
		if err := emit(graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % n)}); err != nil {
			return err
		}
	}
	r := util.NewRNG(seed)
	for i := 0; i < chords; i++ {
		src := graph.VertexID(r.Intn(n))
		dst := graph.VertexID(r.Intn(n))
		if src != dst {
			if err := emit(graph.Edge{Src: src, Dst: dst}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Ring is the slice form of RingStream.
func Ring(n, chords int, seed uint64) []graph.Edge {
	return collect(n+chords, func(emit Emit) error {
		return RingStream(n, chords, seed, emit)
	})
}

// GridStream generates a directed 2D grid (rows×cols) with edges
// right and down, emitting each edge in turn. Useful for
// predictable-diameter tests.
func GridStream(rows, cols int, emit Emit) error {
	id := func(r, c int) graph.VertexID { return graph.VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				if err := emit(graph.Edge{Src: id(r, c), Dst: id(r, c+1)}); err != nil {
					return err
				}
			}
			if r+1 < rows {
				if err := emit(graph.Edge{Src: id(r, c), Dst: id(r+1, c)}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Grid is the slice form of GridStream.
func Grid(rows, cols int) []graph.Edge {
	return collect(2*rows*cols, func(emit Emit) error {
		return GridStream(rows, cols, emit)
	})
}
