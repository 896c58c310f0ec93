// Package xstream is the repository's stand-in for X-Stream (Roy et
// al., SOSP'13), the edge-centric external-memory engine the paper
// compares against in §5.3. X-Stream's model: every iteration streams
// the ENTIRE unsorted edge list sequentially (scatter phase emits
// updates along edges whose source is active; gather applies them),
// trading random access for full scans — the strategy FlashGraph's
// selective access beats by 1–2 orders of magnitude on SSDs.
//
// Substitutions: update streams are buffered
// in memory rather than spilled to disk (this only makes X-Stream
// faster, so the comparison stays conservative), and triangle counting
// is an exact interval multi-pass variant rather than the approximate
// semi-streaming algorithm [4] (same full-scan cost profile).
package xstream

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"flashgraph/internal/baseline"
	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
)

// edgeBytes is the on-SSD size of one directed edge (src, dst).
const edgeBytes = 8

// Engine streams a flat edge file from SAFS.
type Engine struct {
	fs       *safs.FS
	file     *safs.File
	numV     int
	numEdges int64
	threads  int
	// ChunkBytes is the sequential streaming unit (default 2MiB).
	ChunkBytes int
	// MemBudget bounds interval state for TC (default 64MiB).
	MemBudget int64
	// FullScans counts whole-edge-file scans (the cost driver).
	FullScans int
	// Iterations performed by the last run.
	Iterations int

	outDeg     []uint32
	canon      *safs.File // canonical undirected edge file (TC)
	canonEdges int64
}

// New serializes the image's directed edges into a flat edge file on fs
// (X-Stream's native format) and returns an engine.
func New(img *graph.Image, fs *safs.FS, name string, threads int) (*Engine, error) {
	if img.Encoding != graph.EncodingRaw {
		// The flattener below parses fixed-size raw records out of
		// OutData directly; the baseline harness has no delta decoder.
		return nil, fmt.Errorf("xstream: baseline requires a raw-encoded image (got %s)", img.Encoding)
	}
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	// Decode the out-edge lists into a flat (src, dst) stream.
	outDeg := make([]uint32, img.NumV)
	var m int64
	for v := 0; v < img.NumV; v++ {
		outDeg[v] = img.OutIndex.Degree(graph.VertexID(v))
		m += int64(outDeg[v])
	}
	f, err := fs.Create(name+".edges", m*edgeBytes)
	if err != nil {
		return nil, fmt.Errorf("xstream: %w", err)
	}
	buf := make([]byte, 1<<20)
	pos := 0
	off := int64(0)
	flushBuf := func() error {
		if pos == 0 {
			return nil
		}
		if err := f.WriteAt(buf[:pos], off); err != nil {
			return err
		}
		off += int64(pos)
		pos = 0
		return nil
	}
	for v := 0; v < img.NumV; v++ {
		recOff, _ := img.OutIndex.Locate(graph.VertexID(v))
		deg := int(outDeg[v])
		for i := 0; i < deg; i++ {
			if pos+edgeBytes > len(buf) {
				if err := flushBuf(); err != nil {
					return nil, err
				}
			}
			dst := binary.LittleEndian.Uint32(img.OutData[recOff+4+int64(i)*4:])
			binary.LittleEndian.PutUint32(buf[pos:], uint32(v))
			binary.LittleEndian.PutUint32(buf[pos+4:], dst)
			pos += edgeBytes
		}
	}
	if err := flushBuf(); err != nil {
		return nil, err
	}
	return &Engine{
		fs:         fs,
		file:       f,
		numV:       img.NumV,
		numEdges:   m,
		threads:    threads,
		ChunkBytes: 2 << 20,
		MemBudget:  64 << 20,
		outDeg:     outDeg,
	}, nil
}

// scanEdges streams the whole edge file once, invoking fn for batches
// of edges. The file read is strictly sequential; fn batches run in
// parallel.
func (e *Engine) scanEdges(fn func(edges []graph.Edge)) error {
	e.FullScans++
	size := e.numEdges * edgeBytes
	buf := make([]byte, e.ChunkBytes)
	for off := int64(0); off < size; {
		n := int64(len(buf))
		if off+n > size {
			n = size - off
		}
		n -= n % edgeBytes
		if err := e.file.ReadAt(buf[:n], off); err != nil {
			return err
		}
		off += n
		count := int(n / edgeBytes)
		edges := make([]graph.Edge, count)
		for i := 0; i < count; i++ {
			edges[i] = graph.Edge{
				Src: binary.LittleEndian.Uint32(buf[i*edgeBytes:]),
				Dst: binary.LittleEndian.Uint32(buf[i*edgeBytes+4:]),
			}
		}
		var wg sync.WaitGroup
		chunk := (count + e.threads - 1) / e.threads
		for w := 0; w < e.threads; w++ {
			lo := w * chunk
			if lo >= count {
				break
			}
			hi := lo + chunk
			if hi > count {
				hi = count
			}
			wg.Add(1)
			go func(part []graph.Edge) {
				defer wg.Done()
				fn(part)
			}(edges[lo:hi])
		}
		wg.Wait()
	}
	return nil
}

// BFS runs edge-centric BFS: each iteration scans all edges and settles
// frontier neighbors.
func (e *Engine) BFS(src graph.VertexID) ([]int32, error) {
	level := make([]int32, e.numV)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	e.Iterations = 0
	for depth := int32(0); ; depth++ {
		e.Iterations++
		var mu sync.Mutex
		err := e.scanEdges(func(edges []graph.Edge) {
			mu.Lock()
			for _, ed := range edges {
				if level[ed.Src] == depth && level[ed.Dst] == -1 {
					level[ed.Dst] = depth + 1
				}
			}
			mu.Unlock()
		})
		if err != nil {
			return nil, err
		}
		// Count newly settled vertices for termination.
		settled := 0
		for _, l := range level {
			if l == depth+1 {
				settled++
			}
		}
		if settled == 0 {
			break
		}
	}
	return level, nil
}

// WCC runs edge-centric min-label propagation to convergence.
func (e *Engine) WCC() ([]graph.VertexID, error) {
	labels := make([]int64, e.numV)
	for v := range labels {
		labels[v] = int64(v)
	}
	e.Iterations = 0
	for {
		e.Iterations++
		changed := false
		var mu sync.Mutex
		err := e.scanEdges(func(edges []graph.Edge) {
			mu.Lock()
			for _, ed := range edges {
				ls, ld := labels[ed.Src], labels[ed.Dst]
				switch {
				case ls < ld:
					labels[ed.Dst] = ls
					changed = true
				case ld < ls:
					labels[ed.Src] = ld
					changed = true
				}
			}
			mu.Unlock()
		})
		if err != nil {
			return nil, err
		}
		if !changed {
			break
		}
	}
	out := make([]graph.VertexID, e.numV)
	for v, l := range labels {
		out[v] = graph.VertexID(l)
	}
	return out, nil
}

// PageRank runs delta PageRank edge-centrically: the scatter phase
// streams all edges, pushing shares of active sources; gather absorbs.
func (e *Engine) PageRank(maxIters int, damping, threshold float64) ([]float64, error) {
	n := e.numV
	pr := make([]float64, n)
	accum := make([]float64, n)
	delta := make([]float64, n)
	active := make([]bool, n)
	for v := range accum {
		accum[v] = 1 - damping
		active[v] = true
	}
	e.Iterations = 0
	for iter := 0; iter < maxIters; iter++ {
		e.Iterations++
		// Absorb.
		anyActive := false
		for v := 0; v < n; v++ {
			delta[v] = 0
			if !active[v] {
				continue
			}
			d := accum[v]
			accum[v] = 0
			pr[v] += d
			if e.outDeg[v] > 0 {
				delta[v] = damping * d / float64(e.outDeg[v])
				anyActive = true
			}
			active[v] = false
		}
		if !anyActive {
			break
		}
		// Scatter: full edge scan.
		var mu sync.Mutex
		err := e.scanEdges(func(edges []graph.Edge) {
			mu.Lock()
			for _, ed := range edges {
				if d := delta[ed.Src]; d != 0 {
					accum[ed.Dst] += d
				}
			}
			mu.Unlock()
		})
		if err != nil {
			return nil, err
		}
		// Gather: activate receivers above threshold.
		any := false
		for v := 0; v < n; v++ {
			if accum[v] > threshold || accum[v] < -threshold {
				active[v] = true
				any = true
			}
		}
		if !any {
			break
		}
	}
	return pr, nil
}

// TriangleCount counts undirected triangles with interval multi-pass
// scans of the canonical undirected edge file (each undirected pair
// once, smaller endpoint first — built lazily on first use). Per
// interval: pass 1 streams all edges collecting, for each edge endpoint
// x, the interval vertices v < x adjacent to x (a reverse index);
// pass 2 streams all edges again and counts rev(u) ∩ rev(w) per edge
// (u, w) — every common interval neighbor below both endpoints closes a
// triangle at its minimum corner.
func (e *Engine) TriangleCount() (int64, error) {
	if err := e.buildCanonical(); err != nil {
		return 0, err
	}
	n := e.numV
	bytesPer := int64(24)
	intervals := int((e.canonEdges*16+bytesPer*int64(n))/e.MemBudget) + 1
	intervalSize := (n + intervals - 1) / intervals

	var total int64
	e.Iterations = 0
	for lo := 0; lo < n; lo += intervalSize {
		hi := lo + intervalSize
		if hi > n {
			hi = n
		}
		e.Iterations++
		// Pass 1: reverse index — rev[x] lists interval vertices v < x
		// with {v, x} an edge (canonical file: src < dst always).
		rev := make([][]graph.VertexID, n)
		var mu sync.Mutex
		err := e.scanCanonical(func(edges []graph.Edge) {
			mu.Lock()
			for _, ed := range edges {
				v, x := ed.Src, ed.Dst // v < x by construction
				if int(v) >= lo && int(v) < hi {
					rev[x] = append(rev[x], v)
				}
			}
			mu.Unlock()
		})
		if err != nil {
			return 0, err
		}
		for x := range rev {
			rev[x] = dedupSorted(rev[x])
		}
		// Pass 2: per edge (u, w), common interval vertices below both
		// endpoints close triangles.
		err = e.scanCanonical(func(edges []graph.Edge) {
			var local int64
			for _, ed := range edges {
				local += baseline.CountCommon(rev[ed.Src], rev[ed.Dst])
			}
			mu.Lock()
			total += local
			mu.Unlock()
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// buildCanonical writes the deduplicated undirected edge file (pairs
// normalized to src < dst) used by TriangleCount. The canonicalization
// plays the role of the preprocessing X-Stream's semi-streaming TC [4]
// performs.
func (e *Engine) buildCanonical() error {
	if e.canon != nil {
		return nil
	}
	// Stream the directed file once, keeping normalized pairs; a pair
	// that exists in both directions is kept only for its (src < dst)
	// occurrence unless only the reversed direction exists. Detect with
	// a bitmap of "seen normalized" hashes per source — exactness
	// matters, so collect per-source neighbor sets in bounded slabs.
	type pair = graph.Edge
	var pairs []pair
	var mu sync.Mutex
	err := e.scanEdges(func(edges []graph.Edge) {
		local := make([]pair, 0, len(edges))
		for _, ed := range edges {
			if ed.Src == ed.Dst {
				continue
			}
			p := ed
			if p.Src > p.Dst {
				p.Src, p.Dst = p.Dst, p.Src
			}
			local = append(local, p)
		}
		mu.Lock()
		pairs = append(pairs, local...)
		mu.Unlock()
	})
	if err != nil {
		return err
	}
	slices.SortFunc(pairs, func(a, b pair) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	uniq := slices.Compact(pairs)
	f, err := e.fs.Create(e.file.Name()+".canon", int64(len(uniq))*edgeBytes)
	if err != nil {
		return err
	}
	buf := make([]byte, 1<<20)
	pos, off := 0, int64(0)
	for _, p := range uniq {
		if pos+edgeBytes > len(buf) {
			if err := f.WriteAt(buf[:pos], off); err != nil {
				return err
			}
			off += int64(pos)
			pos = 0
		}
		binary.LittleEndian.PutUint32(buf[pos:], p.Src)
		binary.LittleEndian.PutUint32(buf[pos+4:], p.Dst)
		pos += edgeBytes
	}
	if pos > 0 {
		if err := f.WriteAt(buf[:pos], off); err != nil {
			return err
		}
	}
	e.canon = f
	e.canonEdges = int64(len(uniq))
	return nil
}

// scanCanonical streams the canonical undirected edge file.
func (e *Engine) scanCanonical(fn func(edges []graph.Edge)) error {
	e.FullScans++
	size := e.canonEdges * edgeBytes
	buf := make([]byte, e.ChunkBytes)
	for off := int64(0); off < size; {
		n := int64(len(buf))
		if off+n > size {
			n = size - off
		}
		n -= n % edgeBytes
		if err := e.canon.ReadAt(buf[:n], off); err != nil {
			return err
		}
		off += n
		count := int(n / edgeBytes)
		edges := make([]graph.Edge, count)
		for i := 0; i < count; i++ {
			edges[i] = graph.Edge{
				Src: binary.LittleEndian.Uint32(buf[i*edgeBytes:]),
				Dst: binary.LittleEndian.Uint32(buf[i*edgeBytes+4:]),
			}
		}
		fn(edges)
	}
	return nil
}

// dedupSorted sorts and dedups in place.
func dedupSorted(s []graph.VertexID) []graph.VertexID {
	slices.Sort(s)
	return slices.Compact(s)
}
