package powergraph

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"flashgraph/internal/csr"
	"flashgraph/internal/graph"
)

// BFSApp is breadth-first search as a GAS program: no gather; Apply
// settles a vertex's level; Scatter activates undiscovered neighbors.
type BFSApp struct {
	Level []int32
}

// RunBFS executes BFS from src and returns levels.
func RunBFS(e *Engine, src graph.VertexID) *BFSApp {
	app := &BFSApp{Level: make([]int32, e.G.N)}
	for i := range app.Level {
		app.Level[i] = -1
	}
	app.Level[src] = 0
	prog := &bfsProg{app: app}
	e.Run(prog, []graph.VertexID{src}, false, 0)
	return app
}

type bfsProg struct{ app *BFSApp }

// PowerGraph expresses BFS in full GAS form: gather the minimum settled
// level over in-edges (boxed, like every PowerGraph gather), apply, and
// scatter a discovery signal over out-edges.
func (p *bfsProg) GatherDir() Dir { return In }
func (p *bfsProg) Gather(v, nbr graph.VertexID) Accum {
	if l := atomic.LoadInt32(&p.app.Level[nbr]); l >= 0 {
		return l + 1
	}
	return nil
}
func (p *bfsProg) Sum(a, b Accum) Accum {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.(int32) < b.(int32) {
		return a
	}
	return b
}
func (p *bfsProg) Apply(v graph.VertexID, acc Accum) bool {
	if acc == nil {
		// The source starts settled; everyone else waits for a parent.
		return atomic.LoadInt32(&p.app.Level[v]) >= 0
	}
	return atomic.CompareAndSwapInt32(&p.app.Level[v], -1, acc.(int32))
}
func (p *bfsProg) ScatterDir() Dir { return Out }
func (p *bfsProg) Scatter(v, nbr graph.VertexID) bool {
	return atomic.LoadInt32(&p.app.Level[nbr]) == -1
}

// PRApp is delta PageRank as a GAS program with boxed float64 gathers.
type PRApp struct {
	Scores []float64
	accum  []float64
	delta  []float64
	damp   float64
	thresh float64
}

// RunPageRank executes up to maxIters supersteps of delta PageRank.
func RunPageRank(e *Engine, maxIters int, damping, threshold float64) *PRApp {
	n := e.G.N
	app := &PRApp{
		Scores: make([]float64, n),
		accum:  make([]float64, n),
		delta:  make([]float64, n),
		damp:   damping,
		thresh: threshold,
	}
	for v := range app.accum {
		app.accum[v] = 1 - damping
	}
	prog := &prProg{app: app, g: e.G}
	e.Run(prog, nil, true, maxIters)
	return app
}

type prProg struct {
	app *PRApp
	g   *csr.Graph
	mu  sync.Mutex
}

func (p *prProg) GatherDir() Dir { return None }

func (p *prProg) Gather(v, nbr graph.VertexID) Accum { return nil }
func (p *prProg) Sum(a, b Accum) Accum               { return nil }

// Apply absorbs the accumulated delta (deposited by upstream scatters).
func (p *prProg) Apply(v graph.VertexID, acc Accum) bool {
	d := p.app.accum[v]
	if d <= p.app.thresh && d >= -p.app.thresh {
		return false
	}
	p.app.accum[v] = 0
	p.app.Scores[v] += d
	if deg := p.g.OutDegree(v); deg > 0 {
		p.app.delta[v] = p.app.damp * d / float64(deg)
		return true
	}
	return false
}

func (p *prProg) ScatterDir() Dir { return Out }

// Scatter pushes the share downstream; receivers activate when their
// accumulation crosses the threshold.
func (p *prProg) Scatter(v, nbr graph.VertexID) bool {
	share := p.app.delta[v]
	// PowerGraph's sync engine serializes conflicting edge updates; a
	// mutex per scatter models that cost honestly.
	p.mu.Lock()
	p.app.accum[nbr] += share
	above := p.app.accum[nbr] > p.app.thresh || p.app.accum[nbr] < -p.app.thresh
	p.mu.Unlock()
	return above
}

// WCCApp labels weakly connected components via min-label GAS. Labels
// are stored as int32 accessed atomically because gather reads neighbor
// labels concurrently with other vertices' applies (PowerGraph's sync
// engine snapshots; atomic min-convergence reaches the same fixpoint).
type WCCApp struct {
	labels []int32
}

// Labels returns the converged component labels.
func (a *WCCApp) Labels() []graph.VertexID {
	out := make([]graph.VertexID, len(a.labels))
	for v, l := range a.labels {
		out[v] = graph.VertexID(l)
	}
	return out
}

// RunWCC executes label propagation to convergence.
func RunWCC(e *Engine) *WCCApp {
	n := e.G.N
	app := &WCCApp{labels: make([]int32, n)}
	for v := range app.labels {
		app.labels[v] = int32(v)
	}
	prog := &wccProg{app: app}
	e.Run(prog, nil, true, 0)
	return app
}

type wccProg struct{ app *WCCApp }

func (p *wccProg) GatherDir() Dir { return Both }

// Gather boxes the neighbor's label (PowerGraph's generic gather type).
func (p *wccProg) Gather(v, nbr graph.VertexID) Accum {
	return atomic.LoadInt32(&p.app.labels[nbr])
}

func (p *wccProg) Sum(a, b Accum) Accum {
	if a.(int32) < b.(int32) {
		return a
	}
	return b
}

func (p *wccProg) Apply(v graph.VertexID, acc Accum) bool {
	if acc == nil {
		return false
	}
	l := acc.(int32)
	for {
		cur := atomic.LoadInt32(&p.app.labels[v])
		if l >= cur {
			return false
		}
		if atomic.CompareAndSwapInt32(&p.app.labels[v], cur, l) {
			return true
		}
	}
}

func (p *wccProg) ScatterDir() Dir { return Both }

func (p *wccProg) Scatter(v, nbr graph.VertexID) bool {
	// Neighbors re-examine themselves next superstep.
	return atomic.LoadInt32(&p.app.labels[v]) < atomic.LoadInt32(&p.app.labels[nbr])
}

// RunBC computes single-source Brandes centrality with GAS-style
// per-edge processing: a forward level-synchronous phase accumulating
// path counts, then a backward phase over levels.
func RunBC(e *Engine, src graph.VertexID) []float64 {
	g := e.G
	n := g.N
	level := make([]int32, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	sigma[src] = 1
	var buckets [][]graph.VertexID
	frontier := []graph.VertexID{src}
	for depth := int32(1); len(frontier) > 0; depth++ {
		buckets = append(buckets, frontier)
		var next []graph.VertexID
		var mu sync.Mutex
		e.parallel(len(frontier), func(lo, hi int) {
			var local []graph.VertexID
			for _, v := range frontier[lo:hi] {
				for _, u := range g.Out(v) {
					toll(u, 0)
					if atomic.CompareAndSwapInt32(&level[u], -1, depth) {
						local = append(local, u)
					}
					if atomic.LoadInt32(&level[u]) == depth {
						addFloat64(&sigma[u], sigma[v])
					}
				}
			}
			mu.Lock()
			next = append(next, local...)
			mu.Unlock()
		})
		frontier = next
	}
	for i := len(buckets) - 1; i >= 1; i-- {
		bucket := buckets[i]
		e.parallel(len(bucket), func(lo, hi int) {
			for _, w := range bucket[lo:hi] {
				f := (1 + delta[w]) / sigma[w]
				for _, v := range g.In(w) {
					toll(v, f)
					if level[v] == level[w]-1 {
						addFloat64(&delta[v], sigma[v]*f)
					}
				}
			}
		})
	}
	delta[src] = 0
	return delta
}

// addFloat64 atomically adds to a float64 via CAS on its bit pattern.
func addFloat64(p *float64, x float64) {
	addr := (*uint64)(unsafe.Pointer(p))
	for {
		old := atomic.LoadUint64(addr)
		nw := math.Float64frombits(old) + x
		if atomic.CompareAndSwapUint64(addr, old, math.Float64bits(nw)) {
			return
		}
	}
}

// gatherSets is the gather both neighbourhood apps open with: every
// vertex's undirected neighbor list, and the same list as a hash set.
func gatherSets(g *csr.Graph) ([][]graph.VertexID, []map[graph.VertexID]struct{}) {
	nbrs := make([][]graph.VertexID, g.N)
	sets := make([]map[graph.VertexID]struct{}, g.N)
	var buf []graph.VertexID
	for v := range g.N {
		buf = g.Neighbors(graph.VertexID(v), buf)
		nbrs[v] = slices.Clone(buf)
		sets[v] = make(map[graph.VertexID]struct{}, len(buf))
		for _, u := range nbrs[v] {
			sets[v][u] = struct{}{}
		}
	}
	return nbrs, sets
}

// RunTC counts triangles the way PowerGraph's toolkit does: each vertex
// gathers its neighbor set into a hash set, and every edge's
// intersection probes the set element-wise through the generic per-edge
// path (hash probing plus the boxed-functor toll — no hand-tuned sorted
// merges).
func RunTC(e *Engine) int64 {
	nbrs, sets := gatherSets(e.G)
	var total int64
	e.parallel(e.G.N, func(lo, hi int) {
		var local int64
		for v := lo; v < hi; v++ {
			nv := nbrs[v]
			sv := sets[v]
			for _, u := range nv {
				if u <= graph.VertexID(v) {
					continue
				}
				// Probe the smaller endpoint's set with the larger list,
				// counting third corners above u.
				for _, w := range nbrs[u] {
					toll(w, 0)
					if w <= u {
						continue
					}
					if _, ok := sv[w]; ok {
						local++
					}
				}
			}
		}
		atomic.AddInt64(&total, local)
	})
	return total
}

// RunScanStat computes the max locality statistic with hash-set
// neighborhood gathers and no pruning — PowerGraph's GAS model has no
// custom vertex scheduler, which is exactly the paper's point about
// FlashGraph's flexible scheduling (§3.7).
func RunScanStat(e *Engine) int64 {
	nbrs, sets := gatherSets(e.G)
	var best int64
	e.parallel(e.G.N, func(lo, hi int) {
		var localBest int64
		for v := lo; v < hi; v++ {
			nv := nbrs[v]
			sv := sets[v]
			var among int64
			for _, u := range nv {
				for _, w := range nbrs[u] {
					toll(w, 0)
					if _, ok := sv[w]; ok {
						among++
					}
				}
			}
			if scan := int64(len(nv)) + among/2; scan > localBest {
				localBest = scan
			}
		}
		for {
			cur := atomic.LoadInt64(&best)
			if localBest <= cur || atomic.CompareAndSwapInt64(&best, cur, localBest) {
				break
			}
		}
	})
	return best
}
