package main

import (
	"fmt"

	"flashgraph/internal/baseline/galois"
	"flashgraph/internal/csr"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
	"flashgraph/internal/util"
)

// The oracle computes every query's expected answer without the engine:
// a csr.Graph built from the same edge stream the image builder saw,
// galois.BFS and galois.WCC over it, and a sequential re-statement of
// the Q16.48 delta PageRank contract. Answers are reduced to
// ResultSet checksums; the graph is released before pass 0.

// query is one unit of a workload's fixed, seed-derived list.
type query struct {
	Algo  string         `json:"algo"`
	Src   graph.VertexID `json:"src,omitempty"`
	Iters int            `json:"iters,omitempty"`
	want  string         // oracle checksum
}

func (q query) String() string {
	switch q.Algo {
	case "bfs":
		return fmt.Sprintf("bfs(src=%d)", q.Src)
	case "pagerank":
		return fmt.Sprintf("pagerank(iters=%d)", q.Iters)
	}
	return q.Algo
}

// oracleGraph builds the reference CSR from the teed edge stream with
// the builder's own cleaning rule (sorted lists, no duplicates, no
// self-loops).
func oracleGraph(n int, edges []graph.Edge) *csr.Graph {
	a := graph.FromEdges(n, edges, true)
	a.Dedup()
	return csr.FromAdjacency(a)
}

// buildQueries derives the workload's query list from the seed and
// fills in each expected checksum.
func buildQueries(spec workloadSpec, seed uint64, g *csr.Graph) []query {
	rng := util.NewRNG(seed ^ 0x5bd1e995)
	source := func() graph.VertexID {
		for {
			v := graph.VertexID(rng.Intn(g.N))
			if g.OutDegree(v) > 0 {
				return v
			}
		}
	}
	var qs []query
	switch spec.name {
	case "pr_sem":
		qs = []query{{Algo: "pagerank", Iters: pageRankIters}}
	case "bfs_sem":
		for i := 0; i < bfsSources; i++ {
			qs = append(qs, query{Algo: "bfs", Src: source()})
		}
	case "spmv_sweep":
		qs = []query{{Algo: "pagerank", Iters: pageRankIters}, {Algo: "wcc"}}
	case "serve_mix":
		// bfs with every 4th repeating an earlier source, and one
		// pagerank after every 10 bfs; the iteration counts are all
		// distinct, so no pagerank is ever a cache hit.
		var bfs []graph.VertexID
		every := serveBFS / servePageRanks
		for i := 0; i < serveBFS; i++ {
			src := source()
			if i%serveRepeatMod == serveRepeatMod-1 {
				src = bfs[rng.Intn(len(bfs))]
			}
			bfs = append(bfs, src)
			qs = append(qs, query{Algo: "bfs", Src: src})
			if i%every == every-1 {
				qs = append(qs, query{Algo: "pagerank", Iters: servePRIterLo + servePRIterGap*(i/every)})
			}
		}
	}
	memo := map[string]string{}
	for i := range qs {
		key := qs[i].String()
		if _, ok := memo[key]; !ok {
			memo[key] = oracleChecksum(g, qs[i])
		}
		qs[i].want = memo[key]
	}
	return qs
}

func oracleChecksum(g *csr.Graph, q query) string {
	switch q.Algo {
	case "bfs":
		level := galois.BFS(g, q.Src)
		var reached int64
		for _, l := range level {
			if l >= 0 {
				reached++
			}
		}
		rs := result.New("bfs")
		rs.AddScalar("reached", reached)
		rs.AddInt32("level", level).WithSentinel(int32(-1))
		return rs.Checksum()
	case "wcc":
		labels := galois.WCC(g)
		seen := make(map[graph.VertexID]struct{})
		for _, l := range labels {
			seen[l] = struct{}{}
		}
		rs := result.New("wcc")
		rs.AddScalar("components", len(seen))
		rs.AddUint32("component", labels)
		return rs.Checksum()
	case "pagerank":
		rs := result.New("pagerank")
		rs.AddFloat64("score", referencePageRank(g, q.Iters))
		return rs.Checksum()
	}
	panic("benchmark: no oracle for " + q.Algo)
}

// referencePageRank restates the engines' delta PageRank contract as
// one sequential loop: damping 0.85, threshold 1e-7, deltas carried as
// Q16.48 integers so accumulation order cannot matter. An active vertex
// absorbs its pending delta into its score and pushes the damped,
// degree-normalised share along every out-edge; a vertex becomes active
// when its pending delta crosses the threshold.
func referencePageRank(g *csr.Graph, iters int) []float64 {
	// Variables, not constants: the engines convert their float settings
	// at run time, and constant folding would round differently.
	const scale = float64(1 << 48)
	damping, threshold := 0.85, 1e-7
	n := g.N
	score := make([]float64, n)
	accum := make([]int64, n)
	share := make([]int64, n)
	active := make([]bool, n)
	next := make([]bool, n)
	thr := int64(threshold * scale)
	base := int64((1 - damping) * scale)
	for v := range accum {
		accum[v] = base
		active[v] = true
	}
	for it := 0; it < iters; it++ {
		pushing, any := false, false
		for v := 0; v < n; v++ {
			share[v] = 0
			if !active[v] {
				continue
			}
			any = true
			active[v] = false
			d := accum[v]
			if d == 0 {
				continue
			}
			accum[v] = 0
			score[v] += float64(d) / scale
			if deg := g.OutDegree(graph.VertexID(v)); deg > 0 {
				share[v] = int64(damping * float64(d) / float64(deg))
				pushing = pushing || share[v] != 0
			}
		}
		if !any || !pushing {
			break
		}
		for v := 0; v < n; v++ {
			s := share[v]
			if s == 0 {
				continue
			}
			for _, c := range g.Out(graph.VertexID(v)) {
				was := accum[c] <= thr
				accum[c] += s
				if was && accum[c] > thr {
					next[c] = true
				}
			}
		}
		active, next = next, active
	}
	return score
}
