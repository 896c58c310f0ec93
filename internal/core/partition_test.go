package core

import (
	"fmt"
	"testing"

	"flashgraph/internal/graph"
)

// checkSpans asserts that p's spans cover [0, n) disjointly, that every
// span is a run of whole granules, and that the table agrees with them.
func checkSpans(t *testing.T, p partition, n, threads int) {
	t.Helper()
	owner := make([]int, n)
	for v := range owner {
		owner[v] = -1
	}
	for w, spans := range p.spans {
		prev := -1
		for _, s := range spans {
			if s[0] >= s[1] || s[0] <= prev || s[0]&(1<<p.shift-1) != 0 || (s[1] != n && s[1]&(1<<p.shift-1) != 0) {
				t.Fatalf("worker %d: span %v after %d is not an ascending run of whole granules", w, s, prev)
			}
			prev = s[1] - 1
			for v := s[0]; v < s[1]; v++ {
				if owner[v] >= 0 {
					t.Fatalf("vertex %d in the spans of workers %d and %d", v, owner[v], w)
				}
				owner[v] = w
			}
		}
	}
	if len(p.spans) != threads {
		t.Fatalf("%d span lists for %d workers", len(p.spans), threads)
	}
	for v, w := range owner {
		if w < 0 {
			t.Fatalf("vertex %d in no span", v)
		}
		if got := p.of(graph.VertexID(v)); got != w {
			t.Fatalf("vertex %d: table says worker %d, spans say %d", v, got, w)
		}
	}
}

// maxRangeGranules returns the most granules any one range of p spans.
func maxRangeGranules(p partition) int {
	most := 0
	for _, spans := range p.spans {
		for _, s := range spans {
			most = max(most, (s[1]-s[0]+1<<p.shift-1)>>p.shift)
		}
	}
	return most
}

// MaxRangeGranules exposes maxRangeGranules to the external tests.
func (s *Shared) MaxRangeGranules() int { return maxRangeGranules(s.part) }

func TestPartitionSpansCoverDisjointly(t *testing.T) {
	for _, c := range []struct{ scale, epv int }{{3, 2}, {8, 4}, {12, 8}} {
		img, _ := buildTestImage(t, c.scale, c.epv, 5)
		for _, threads := range []int{1, 2, 3, 8} {
			for _, shift := range []uint{1, 2, 6} {
				t.Run(fmt.Sprintf("scale%d/threads%d/shift%d", c.scale, threads, shift), func(t *testing.T) {
					checkSpans(t, newPartition(img, threads, shift), img.NumV, threads)
				})
			}
		}
	}
}

// TestPartitionTinyImageIsModulo: an image with too few granules for
// rangesPerThread ranges per worker is partitioned (v >> r) % T.
func TestPartitionTinyImageIsModulo(t *testing.T) {
	img, _ := buildTestImage(t, 8, 4, 9)
	for _, threads := range []int{1, 2, 3, 8} {
		for _, shift := range []uint{2, 4, 6} {
			if img.NumV>>shift > threads*rangesPerThread {
				continue // not tiny at this (T, r)
			}
			p := newPartition(img, threads, shift)
			for v := range img.NumV {
				if got, want := p.of(graph.VertexID(v)), (v>>shift)%threads; got != want {
					t.Fatalf("T=%d r=%d: vertex %d owned by %d, want %d", threads, shift, v, got, want)
				}
			}
		}
	}
}

// TestPartitionBalancesRMATEdges: R-MAT sets every ID bit with p ≈ 0.24,
// so (v >> r) % 2 gives worker 0 about 76% of the edges in both
// directions. Ranges cut by edge bytes give each worker its share.
func TestPartitionBalancesRMATEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scale-16 image")
	}
	img, _ := buildTestImage(t, 16, 16, 1)
	for _, threads := range []int{2, 3, 8} {
		p := newPartition(img, threads, 6)
		checkSpans(t, p, img.NumV, threads)
		for _, ix := range []*graph.Index{img.OutIndex, img.InIndex} {
			edges := make([]int64, threads)
			for w, spans := range p.spans {
				for _, s := range spans {
					for v := s[0]; v < s[1]; v++ {
						edges[w] += int64(ix.Degree(graph.VertexID(v)))
					}
				}
			}
			lo, hi := edges[0], edges[0]
			for _, e := range edges {
				lo, hi = min(lo, e), max(hi, e)
			}
			share := float64(edges[0]) / float64(ix.NumEdges())
			t.Logf("T=%d: per-worker edges %v (worker 0 share %.3f, max/min %.3f)", threads, edges, share, float64(hi)/float64(lo))
			if threads == 2 && (share < 0.4 || share > 0.6) {
				t.Errorf("T=2: worker 0 owns %.3f of the edges, want within [0.4, 0.6]", share)
			}
			if float64(hi) > 1.25*float64(lo) {
				t.Errorf("T=%d: max/min edges %d/%d > 1.25", threads, hi, lo)
			}
		}
	}
}
