package core_test

import (
	"fmt"
	"testing"

	"flashgraph/internal/algo"
	"flashgraph/internal/core"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
)

// TestPartitionChecksumsAcrossThreadsAndShifts: who owns a vertex must
// never change an answer. BFS, PageRank and WCC give one checksum each
// across Threads {1, 2, 3, 8} × RangeShift {2, 6}, in memory and SEM,
// on an image large enough that ranges span several granules.
func TestPartitionChecksumsAcrossThreadsAndShifts(t *testing.T) {
	if testing.Short() {
		t.Skip("48 runs on a scale-14 image")
	}
	a := graph.FromEdges(1<<14, gen.RMAT(14, 4, 3), true)
	a.Dedup()
	img := graph.BuildImage(a, 0, nil)
	algos := []struct {
		name  string
		build func() core.Program
	}{
		{"bfs", func() core.Program { return algo.NewBFS(0) }},
		{"pagerank", func() core.Program { p := algo.NewPageRank(); p.Iters = 10; return p }},
		{"wcc", func() core.Program { return algo.NewWCC() }},
	}
	want := map[string]string{}
	for _, sem := range []bool{false, true} {
		for _, threads := range []int{1, 2, 3, 8} {
			for _, shift := range []uint{2, 6} {
				t.Run(fmt.Sprintf("sem=%v/threads%d/shift%d", sem, threads, shift), func(t *testing.T) {
					cfg := core.Config{Threads: threads, RangeShift: shift, InMemory: !sem}
					if sem {
						arr := ssd.NewArray(ssd.ArrayParams{Devices: 2, StripeSize: 16 * 4096})
						t.Cleanup(arr.Close)
						cfg.FS = safs.New(arr, safs.Config{CacheBytes: 256 << 10})
					}
					shared, err := core.NewShared(img, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if g := shared.MaxRangeGranules(); g < 4 {
						t.Fatalf("longest range spans %d granules: the case does not leave (v >> r) %% T", g)
					}
					for _, al := range algos {
						prog := al.build()
						if _, err := shared.NewRun().Run(prog); err != nil {
							t.Fatal(err)
						}
						sum := result.From(prog, al.name).Checksum()
						if w, ok := want[al.name]; !ok {
							want[al.name] = sum
						} else if sum != w {
							t.Errorf("%s: checksum %s, want %s (in memory, Threads 1, RangeShift 2)", al.name, sum, w)
						}
					}
				})
			}
		}
	}
}
