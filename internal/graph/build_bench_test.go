package graph

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkStreamBuild times ingest on its own: a pre-drawn scale-16
// R-MAT stream (16 edges per vertex) fed through a directed
// StreamBuilder into a raw image file, then re-encoded into the block
// layout, as the SpMV engine's images are made. It reports ns per input
// edge; the budget holds the stream in memory, so every sort runs in
// chunks and no run spills.
func BenchmarkStreamBuild(b *testing.B) {
	edges := rmatEdges(16, 16, 1)
	dir := b.TempDir()
	rawPath := filepath.Join(dir, "raw.fg")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb := NewStreamBuilder(BuildConfig{NumV: 1 << 16, Directed: true, MemBytes: 32 << 20, TmpDir: dir})
		for _, e := range edges {
			if err := sb.Add(e); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sb.WriteFile(rawPath); err != nil {
			b.Fatal(err)
		}
		img, err := OpenImageFile(rawPath)
		if err != nil {
			b.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, "block.fg"))
		if err != nil {
			b.Fatal(err)
		}
		if err := img.EncodeAs(f, EncodingBlock); err != nil {
			b.Fatal(err)
		}
		f.Close()
		img.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(edges)), "ns/edge")
}
