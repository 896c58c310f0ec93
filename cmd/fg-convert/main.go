// Command fg-convert builds a FlashGraph image from a text edge list:
// the compact on-SSD representation (separate ID-sorted in-/out-edge
// list files) plus metadata, in one portable file. The expensive
// construction is amortized: FlashGraph uses a single image for every
// algorithm (§3.5.2).
//
// The conversion is out-of-core: edges stream from the input file
// into an external sort bounded by -mem, so edge lists far larger
// than RAM convert on commodity machines. It uses a second core:
// chunks of the sort buffer sort in the background while edges stream
// in, and the out- and in-edge files are sized and encoded side by
// side. On completion the tool
// reports the Table 2 "init time" numbers — elapsed time, edges/sec,
// and the builder's peak memory.
//
// With -reencode, -in is an existing image instead of an edge list and
// the tool rewrites it in the -encoding layout. The stored bytes are
// decoded straight into the target encoder (the image is opened
// file-backed), so converting between raw, delta, and block layouts
// never round-trips through an edge list and never materializes the
// graph in memory.
//
// Usage:
//
//	fg-convert -in twitter.el -out twitter.fg
//	fg-convert -in roads.el -out roads.fg -weights    # 4-byte edge weights
//	fg-convert -in huge.el -out huge.fg -mem 512      # 512MiB build budget
//	fg-convert -reencode -in twitter.fg -out twitter-block.fg -encoding block
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"flashgraph"
	"flashgraph/internal/graph"
	"flashgraph/internal/ssd"
	"flashgraph/internal/util"
)

// dropOSCache syncs the finished image and asks the kernel to evict it
// from the page cache, so a subsequent fg-serve -direct run measures
// cold-device behavior instead of reading the builder's leftovers.
func dropOSCache(path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Printf("drop-cache: %v", err)
		return
	}
	defer f.Close()
	if err := ssd.DropOSCache(f); err != nil {
		log.Printf("drop-cache: %v", err)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fg-convert: ")
	var (
		in         = flag.String("in", "", "input edge list (text)")
		out        = flag.String("out", "", "output image path")
		undirected = flag.Bool("undirected", false, "treat edges as undirected")
		encoding   = flag.String("encoding", "raw", "edge-list layout, raw | delta | block (delta stores sorted neighbor IDs as varint gaps; block is the 2D edge-block layout for the SpMV engine)")
		reencode   = flag.Bool("reencode", false, "treat -in as an existing image and rewrite it in the -encoding layout (no edge-list round trip)")
		weights    = flag.Bool("weights", false, "attach deterministic 4-byte edge weights (SSSP demos)")
		keepDupes  = flag.Bool("keep-duplicates", false, "keep duplicate edges and self loops")
		memMB      = flag.Int64("mem", 256, "builder memory budget (MiB), split across the two direction sorts: their buffers, sorted in eighths on background goroutines as edges stream in, and the read buffers of any merge of spilled runs")
		tmpDir     = flag.String("tmp", "", "directory for spilled sort runs and the in-edge spool (default system temp)")
		dropCache  = flag.Bool("drop-cache", false, "evict the written image from the OS page cache (fsync + fadvise) so serving it -direct starts cold")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		log.Fatal("need -in and -out")
	}
	enc, err := flashgraph.ParseEncoding(*encoding)
	if err != nil {
		log.Fatal(err)
	}

	if *reencode {
		start := time.Now()
		g, err := flashgraph.OpenGraphFile(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer g.Close()
		from := g.Encoding()
		if err := g.SaveFileAs(*out, enc); err != nil {
			log.Fatal(err)
		}
		outG, err := flashgraph.OpenGraphFile(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer outG.Close()
		fmt.Fprintf(os.Stderr,
			"fg-convert: re-encoded %s vertices, %s edges: %s (%s) -> %s (%s) in %v\n",
			util.HumanCount(int64(g.NumVertices())),
			util.HumanCount(g.NumEdges()),
			from, util.HumanBytes(g.SizeBytes()),
			enc, util.HumanBytes(outG.SizeBytes()),
			time.Since(start).Round(time.Millisecond),
		)
		if *dropCache {
			dropOSCache(*out)
		}
		return
	}

	attrSize := 0
	var attr flashgraph.AttrFunc
	if *weights {
		attrSize = 4
		attr = func(src, dst graph.VertexID, buf []byte) {
			w := (uint32(src)*2654435761 ^ uint32(dst)*40503) % 1000
			binary.LittleEndian.PutUint32(buf, w+1)
		}
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	st, err := flashgraph.BuildGraphFile(*out, func(emit func(flashgraph.Edge) error) error {
		return graph.ScanEdgeList(f, emit)
	}, flashgraph.BuildOptions{
		Directed:       !*undirected,
		Encoding:       enc,
		AttrSize:       attrSize,
		Attr:           attr,
		MemBytes:       *memMB << 20,
		TmpDir:         *tmpDir,
		KeepDuplicates: *keepDupes,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"fg-convert: %s vertices, %s edges (%s read), image %s (index %s in memory)\n",
		util.HumanCount(int64(st.NumV)),
		util.HumanCount(st.NumEdges),
		util.HumanCount(st.InputEdges),
		util.HumanBytes(st.DataBytes),
		util.HumanBytes(st.IndexBytes),
	)
	fmt.Fprintf(os.Stderr,
		"fg-convert: built in %v (%.0f edges/s), peak builder memory %s, %d spilled runs\n",
		st.Elapsed.Round(time.Millisecond),
		st.EdgesPerSec(),
		util.HumanBytes(st.PeakMemBytes),
		st.Spills,
	)
	if *dropCache {
		dropOSCache(*out)
	}
}
