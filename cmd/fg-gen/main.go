// Command fg-gen generates synthetic graphs with the generators used
// for the paper's dataset stand-ins. Edges stream from the generator
// to the output one at a time — the tool never holds an edge list —
// so billion-edge outputs need only the -mem build budget.
//
// Two output forms:
//
//	fg-gen -kind rmat -scale 16 -epv 16 -out twitter.el        # text edge list
//	fg-gen -kind rmat -scale 24 -epv 16 -image twitter.fg      # FlashGraph image, built
//	fg-gen -kind clustered -domains 512 -epv 12 -image page.fg #   out-of-core under -mem
//	fg-gen -kind er -n 100000 -m 1000000 -out uniform.el
//
// On completion the tool reports elapsed time, edges/sec, and (for
// -image) the builder's peak memory — the Table 2 "init time"
// numbers, now observable.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"flashgraph"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/util"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fg-gen: ")
	var (
		kind       = flag.String("kind", "rmat", "generator: rmat | er | clustered | ring | grid")
		scale      = flag.Int("scale", 14, "rmat: log2 of vertex count")
		epv        = flag.Int("epv", 16, "edges per vertex (rmat, clustered)")
		n          = flag.Int("n", 1<<14, "er/ring: vertex count")
		m          = flag.Int("m", 1<<18, "er: edge count")
		domains    = flag.Int("domains", 256, "clustered: number of domains")
		domainSize = flag.Int("domain-size", 96, "clustered: vertices per domain")
		rows       = flag.Int("rows", 128, "grid: rows")
		cols       = flag.Int("cols", 128, "grid: cols")
		chords     = flag.Int("chords", 0, "ring: extra shortcut edges")
		seed       = flag.Uint64("seed", 1, "generator seed")
		out        = flag.String("out", "", "text edge-list output path (default stdout)")
		image      = flag.String("image", "", "build a FlashGraph image directly at this path instead of text")
		undirected = flag.Bool("undirected", false, "image: treat edges as undirected")
		encoding   = flag.String("encoding", "raw", "image: edge-list layout, raw | delta | block (delta stores sorted neighbor IDs as varint gaps; block is the 2D edge-block layout for the SpMV engine)")
		memMB      = flag.Int64("mem", 256, "image: builder memory budget (MiB)")
		tmpDir     = flag.String("tmp", "", "image: directory for spilled sort runs")
	)
	flag.Parse()
	enc, err := flashgraph.ParseEncoding(*encoding)
	if err != nil {
		log.Fatal(err)
	}

	var source flashgraph.EdgeSource
	switch *kind {
	case "rmat":
		source = func(emit func(graph.Edge) error) error {
			return gen.RMATStream(*scale, *epv, *seed, emit)
		}
	case "er":
		source = func(emit func(graph.Edge) error) error {
			return gen.ERStream(*n, *m, *seed, emit)
		}
	case "clustered":
		source = func(emit func(graph.Edge) error) error {
			return gen.ClusteredStream(gen.ClusteredConfig{
				Domains:        *domains,
				DomainSize:     *domainSize,
				EdgesPerVertex: *epv,
				Seed:           *seed,
			}, emit)
		}
	case "ring":
		source = func(emit func(graph.Edge) error) error {
			return gen.RingStream(*n, *chords, *seed, emit)
		}
	case "grid":
		source = func(emit func(graph.Edge) error) error {
			return gen.GridStream(*rows, *cols, emit)
		}
	default:
		log.Fatalf("unknown kind %q", *kind)
	}

	if *image != "" {
		st, err := flashgraph.BuildGraphFile(*image, source, flashgraph.BuildOptions{
			Directed: !*undirected,
			Encoding: enc,
			MemBytes: *memMB << 20,
			TmpDir:   *tmpDir,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr,
			"fg-gen: image %s: %s vertices, %s edges, %s on SSD, built in %v (%.0f edges/s), peak builder memory %s, %d spilled runs\n",
			*image,
			util.HumanCount(int64(st.NumV)),
			util.HumanCount(st.NumEdges),
			util.HumanBytes(st.DataBytes),
			st.Elapsed.Round(time.Millisecond),
			st.EdgesPerSec(),
			util.HumanBytes(st.PeakMemBytes),
			st.Spills,
		)
		return
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	start := time.Now()
	var count int64
	if err := source(func(e graph.Edge) error {
		count++
		_, err := fmt.Fprintf(bw, "%d %d\n", e.Src, e.Dst)
		return err
	}); err != nil {
		if *out != "" {
			os.Remove(*out)
		}
		log.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	eps := float64(count) / elapsed.Seconds()
	fmt.Fprintf(os.Stderr, "fg-gen: wrote %d edges in %v (%.0f edges/s)\n",
		count, elapsed.Round(time.Millisecond), eps)
}
