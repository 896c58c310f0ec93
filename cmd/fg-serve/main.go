// Command fg-serve runs a FlashGraph query daemon: a catalog of named
// graphs loaded into ONE shared semi-external-memory substrate (SAFS
// instance, page cache, simulated SSD array), serving many algorithm
// queries concurrently with admission control and typed, queryable
// results.
//
// In semi-external-memory mode (the default) images are opened
// file-backed: only the container header and compact index enter RAM,
// edge data streams disk → SAFS in chunks and is read back through
// the shared page cache — graphs larger than memory serve normally.
// In-memory mode (-mem, the paper's FG-mem) decodes images fully.
//
// Usage:
//
//	fg-serve -graph twitter.fg                        # serve one image (name = file base)
//	fg-serve -graph social=a.fg -graph web=b.fg       # a multi-graph catalog
//	fg-serve -rmat 14 -epv 16                         # serve a generated graph ("rmat")
//	fg-serve -graph g.fg -max-concurrent 8 -addr :9090
//
// API (the full surface lives in internal/serve's Handler):
//
//	POST /queries   {"version":1,"graph":"social","algo":"bfs","params":{"src":0}} -> 202 {"id":1,...}
//	GET  /queries/{id}                   poll (?wait=1 blocks)
//	GET  /queries/{id}/result            typed summary: scalars, vector metadata, checksum
//	GET  /queries/{id}/result/lookup     ?vertex=V[&vector=name]
//	GET  /queries/{id}/result/topk       ?k=K[&offset=N][&vector=name]
//	GET  /queries/{id}/result/histogram  ?bins=B[&vector=name]
//	GET  /graphs | /algos | /queries | /stats | /healthz
//
// Algorithms come from the open registry (GET /algos lists name, doc,
// capability requirements, and param schema): the built-ins — bfs,
// pagerank, ppagerank, wcc, bc, tc, kcore (undirected images), sssp
// (weighted images), scanstat — plus anything registered through
// flashgraph.Register. The daemon is a thin shell over
// flashgraph.NewServer; embed that to serve custom vertex programs
// (see examples/custom).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"flashgraph"
	"flashgraph/internal/util"
)

// graphSpec is one -graph flag value: "name=path" or bare "path".
type graphSpec struct{ name, path string }

func main() {
	log.SetFlags(0)
	log.SetPrefix("fg-serve: ")
	var specs []graphSpec
	var (
		addr          = flag.String("addr", ":8090", "HTTP listen address")
		rmatScale     = flag.Int("rmat", 0, "also serve a generated RMAT graph of 2^scale vertices")
		rmatName      = flag.String("rmat-name", "rmat", "catalog name for the -rmat graph")
		epv           = flag.Int("epv", 8, "edges per vertex for -rmat")
		seed          = flag.Uint64("seed", 1, "generator seed for -rmat")
		inMemory      = flag.Bool("mem", false, "in-memory mode (FG-mem)")
		cacheMB       = flag.Int64("cache-mb", 64, "SAFS page cache size (MiB), shared by all graphs")
		threads       = flag.Int("threads", 8, "worker threads per query")
		devices       = flag.Int("devices", 4, "simulated SSDs")
		throttle      = flag.Bool("throttle", false, "realistic SSD timing")
		storeDir      = flag.String("store-dir", "", "back the simulated SSD array with files in this directory (one per device)")
		directIO      = flag.Bool("direct", false, "open -store-dir device files with O_DIRECT (raw I/O path, no OS page cache)")
		maxConcurrent = flag.Int("max-concurrent", 4, "queries executing simultaneously")
		maxQueued     = flag.Int("max-queued", 64, "admitted queries waiting for a slot")
		maxHistory    = flag.Int("max-history", 1024, "finished queries retained for polling")
		resultMB      = flag.Int64("result-mb", 64, "the one byte budget for finished full result vectors (MiB): lookup/top-K, and hits on identical re-submits; 0 retains nothing")
		quotaRate     = flag.Float64("quota-rate", 0, "per-tenant admission rate (queries/sec, token bucket); 0 disables quotas")
		quotaBurst    = flag.Float64("quota-burst", 0, "per-tenant burst capacity; 0 means 4x -quota-rate")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight queries on SIGINT/SIGTERM")
	)
	flag.Func("graph", "FlashGraph image to serve, as name=path or path (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok {
			path = v
			name = strings.TrimSuffix(filepath.Base(v), filepath.Ext(v))
		}
		if name == "" || path == "" {
			return fmt.Errorf("bad -graph %q: want name=path or path", v)
		}
		specs = append(specs, graphSpec{name, path})
		return nil
	})
	flag.Parse()

	cat := flashgraph.NewCatalog(flashgraph.Options{
		InMemory:   *inMemory,
		Threads:    *threads,
		CacheBytes: *cacheMB << 20,
		Devices:    *devices,
		Throttle:   *throttle,
		StoreDir:   *storeDir,
		DirectIO:   *directIO,
	})
	defer cat.Close()

	for _, spec := range specs {
		// Semi-external-memory catalogs serve images file-backed: only
		// the header and compact index enter RAM, edge data streams
		// disk → SAFS and is read back through the shared page cache.
		// In-memory mode (FG-mem) needs the decoded image.
		var eng *flashgraph.Engine
		var err error
		mode := "file-backed"
		if *inMemory {
			mode = "decoded"
			var g *flashgraph.Graph
			if g, err = flashgraph.LoadFile(spec.path); err == nil {
				eng, err = cat.Add(spec.name, g)
			}
		} else {
			eng, err = cat.AddFile(spec.name, spec.path)
		}
		if err != nil {
			log.Fatal(err)
		}
		logGraph(spec.name, mode, eng)
	}
	if *rmatScale > 0 {
		g := flashgraph.NewGraph(1<<*rmatScale, flashgraph.GenerateRMAT(*rmatScale, *epv, *seed), flashgraph.Directed)
		eng, err := cat.Add(*rmatName, g)
		if err != nil {
			log.Fatal(err)
		}
		logGraph(*rmatName, "generated", eng)
	}
	names := cat.Graphs()
	if len(names) == 0 {
		log.Fatal("need at least one -graph or -rmat (build an image with fg-gen | fg-convert)")
	}

	// The first graph is the default route for unqualified requests.
	// -result-mb 0 means "retain nothing" (the config uses 0 as its
	// own default sentinel, so translate to the negative convention).
	resultBytes := *resultMB << 20
	if *resultMB <= 0 {
		resultBytes = -1
	}
	// The daemon is the public server, verbatim: the same constructor,
	// registry, and HTTP handler a library embedder gets.
	srv, err := flashgraph.NewServer(cat, flashgraph.ServerConfig{
		MaxConcurrent: *maxConcurrent,
		MaxQueued:     *maxQueued,
		MaxHistory:    *maxHistory,
		ResultBytes:   resultBytes,
		QoS: flashgraph.QoSConfig{
			QuotaRate:  *quotaRate,
			QuotaBurst: *quotaBurst,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	algos := make([]string, 0, len(srv.Algorithms()))
	for _, a := range srv.Algorithms() {
		algos = append(algos, a.Name)
	}
	log.Printf("catalog: %d graphs on one shared substrate (default %q)", len(names), names[0])
	log.Printf("scheduler: %d concurrent slots, queue depth %d, %s result budget; algorithms: %v",
		*maxConcurrent, *maxQueued, util.HumanBytes(*resultMB<<20), algos)
	if *quotaRate > 0 {
		log.Printf("quota: %.3g q/s per tenant", *quotaRate)
	}
	if *storeDir != "" {
		mode := "buffered+fadvise"
		if *directIO {
			mode = "O_DIRECT"
		}
		log.Printf("store: %d device files under %s (%s)", *devices, *storeDir, mode)
	}
	log.Printf("listening on %s", *addr)

	server := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}

	// Graceful drain: on SIGINT/SIGTERM stop admitting (Submit answers
	// 503 so load balancers fail over), let in-flight and queued
	// queries finish within -drain-timeout, flush final stats to the
	// log, and exit. A second signal aborts immediately.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()

	select {
	case err := <-errCh:
		log.Fatal(err)
	case sig := <-sigCh:
		log.Printf("received %v: draining (in-flight queries finish, new submissions get 503)", sig)
	}
	srv.Drain()
	done := make(chan struct{})
	go func() {
		srv.Close() // blocks until queued + running queries finish
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(*drainTimeout):
		log.Printf("drain timed out after %v; exiting with queries in flight", *drainTimeout)
	case sig := <-sigCh:
		log.Printf("received second %v: aborting drain", sig)
	}
	// Stop the HTTP listener after the computation drains: read
	// endpoints (stats, results) answer to the very end.
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := server.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	flushStats(srv)
}

// flushStats writes the server's final traffic counters to the log as
// one JSON line — the drain-time flight recorder.
func flushStats(srv *flashgraph.Server) {
	b, err := json.Marshal(srv.Stats())
	if err != nil {
		return
	}
	log.Printf("final stats: %s", b)
}

func logGraph(name, mode string, eng *flashgraph.Engine) {
	img := eng.Shared().Image()
	log.Printf("graph %q (%s): %d vertices, %d edges, %s on SSD, %s index",
		name, mode, img.NumV, img.NumEdges, util.HumanBytes(img.DataSize()), util.HumanBytes(img.IndexMemory()))
}
