// Package flashgraph is a Go reproduction of FlashGraph (Zheng et al.,
// FAST'15): a semi-external-memory graph engine that keeps algorithmic
// vertex state in RAM, streams edge lists from an array of commodity
// SSDs through a user-space filesystem (SAFS), and reaches performance
// comparable to in-memory engines.
//
// The public API wraps the internal packages:
//
//   - build or load a graph (NewGraph, LoadImage, Generate* helpers);
//   - open an engine over it (Open), either semi-external-memory on a
//     simulated SSD array or fully in-memory;
//   - run built-in algorithms (BFS, PageRank, WCC, BC, TriangleCount,
//     ScanStat, KCore, SSSP, PPR) or any custom vertex program
//     implementing Algorithm;
//   - serve any of them — including custom programs published with
//     Register / AlgorithmSpec — concurrently over HTTP via NewServer
//     (see server.go and examples/custom).
//
// Quickstart:
//
//	g := flashgraph.NewGraph(4, []flashgraph.Edge{{0, 1}, {1, 2}, {2, 3}}, flashgraph.Directed)
//	eng, _ := flashgraph.Open(g, flashgraph.Options{})
//	defer eng.Close()
//	bfs := flashgraph.NewBFS(0)
//	stats, _ := eng.Run(bfs)
//	fmt.Println(bfs.Level, stats.Elapsed)
package flashgraph

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"flashgraph/internal/algo"
	"flashgraph/internal/core"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
)

// Core type aliases: vertex programs written against the public API use
// the same types the engine does.
type (
	// VertexID identifies a vertex.
	VertexID = graph.VertexID
	// Edge is a directed edge (src, dst).
	Edge = graph.Edge
	// EdgeDir selects an edge-list direction.
	EdgeDir = graph.EdgeDir
	// PageVertex is a decoded edge-list record handed to RunOnVertex.
	PageVertex = graph.PageVertex
	// Message is the unit of vertex communication.
	Message = core.Message
	// Ctx is the callback execution context.
	Ctx = core.Ctx
	// Algorithm is the vertex-program interface (Run, RunOnVertex,
	// RunOnMessage; see core.Algorithm for the full contract).
	Algorithm = core.Algorithm
	// RunStats reports timing, I/O, and memory for one run.
	RunStats = core.RunStats
	// AttrFunc generates per-edge attribute bytes at build time. The
	// out- and in-edge files are encoded side by side, so it must be
	// safe for concurrent use.
	AttrFunc = graph.AttrFunc
	// Encoding selects the on-SSD edge-list layout of a graph image.
	Encoding = graph.Encoding
	// ResultSet is the uniform typed result every built-in algorithm
	// returns from its Result method: named per-vertex vectors plus
	// named scalars, with point lookup, paginated top-K, reductions,
	// and a deterministic checksum.
	ResultSet = result.ResultSet
	// ResultVector is one named per-vertex property column.
	ResultVector = result.Vector
	// ResultEntry is one (vertex, value) pair from lookups and top-K.
	ResultEntry = result.Entry
)

// NewResultSet returns an empty ResultSet for the named algorithm —
// what a custom vertex program builds in its Result method (add
// vectors with AddInt32/AddUint32/AddUint64/AddFloat64/AddBool and
// scalars with AddScalar).
func NewResultSet(algorithm string) *ResultSet { return result.New(algorithm) }

// Edge directions.
const (
	// OutEdges selects out-edge lists.
	OutEdges = graph.OutEdges
	// InEdges selects in-edge lists (directed graphs).
	InEdges = graph.InEdges
)

// Directedness of a graph under construction.
const (
	// Directed builds separate in- and out-edge lists.
	Directed = true
	// Undirected stores each edge in both endpoints' lists.
	Undirected = false
)

// Edge-list encodings (the v2 container records the choice per image).
const (
	// EncodingRaw stores each neighbor as a raw 4-byte ID — fixed-size
	// records, O(1) random edge access. The default.
	EncodingRaw = graph.EncodingRaw
	// EncodingDelta stores sorted neighbor IDs as varint deltas —
	// data-dependent record sizes that cut bytes per edge on graphs
	// with ID locality, at the cost of sequential-only cheap decoding.
	EncodingDelta = graph.EncodingDelta
	// EncodingBlock partitions the edge list into a 2D grid of edge
	// blocks (CSR within each block, varint-delta columns) laid out so
	// one row stripe is one contiguous extent — the layout built for
	// the streaming SpMV engine. Block images have no per-vertex
	// records, so they serve only EngineSpMV.
	EncodingBlock = graph.EncodingBlock
)

// ParseEncoding converts an encoding name ("raw", "delta", "block") as
// used by the fg-gen/fg-convert -encoding flags into an Encoding.
func ParseEncoding(s string) (Encoding, error) { return graph.ParseEncoding(s) }

// Graph is an immutable FlashGraph image: compact edge-list files plus
// the in-memory index.
type Graph struct {
	img *graph.Image
}

// NewGraph builds a graph from an edge list. Duplicate edges and
// self-loops are removed; neighbor lists are sorted by ID (the on-SSD
// layout FlashGraph requires).
func NewGraph(numVertices int, edges []Edge, directed bool) *Graph {
	a := graph.FromEdges(numVertices, edges, directed)
	a.Dedup()
	return &Graph{img: graph.BuildImage(a, 0, nil)}
}

// NewWeightedGraph builds a graph whose edges carry 4-byte attributes
// generated by attr (e.g. SSSP weights).
func NewWeightedGraph(numVertices int, edges []Edge, directed bool, attr AttrFunc) *Graph {
	a := graph.FromEdges(numVertices, edges, directed)
	a.Dedup()
	return &Graph{img: graph.BuildImage(a, 4, attr)}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.img.NumV }

// NumEdges returns the edge count (undirected edges counted once).
func (g *Graph) NumEdges() int64 { return g.img.NumEdges }

// Directed reports edge-list layout.
func (g *Graph) Directed() bool { return g.img.Directed }

// SizeBytes returns the on-SSD size of the edge-list files.
func (g *Graph) SizeBytes() int64 { return g.img.DataSize() }

// Encoding reports the on-SSD edge-list layout of the image.
func (g *Graph) Encoding() Encoding { return g.img.Encoding }

// IndexBytes returns the in-memory index footprint (the paper's ~1.25
// B/vertex undirected, ~2.5 B/vertex directed).
func (g *Graph) IndexBytes() int64 { return g.img.IndexMemory() }

// OutDegree returns v's out-degree.
func (g *Graph) OutDegree(v VertexID) uint32 { return g.img.OutIndex.Degree(v) }

// Image exposes the underlying image for advanced integrations
// (benchmark harness, custom loaders).
func (g *Graph) Image() *graph.Image { return g.img }

// Save writes the graph image to w in FlashGraph's image format.
func (g *Graph) Save(w io.Writer) error { return g.img.Encode(w) }

// SaveAs writes the graph image to w re-encoded in the given edge-list
// layout — the conversion path behind fg-convert -reencode. The stored
// bytes are decoded straight into the target encoder, so converting
// between raw, delta, and block layouts never round-trips through an
// edge list or materializes an in-memory adjacency.
func (g *Graph) SaveAs(w io.Writer, enc Encoding) error { return g.img.EncodeAs(w, enc) }

// SaveFile writes the image to a file. The write is crash-safe: bytes
// land in a temp file that is fsynced and renamed over path only once
// complete, so an interrupted save never leaves a partial image.
func (g *Graph) SaveFile(path string) error {
	return graph.AtomicWriteFile(path, g.Save)
}

// SaveFileAs writes the image to a file re-encoded in the given
// edge-list layout (see SaveAs), with the same crash-safe temp-file
// and rename protocol as SaveFile.
func (g *Graph) SaveFileAs(path string, enc Encoding) error {
	return graph.AtomicWriteFile(path, func(w io.Writer) error { return g.SaveAs(w, enc) })
}

// Close releases the backing file of a file-backed graph
// (OpenGraphFile). It is a no-op, and safe, for in-memory graphs.
func (g *Graph) Close() error { return g.img.Close() }

// FileBacked reports whether edge data lives on disk (OpenGraphFile)
// rather than in RAM.
func (g *Graph) FileBacked() bool { return g.img.FileBacked() }

// Load reads a graph image written by Save.
func Load(r io.Reader) (*Graph, error) {
	img, err := graph.Decode(r)
	if err != nil {
		return nil, err
	}
	return &Graph{img: img}, nil
}

// LoadFile reads a graph image from a file, decoding edge data into
// RAM. For graphs larger than memory use OpenGraphFile instead.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// OpenGraphFile opens a graph image file without loading edge data
// into memory: only the container header and the compact index (the
// paper's ~1.25 B/vertex/direction) become resident, while edge lists
// stay on disk and are streamed into SAFS when the graph is opened or
// added to a Catalog. This is the serving path for graphs larger than
// RAM. Close the graph when done with it.
func OpenGraphFile(path string) (*Graph, error) {
	img, err := graph.OpenImageFile(path)
	if err != nil {
		return nil, err
	}
	return &Graph{img: img}, nil
}

// BuildStats reports what a streaming graph build cost.
type BuildStats = graph.BuildStats

// EdgeSource streams edges into a builder one at a time; implementors
// must call emit for every edge and propagate its error. The
// Generate*Stream helpers adapt the built-in generators.
type EdgeSource = func(emit func(Edge) error) error

// BuildOptions configures BuildGraphFile.
type BuildOptions struct {
	// NumVertices fixes the vertex count; 0 means "max ID seen + 1".
	NumVertices int
	// Directed selects separate in-/out-edge lists.
	Directed bool
	// Encoding selects the on-SSD edge-list layout (default
	// EncodingRaw). EncodingDelta delta-compresses the sorted neighbor
	// IDs — typically 25–40% smaller images, and proportionally fewer
	// SSD bytes per query, on graphs with ID locality.
	Encoding Encoding
	// AttrSize and Attr attach fixed-size per-edge attributes
	// (weights), generated deterministically at encode time.
	AttrSize int
	Attr     AttrFunc
	// MemBytes bounds the builder's sort memory (excluding the compact
	// index): the sort buffers and any merge's read buffers. Default
	// 256MiB.
	MemBytes int64
	// TmpDir receives spilled sort runs and the image writer's spools,
	// which hold both directions' encoded data bytes until the image is
	// written. Default: system temp dir.
	TmpDir string
	// KeepDuplicates retains duplicate edges and self-loops.
	KeepDuplicates bool
}

// BuildGraphFile constructs a graph image file from an edge stream
// under a fixed memory budget: edges are externally sorted (spilling
// runs to TmpDir) and the image is written sequentially, so graphs
// bounded by disk — not RAM — can be built. The result is served with
// OpenGraphFile / Catalog.AddFile.
func BuildGraphFile(path string, edges EdgeSource, opts BuildOptions) (*BuildStats, error) {
	b := graph.NewStreamBuilder(graph.BuildConfig{
		NumV:      opts.NumVertices,
		Directed:  opts.Directed,
		Encoding:  opts.Encoding,
		AttrSize:  opts.AttrSize,
		Attr:      opts.Attr,
		MemBytes:  opts.MemBytes,
		TmpDir:    opts.TmpDir,
		KeepDupes: opts.KeepDuplicates,
	})
	defer b.Close()
	if err := edges(b.Add); err != nil {
		return nil, fmt.Errorf("flashgraph: edge stream: %w", err)
	}
	st, err := b.WriteFile(path)
	if err != nil {
		return nil, fmt.Errorf("flashgraph: building %s: %w", path, err)
	}
	return st, nil
}

// ParseEdgeList reads a whitespace-separated text edge list.
func ParseEdgeList(r io.Reader) ([]Edge, int, error) { return graph.ParseEdgeList(r) }

// GenerateRMAT produces a power-law (Kronecker) edge list with 2^scale
// vertices — the stand-in for social/web graphs like Twitter.
func GenerateRMAT(scale, edgesPerVertex int, seed uint64) []Edge {
	return gen.RMAT(scale, edgesPerVertex, seed)
}

// GenerateClustered produces a domain-clustered web-like edge list (the
// stand-in for page-crawl graphs; good vertex-ID locality).
func GenerateClustered(domains, domainSize, edgesPerVertex int, seed uint64) []Edge {
	return gen.Clustered(gen.ClusteredConfig{
		Domains:        domains,
		DomainSize:     domainSize,
		EdgesPerVertex: edgesPerVertex,
		Seed:           seed,
	})
}

// GenerateRMATStream returns an EdgeSource emitting the exact edge
// sequence GenerateRMAT materializes, without ever holding it —
// feed it to BuildGraphFile to build power-law graphs larger than RAM.
// The edges are drawn on every core and emitted in order on the
// calling goroutine, never concurrently; the sequence does not depend
// on GOMAXPROCS. The source fails for a scale outside 1..32 or a
// negative edgesPerVertex, which GenerateRMAT rejects with a panic.
func GenerateRMATStream(scale, edgesPerVertex int, seed uint64) EdgeSource {
	return func(emit func(Edge) error) error {
		return gen.RMATStream(scale, edgesPerVertex, seed, emit)
	}
}

// GenerateClusteredStream returns an EdgeSource emitting the exact
// edge sequence GenerateClustered materializes.
func GenerateClusteredStream(domains, domainSize, edgesPerVertex int, seed uint64) EdgeSource {
	return func(emit func(Edge) error) error {
		return gen.ClusteredStream(gen.ClusteredConfig{
			Domains:        domains,
			DomainSize:     domainSize,
			EdgesPerVertex: edgesPerVertex,
			Seed:           seed,
		}, emit)
	}
}

// Options configures an engine. The zero value gives a semi-external-
// memory engine on a simulated 4-SSD array with a 64MiB page cache.
type Options struct {
	// InMemory replaces the SSD array with memory-resident edge lists
	// (the paper's FG-mem mode).
	InMemory bool
	// Threads is the number of worker threads (default 8).
	Threads int
	// CacheBytes sizes the SAFS page cache (default 64MiB). Pages are
	// SAFS's 4KiB, the size Figure 13 finds best.
	CacheBytes int64
	// Devices is the number of simulated SSDs (default 4).
	Devices int
	// Throttle enables realistic device timing; off, devices run at
	// memory speed but still account virtual busy time.
	Throttle bool
	// StoreDir backs each simulated SSD with a file (ssd0.dat, ssd1.dat,
	// ...) in this directory instead of RAM — the configuration for
	// datasets larger than memory. Empty keeps in-memory stores. It
	// contradicts InMemory, which has no devices: setting both is an
	// error.
	StoreDir string
}

// Engine executes algorithms over one opened graph. Run and RunOn are
// safe for concurrent use: each call executes on its own lightweight run
// context while all calls share the graph image, in-memory index, SAFS
// instance, page cache, and simulated SSD array (the paper's core asset,
// amortized across queries). For admission control and query tracking on
// top of this, see internal/serve and cmd/fg-serve.
type Engine struct {
	shared *core.Shared
	array  *ssd.Array // owned; nil when a Catalog owns the substrate
	closed atomic.Bool
}

// coreConfig translates Options into the engine configuration template:
// the engine's default running window of 4,000 vertices per thread. What
// one algorithm needs beyond it — execution order, a tighter running
// window, an iteration cap — the program declares itself.
func (opts Options) coreConfig() core.Config {
	return core.Config{Threads: opts.Threads, InMemory: opts.InMemory}
}

// newSubstrate builds the simulated SSD array and SAFS instance the
// options describe: none in memory mode. With StoreDir set each device
// is backed by a file; otherwise devices are RAM-resident. It is also
// where Options are checked, so Open and a catalog's first Add fail on
// the same mistakes.
func (opts Options) newSubstrate() (*ssd.Array, *safs.FS, error) {
	if min(opts.Threads, opts.Devices) < 0 {
		return nil, nil, fmt.Errorf("flashgraph: Options.Threads is %d and Options.Devices %d; want positive counts, or 0 for the defaults", opts.Threads, opts.Devices)
	}
	if opts.InMemory {
		if opts.StoreDir != "" {
			return nil, nil, fmt.Errorf("flashgraph: Options.InMemory and Options.StoreDir are both set (in-memory edge lists use no device files)")
		}
		return nil, nil, nil
	}
	params := ssd.ArrayParams{Devices: opts.Devices, Device: ssd.DeviceParams{Throttle: opts.Throttle}}
	params.SetDefaults()
	var array *ssd.Array
	if opts.StoreDir != "" {
		if err := os.MkdirAll(opts.StoreDir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("flashgraph: store dir: %w", err)
		}
		stores := make([]ssd.Store, params.Devices)
		for i := range stores {
			s, err := ssd.NewFileStore(filepath.Join(opts.StoreDir, fmt.Sprintf("ssd%d.dat", i)))
			if err != nil {
				for _, prev := range stores[:i] {
					if c, ok := prev.(interface{ Close() error }); ok {
						c.Close()
					}
				}
				return nil, nil, fmt.Errorf("flashgraph: device store %d: %w", i, err)
			}
			stores[i] = s
		}
		array = ssd.NewArrayWithStores(params, stores)
	} else {
		array = ssd.NewArray(params)
	}
	return array, safs.New(array, safs.Config{CacheBytes: opts.CacheBytes}), nil
}

// Open loads g into a fresh engine. Close the engine to stop the
// simulated devices.
func Open(g *Graph, opts Options) (*Engine, error) {
	cfg := opts.coreConfig()
	e := &Engine{}
	var err error
	if e.array, cfg.FS, err = opts.newSubstrate(); err != nil {
		return nil, err
	}
	shared, err := core.NewShared(g.img, cfg)
	if err != nil {
		if e.array != nil {
			e.array.Close()
		}
		return nil, fmt.Errorf("flashgraph: %w", err)
	}
	e.shared = shared
	return e, nil
}

// Run executes alg to completion on the vertex engine: RunOn(EngineVertex,
// alg). Use a distinct Algorithm value per call — algorithm state belongs
// to a single run.
func (e *Engine) Run(alg Algorithm) (RunStats, error) { return e.RunOn(EngineVertex, alg) }

// RunOn executes a program on an execution engine of the given kind —
// EngineVertex (the default message-passing runtime, what Run uses) or
// EngineSpMV (streaming dense sweeps, for programs with an SpMV form
// such as PageRank, WCC, and LabelProp). Each call gets a private run
// context (vertex scheduling, message buffers, iteration barrier) over
// the shared graph and cache, so concurrent calls are safe.
func (e *Engine) RunOn(kind EngineKind, p Program) (RunStats, error) {
	if e.closed.Load() {
		return RunStats{}, fmt.Errorf("flashgraph: engine is closed")
	}
	eng, err := e.shared.NewEngine(kind)
	if err != nil {
		return RunStats{}, fmt.Errorf("flashgraph: %w", err)
	}
	defer eng.Close()
	return eng.Run(p)
}

// Shared exposes the substrate all runs execute over (graph image, SAFS
// instance, page cache). The serve layer builds on it.
func (e *Engine) Shared() *core.Shared { return e.shared }

// LoadTime reports how long writing the image to the SSDs took.
func (e *Engine) LoadTime() time.Duration { return e.shared.LoadTime() }

// EstimateDiameter estimates the graph's diameter ignoring direction
// via two semi-external BFS sweeps (double-sweep lower bound). Like
// Run, it executes on a private run context and may be called
// concurrently with other queries.
func (e *Engine) EstimateDiameter(start VertexID) (int, error) {
	return algo.EstimateDiameter(e.shared.NewRun(), start)
}

// Close releases everything the engine owns: it stops the simulated
// SSD array (a no-op for in-memory engines and for engines whose
// substrate a Catalog owns). Close is idempotent — calling it more than
// once is safe — and later Run calls fail with an error.
func (e *Engine) Close() {
	if e.closed.CompareAndSwap(false, true) && e.array != nil {
		e.array.Close()
	}
}

// Catalog opens N named graphs over ONE shared substrate: a single
// SAFS instance, page cache, and simulated SSD array serve every graph
// (the paper's amortization of the semi-external-memory substrate, now
// across graphs as well as queries). Each Add writes the graph's
// edge-list files into the shared filesystem under its name and returns
// an Engine whose runs compete for — and share — the one page cache.
//
// fg-serve builds on a Catalog to serve multiple graphs from one
// daemon, routing requests by graph name.
type Catalog struct {
	opts   Options
	array  *ssd.Array // nil in in-memory mode
	fs     *safs.FS
	subErr error // substrate construction failure; surfaced by Add

	mu      sync.Mutex
	engines map[string]*Engine
	order   []string
	owned   []*Graph // file-backed graphs AddFile opened; closed with the catalog
	closed  bool
}

// NewCatalog prepares an empty catalog. All graphs later added share
// the substrate these options describe; Threads applies to every
// graph's runs. Options that cannot build a substrate (an unusable
// StoreDir, StoreDir with InMemory, a negative Threads or Devices) are
// reported by the first Add.
func NewCatalog(opts Options) *Catalog {
	c := &Catalog{opts: opts, engines: map[string]*Engine{}}
	c.array, c.fs, c.subErr = opts.newSubstrate()
	return c
}

// FS exposes the shared SAFS instance (nil for in-memory catalogs).
func (c *Catalog) FS() *safs.FS { return c.fs }

// Add loads g under name and returns its engine. The engine shares the
// catalog's substrate: Engine.Close disables that one engine (later
// Runs on it fail) but leaves the shared substrate and every other
// graph untouched — close the catalog to stop the SSD array.
func (c *Catalog) Add(name string, g *Graph) (*Engine, error) {
	if name == "" {
		return nil, fmt.Errorf("flashgraph: catalog graph name must be non-empty")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("flashgraph: catalog is closed")
	}
	if c.subErr != nil {
		return nil, c.subErr
	}
	if _, dup := c.engines[name]; dup {
		return nil, fmt.Errorf("flashgraph: graph %q already in catalog", name)
	}
	cfg := c.opts.coreConfig()
	cfg.FS = c.fs
	cfg.GraphName = name
	shared, err := core.NewShared(g.img, cfg)
	if err != nil {
		return nil, fmt.Errorf("flashgraph: adding %q: %w", name, err)
	}
	e := &Engine{shared: shared} // array stays nil: the catalog owns it
	c.engines[name] = e
	c.order = append(c.order, name)
	return e, nil
}

// AddFile opens the image at path as a file-backed graph and adds it
// under name: only the header and compact index are loaded into
// memory, edge data streams disk→SAFS in chunks, and queries read it
// back through the shared page cache — serving graphs larger than
// RAM. The catalog owns the opened file and closes it with Close.
func (c *Catalog) AddFile(name, path string) (*Engine, error) {
	g, err := OpenGraphFile(path)
	if err != nil {
		return nil, fmt.Errorf("flashgraph: adding %q: %w", name, err)
	}
	e, err := c.Add(name, g)
	if err != nil {
		g.Close()
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		// Close raced in between Add and here and already snapshotted
		// c.owned; this graph's file would otherwise leak.
		c.mu.Unlock()
		g.Close()
		return nil, fmt.Errorf("flashgraph: catalog is closed")
	}
	c.owned = append(c.owned, g)
	c.mu.Unlock()
	return e, nil
}

// Engine returns the named graph's engine.
func (c *Catalog) Engine(name string) (*Engine, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.engines[name]
	return e, ok
}

// Graphs lists the catalog's graph names in insertion order.
func (c *Catalog) Graphs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// Close stops the shared SSD array. Like Engine.Close it is idempotent.
func (c *Catalog) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	owned := c.owned
	c.owned = nil
	c.mu.Unlock()
	if c.array != nil {
		c.array.Close()
	}
	for _, g := range owned {
		g.Close()
	}
}

// Built-in algorithms (see internal/algo for the vertex programs).

// BFS is breadth-first search; see algo.BFS.
type BFS = algo.BFS

// NewBFS returns a BFS program rooted at src (out-edges).
func NewBFS(src VertexID) *BFS { return algo.NewBFS(src) }

// PageRank is delta-based PageRank; see algo.PageRank.
type PageRank = algo.PageRank

// NewPageRank returns PageRank with the paper's defaults (damping 0.85,
// 30 iterations).
func NewPageRank() *PageRank { return algo.NewPageRank() }

// WCC is weakly-connected components; see algo.WCC.
type WCC = algo.WCC

// NewWCC returns a WCC program.
func NewWCC() *WCC { return algo.NewWCC() }

// LabelProp is label-propagation community detection; see
// algo.LabelProp.
type LabelProp = algo.LabelProp

// NewLabelProp returns a label-propagation program with the default
// iteration cap.
func NewLabelProp() *LabelProp { return algo.NewLabelProp() }

// BC is single-source betweenness centrality; see algo.BC.
type BC = algo.BC

// NewBC returns a BC program rooted at src.
func NewBC(src VertexID) *BC { return algo.NewBC(src) }

// TriangleCount is triangle counting; see algo.TC.
type TriangleCount = algo.TC

// NewTriangleCount returns a TC program.
func NewTriangleCount() *TriangleCount { return algo.NewTC() }

// ScanStat is the maximum locality statistic; see algo.ScanStat. The
// program brings the paper's degree-descending schedule and the small
// running window its pruning needs, so it runs like any other algorithm.
type ScanStat = algo.ScanStat

// NewScanStat returns a scan-statistics program.
func NewScanStat() *ScanStat { return algo.NewScanStat() }

// KCore marks the k-core of an undirected graph; see algo.KCore.
type KCore = algo.KCore

// NewKCore returns a k-core program.
func NewKCore(k int) *KCore { return algo.NewKCore(k) }

// SSSP is single-source shortest paths over weighted edges; see
// algo.SSSP.
type SSSP = algo.SSSP

// Unreachable marks vertices SSSP could not reach.
const Unreachable = algo.Unreachable

// NewSSSP returns an SSSP program rooted at src (requires a graph built
// with NewWeightedGraph).
func NewSSSP(src VertexID) *SSSP { return algo.NewSSSP(src) }

// PPR is personalized PageRank — random walk with restart at a source
// vertex, following edge weights when the image has them; see
// algo.PPR.
type PPR = algo.PPR

// NewPPR returns a personalized PageRank program restarting at src.
func NewPPR(src VertexID) *PPR { return algo.NewPPR(src) }
