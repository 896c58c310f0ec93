package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"flashgraph/internal/algo"
	"flashgraph/internal/core"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/result"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
	"flashgraph/internal/util"
)

// IOConfig parameterizes the raw-I/O-path experiment.
type IOConfig struct {
	// Scale is the RMAT log2 vertex count (default 20 — the acceptance
	// dataset — shifted by Config.ScaleAdd like every dataset).
	Scale int
	// EPV is edges per vertex (default 16).
	EPV int
	// CacheMB sizes the SAFS page cache (default 64).
	CacheMB int64
	// Iters is the fixed full-sweep PageRank iteration count (default 30).
	Iters int
	// Direct requests O_DIRECT on the device files. Where the
	// filesystem refuses (tmpfs), the stores degrade to buffered reads
	// with fadvise hints; DirectActive in the report says what ran.
	Direct bool
	// JSONPath receives the machine-readable results (fg-bench defaults
	// its flag to "BENCH_io.json").
	JSONPath string
}

func (c *IOConfig) setDefaults(cfg *Config) {
	if c.Scale == 0 {
		c.Scale = 20 + cfg.ScaleAdd
	}
	if c.EPV == 0 {
		c.EPV = 16
	}
	if c.CacheMB == 0 {
		c.CacheMB = 64
	}
	if c.Iters == 0 {
		c.Iters = 30
	}
}

// IOPageRankRun is one full-sweep PageRank measurement: an (engine,
// layout) combination over a file-backed SSD array.
type IOPageRankRun struct {
	Variant         string  `json:"variant"`
	Engine          string  `json:"engine"`
	Encoding        string  `json:"encoding"`
	DataBytes       int64   `json:"data_bytes"` // edge-list bytes on SSD
	ElapsedSec      float64 `json:"elapsed_sec"`
	BytesRead       int64   `json:"bytes_read"`
	DeviceReads     int64   `json:"device_reads"`
	ReadSyscalls    int64   `json:"read_syscalls"` // pread + preadv calls on the device files
	VecSyscalls     int64   `json:"vec_syscalls"`  // preadv calls among ReadSyscalls
	DecodeNsPerEdge float64 `json:"decode_ns_per_edge"`
	Checksum        string  `json:"checksum"`
}

// IOBFSRun is one BFS submission-path measurement on the delta image:
// the same query under a different I/O dispatch discipline.
type IOBFSRun struct {
	Merge          string  `json:"merge"` // none | fg | safs
	ElapsedSec     float64 `json:"elapsed_sec"`
	EdgeRequests   int64   `json:"edge_requests"`
	MergedRequests int64   `json:"merged_requests"`
	DeviceReads    int64   `json:"device_reads"`
	VecReads       int64   `json:"vec_reads"`
	ReadSyscalls   int64   `json:"read_syscalls"`
	MergeRatio     float64 `json:"merge_ratio"` // batched reqs per served device request
	QueuePeak      int64   `json:"queue_peak"`
	BytesRead      int64   `json:"bytes_read"`
	Checksum       string  `json:"checksum"`
}

// IOReport is the BENCH_io.json document.
type IOReport struct {
	Scale        int             `json:"scale"`
	EPV          int             `json:"epv"`
	CacheMB      int64           `json:"cache_mb"`
	Iters        int             `json:"iters"`
	Direct       bool            `json:"direct"`
	DirectActive bool            `json:"direct_active"`
	PageRank     []IOPageRankRun `json:"pagerank"`
	BFS          []IOBFSRun      `json:"bfs"`
	// Summary holds the acceptance ratios: delta_vs_raw_wall (delta
	// elapsed / raw elapsed), byte_reduction (delta's PageRank bytes-read
	// reduction vs raw), and bfs_request_reduction (unmerged device
	// reads / SAFS-merged device reads for one BFS query).
	Summary map[string]float64 `json:"summary"`
}

// ioCounter counts read syscalls issued against a substrate's device
// files, and how many of them scattered into more than one buffer.
type ioCounter struct{ reads, vecs int64 }

func (c *ioCounter) reset() {
	atomic.StoreInt64(&c.reads, 0)
	atomic.StoreInt64(&c.vecs, 0)
}

// countingStore wraps a file store and counts read submissions. It
// forwards the vectored path so Device keeps its one-syscall merged
// transfers.
type countingStore struct {
	inner *ssd.FileStore
	c     *ioCounter
}

func (s *countingStore) ReadAt(p []byte, off int64) (int, error) {
	return s.ReadVecAt([][]byte{p}, off)
}

func (s *countingStore) ReadVecAt(vec [][]byte, off int64) (int, error) {
	atomic.AddInt64(&s.c.reads, 1)
	if len(vec) > 1 {
		atomic.AddInt64(&s.c.vecs, 1)
	}
	return s.inner.ReadVecAt(vec, off)
}

func (s *countingStore) WriteAt(p []byte, off int64) (int, error) { return s.inner.WriteAt(p, off) }
func (s *countingStore) Size() int64                              { return s.inner.Size() }

func (s *countingStore) Close() error { return s.inner.Close() }

// newIOSubstrate builds a file-backed SSD array (4 devices under dir)
// with syscall counting, and reports whether O_DIRECT was negotiated.
func newIOSubstrate(cfg Config, dir, label string, cacheBytes int64, direct bool) (*safs.FS, *ssd.Array, *ioCounter, bool) {
	ctr := &ioCounter{}
	directActive := false
	stores := make([]ssd.Store, 4)
	for i := range stores {
		st, err := ssd.NewStore(filepath.Join(dir, fmt.Sprintf("%s-ssd%d.dat", label, i)), ssd.StoreConfig{DirectIO: direct})
		if err != nil {
			panic(err)
		}
		directActive = directActive || st.Direct()
		stores[i] = &countingStore{inner: st, c: ctr}
	}
	arr := ssd.NewArrayWithStores(ssd.ArrayParams{
		StripeSize: 128 << 10,
		Device:     deviceParams(cfg),
	}, stores)
	fs := safs.New(arr, safs.Config{CacheBytes: cacheBytes})
	return fs, arr, ctr, directActive
}

// measureDecodeNs times a hot in-memory decode sweep over every
// out-edge list (one warm pass, one timed pass) and returns ns/edge —
// the pure decode-CPU number, no I/O, no engine.
func measureDecodeNs(img *graph.Image) float64 {
	var dst []graph.VertexID
	sweep := func() int64 {
		var edges int64
		for v := 0; v < img.NumV; v++ {
			off, size := img.OutIndex.Locate(graph.VertexID(v))
			pv := graph.NewPageVertexBytes(graph.VertexID(v), graph.OutEdges, img.OutData[off:off+size], 0, img.Encoding)
			dst = pv.Edges(dst[:0], nil)
			edges += int64(len(dst))
		}
		return edges
	}
	sweep() // warm: faults pages in
	start := time.Now()
	edges := sweep()
	if edges == 0 {
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / float64(edges)
}

// IOExp measures the raw I/O path end to end over file-backed device
// stores: (a) decode CPU — full-sweep PageRank over raw, delta, and the
// 2D block layout on the SpMV engine — and (b) submission shape — one cold BFS query on the
// delta image under each core.MergeMode: one flush per edge list
// (MergeNone), FlashGraph worker-side merging (MergeFG), and one flush
// per issue batch so SAFS and the devices merge (MergeSAFS). The run
// panics if any checksum diverges or if SAFS merging fails to cut device
// requests per BFS query by 2x vs no merging.
func IOExp(cfg Config, iocfg IOConfig, w io.Writer) []Result {
	cfg.setDefaults()
	iocfg.setDefaults(&cfg)
	header(w, fmt.Sprintf("Raw I/O path: decode CPU and submission shape (RMAT scale %d, %d edges/vertex, %s cache, %d PageRank sweeps)",
		iocfg.Scale, iocfg.EPV, util.HumanBytes(iocfg.CacheMB<<20), iocfg.Iters))

	tmp, err := os.MkdirTemp("", "fg-io-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(tmp)

	// One RMAT stream, built once into the raw image, re-encoded (no
	// edge-list round trip) into the delta and block images.
	rawPath := filepath.Join(tmp, "io-raw.fg")
	b := graph.NewStreamBuilder(graph.BuildConfig{
		NumV:     1 << iocfg.Scale,
		Directed: true,
		Encoding: graph.EncodingRaw,
		MemBytes: 256 << 20,
		TmpDir:   tmp,
	})
	if err := gen.RMATStream(iocfg.Scale, iocfg.EPV, cfg.Seed+1, b.Add); err != nil {
		panic(err)
	}
	if _, err := b.WriteFile(rawPath); err != nil {
		panic(err)
	}
	rawImg, err := graph.OpenImageFile(rawPath)
	if err != nil {
		panic(err)
	}
	defer rawImg.Close()
	reencode := func(name string, enc graph.Encoding) *graph.Image {
		path := filepath.Join(tmp, name)
		f, err := os.Create(path)
		if err != nil {
			panic(err)
		}
		if err := rawImg.EncodeAs(f, enc); err != nil {
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
		img, err := graph.OpenImageFile(path)
		if err != nil {
			panic(err)
		}
		return img
	}
	deltaImg := reencode("io-delta.fg", graph.EncodingDelta)
	defer deltaImg.Close()
	blockImg := reencode("io-block.fg", graph.EncodingBlock)
	defer blockImg.Close()

	report := IOReport{
		Scale: iocfg.Scale, EPV: iocfg.EPV, CacheMB: iocfg.CacheMB,
		Iters: iocfg.Iters, Direct: iocfg.Direct,
		Summary: map[string]float64{},
	}

	// Decode ns/edge: hot in-memory sweeps, independent of the engine.
	decodeNs := map[string]float64{}
	for _, v := range []struct{ key, file string }{
		{"vertex/raw", rawPath},
		{"vertex/delta", filepath.Join(tmp, "io-delta.fg")},
	} {
		f, err := os.Open(v.file)
		if err != nil {
			panic(err)
		}
		mem, err := graph.Decode(f)
		f.Close()
		if err != nil {
			panic(err)
		}
		decodeNs[v.key] = measureDecodeNs(mem)
	}

	// Part (a): full-sweep PageRank — every vertex active every
	// iteration, the workload where decode CPU has nowhere to hide.
	fmt.Fprintf(w, "%-20s %10s %12s %12s %12s %12s %10s\n",
		"pagerank variant", "on-SSD", "elapsed(s)", "read", "dev-reads", "syscalls", "ns/edge")
	measurePR := func(label, variant string, img *graph.Image, kind core.EngineKind) IOPageRankRun {
		fs, arr, ctr, directActive := newIOSubstrate(cfg, tmp, "pr-"+label, iocfg.CacheMB<<20, iocfg.Direct)
		defer arr.Close()
		report.DirectActive = report.DirectActive || directActive
		shared, err := core.NewShared(img, core.Config{Threads: cfg.Threads, RangeShift: 6, FS: fs})
		if err != nil {
			panic(err)
		}
		eng, err := shared.NewEngine(kind)
		if err != nil {
			panic(err)
		}
		defer eng.Close()
		ctr.reset() // image load is not query traffic
		pr := algo.NewPageRank()
		pr.Threshold = 0
		pr.Iters = iocfg.Iters
		st, err := eng.Run(pr)
		if err != nil {
			panic(err)
		}
		return IOPageRankRun{
			Variant:         variant,
			Engine:          st.Engine,
			Encoding:        img.Encoding.String(),
			DataBytes:       img.DataSize(),
			ElapsedSec:      st.Elapsed.Seconds(),
			BytesRead:       st.BytesRead,
			DeviceReads:     st.DeviceReads,
			ReadSyscalls:    atomic.LoadInt64(&ctr.reads),
			VecSyscalls:     atomic.LoadInt64(&ctr.vecs),
			DecodeNsPerEdge: decodeNs[variant],
			Checksum:        result.From(pr, "pagerank").Checksum(),
		}
	}

	prVariants := []struct {
		label   string
		variant string
		img     *graph.Image
		kind    core.EngineKind
	}{
		{"raw", "vertex/raw", rawImg, core.EngineVertex},
		{"delta", "vertex/delta", deltaImg, core.EngineVertex},
		{"block", "spmv/block", blockImg, core.EngineSpMV},
	}
	var out []Result
	for _, v := range prVariants {
		run := measurePR(v.label, v.variant, v.img, v.kind)
		report.PageRank = append(report.PageRank, run)
		fmt.Fprintf(w, "%-20s %10s %12.3f %12s %12d %12d %10.1f\n",
			run.Variant, util.HumanBytes(run.DataBytes), run.ElapsedSec,
			util.HumanBytes(run.BytesRead), run.DeviceReads, run.ReadSyscalls,
			run.DecodeNsPerEdge)
		out = append(out, Result{
			Exp: "io", Dataset: fmt.Sprintf("rmat-%d", iocfg.Scale),
			App: "pagerank", Variant: run.Variant, Value: run.ElapsedSec,
			Extra: map[string]float64{
				"bytes_read":    float64(run.BytesRead),
				"device_reads":  float64(run.DeviceReads),
				"read_syscalls": float64(run.ReadSyscalls),
				"ns_per_edge":   run.DecodeNsPerEdge,
			},
		})
	}
	prRaw, prDelta := report.PageRank[0], report.PageRank[1]
	for _, run := range report.PageRank[1:] {
		if run.Checksum != prRaw.Checksum {
			panic(fmt.Sprintf("bench: pagerank diverges: %s checksum %s != %s checksum %s",
				run.Variant, run.Checksum, prRaw.Variant, prRaw.Checksum))
		}
	}

	// Part (b): one cold BFS query on the delta image per merge mode.
	// No merging is the baseline SAFS merging must beat by 2x on device
	// requests.
	fmt.Fprintf(w, "%-14s %12s %12s %12s %12s %12s %10s\n",
		"bfs merge", "elapsed(s)", "edge-reqs", "dev-reads", "vec-reads", "syscalls", "merge")
	measureBFS := func(name string, mode core.MergeMode) IOBFSRun {
		fs, arr, ctr, _ := newIOSubstrate(cfg, tmp, "bfs-"+name, iocfg.CacheMB<<20, iocfg.Direct)
		defer arr.Close()
		shared, err := core.NewShared(deltaImg, core.Config{
			Threads: cfg.Threads, RangeShift: 12, FS: fs, Merge: mode,
		})
		if err != nil {
			panic(err)
		}
		ctr.reset()
		bfs := algo.NewBFS(bfsSource(deltaImg))
		st, err := shared.NewRun().Run(bfs)
		if err != nil {
			panic(err)
		}
		as := arr.Stats()
		return IOBFSRun{
			Merge:          name,
			ElapsedSec:     st.Elapsed.Seconds(),
			EdgeRequests:   st.EdgeRequests,
			MergedRequests: st.MergedRequests,
			DeviceReads:    st.DeviceReads,
			VecReads:       as.VecReads,
			ReadSyscalls:   atomic.LoadInt64(&ctr.reads),
			MergeRatio:     as.MergeRatio(),
			QueuePeak:      as.QueuePeak,
			BytesRead:      st.BytesRead,
			Checksum:       result.From(bfs, "bfs").Checksum(),
		}
	}
	bfsVariants := []struct {
		name string
		mode core.MergeMode
	}{
		{"none", core.MergeNone},
		{"fg", core.MergeFG},
		{"safs", core.MergeSAFS},
	}
	for _, v := range bfsVariants {
		run := measureBFS(v.name, v.mode)
		report.BFS = append(report.BFS, run)
		fmt.Fprintf(w, "%-14s %12.3f %12d %12d %12d %12d %10.2f\n",
			run.Merge, run.ElapsedSec, run.EdgeRequests, run.DeviceReads,
			run.VecReads, run.ReadSyscalls, run.MergeRatio)
		out = append(out, Result{
			Exp: "io", Dataset: fmt.Sprintf("rmat-%d", iocfg.Scale),
			App: "bfs", Variant: run.Merge, Value: float64(run.DeviceReads),
			Extra: map[string]float64{
				"elapsed_s":     run.ElapsedSec,
				"read_syscalls": float64(run.ReadSyscalls),
				"merge_ratio":   run.MergeRatio,
			},
		})
	}
	bfsNone, bfsSAFS := report.BFS[0], report.BFS[2]
	for _, run := range report.BFS[1:] {
		if run.Checksum != bfsNone.Checksum {
			panic(fmt.Sprintf("bench: bfs diverges under %s merging: checksum %s != %s",
				run.Merge, run.Checksum, bfsNone.Checksum))
		}
	}

	// Acceptance ratios.
	wallRatio := prDelta.ElapsedSec / prRaw.ElapsedSec
	byteRed := 1 - float64(prDelta.BytesRead)/float64(prRaw.BytesRead)
	reqCut := float64(bfsNone.DeviceReads) / float64(bfsSAFS.DeviceReads)
	report.Summary["delta_vs_raw_wall"] = wallRatio
	report.Summary["byte_reduction"] = byteRed
	report.Summary["bfs_request_reduction"] = reqCut
	report.Summary["bfs_merge_ratio"] = bfsSAFS.MergeRatio
	if reqCut < 2 {
		panic(fmt.Sprintf("bench: SAFS merging cut BFS device requests only %.2fx vs no merging (want >= 2x)",
			reqCut))
	}
	fmt.Fprintf(w, "delta vs raw pagerank: %.3fx wall-clock, %.1f%% fewer bytes read, answers bit-identical\n",
		wallRatio, byteRed*100)
	fmt.Fprintf(w, "bfs SAFS-merged vs unmerged: %.1fx fewer device requests (%d -> %d), merge ratio %.2f, %d -> %d read syscalls\n",
		reqCut, bfsNone.DeviceReads, bfsSAFS.DeviceReads, bfsSAFS.MergeRatio,
		bfsNone.ReadSyscalls, bfsSAFS.ReadSyscalls)

	if iocfg.JSONPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(iocfg.JSONPath, append(blob, '\n'), 0o644); err != nil {
			panic(err)
		}
		fmt.Fprintf(w, "wrote %s (%d pagerank runs, %d bfs runs)\n", iocfg.JSONPath, len(report.PageRank), len(report.BFS))
	}
	return out
}
