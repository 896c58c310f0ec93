package graph

import (
	"cmp"
	"time"

	"flashgraph/internal/extsort"
)

// BuildConfig parameterizes an out-of-core image build.
type BuildConfig struct {
	// NumV is the vertex count; 0 means "max vertex ID seen + 1".
	NumV int
	// Directed selects separate in-/out-edge files.
	Directed bool
	// Encoding selects the on-SSD edge-list layout (default
	// EncodingRaw; EncodingDelta stores sorted neighbors as varint
	// deltas — fewer bytes per edge on graphs with ID locality).
	Encoding Encoding
	// AttrSize/Attr generate per-edge attributes (weights) at encode
	// time; attributes are never stored in the builder.
	AttrSize int
	Attr     AttrFunc
	// MemBytes bounds the builder's sort memory, split across the
	// by-src and by-dst sorters: each sorter's record buffer (sorted in
	// eighths on background goroutines while edges stream in) and, once
	// that buffer has spilled, its merge's read buffers. Excludes the
	// compact index that every image needs in RAM. Default 256MiB.
	MemBytes int64
	// TmpDir receives spilled sort runs and the in-edge record pass's
	// spool. Default: the system temp dir.
	TmpDir string
	// KeepDupes retains duplicate edges and self-loops (the default
	// build removes both, matching Adjacency.Dedup).
	KeepDupes bool
}

// BuildStats reports what a streaming build cost — the observable
// form of the paper's Table 2 "init time" column.
type BuildStats struct {
	NumV       int
	NumEdges   int64 // stored edges (undirected counted once)
	InputEdges int64 // edges fed to Add (pre-dedup)
	DataBytes  int64 // on-SSD edge-list bytes
	IndexBytes int64 // compact index memory
	Spills     int   // sorted runs written to temp files
	// PeakMemBytes is the high-water footprint of the sort buffers and
	// merge readers — the memory the MemBytes budget governs.
	PeakMemBytes int64
	Elapsed      time.Duration
}

// EdgesPerSec returns the ingest rate over the whole build.
func (st *BuildStats) EdgesPerSec() float64 {
	if st.Elapsed <= 0 {
		return 0
	}
	return float64(st.InputEdges) / st.Elapsed.Seconds()
}

// StreamBuilder constructs a graph image from an unordered edge
// stream under a fixed memory budget: edges are fed one at a time
// into external sorters (by source for the out-edge file and, for
// directed graphs, by destination for the in-edge file), then the
// sorted streams drive the ImageWriter's two sequential passes, the
// two directions side by side. At no point does the builder hold an
// edge list, an adjacency array, or an encoded data file in memory, so
// the largest buildable graph is bounded by disk, not RAM.
type StreamBuilder struct {
	cfg   BuildConfig
	out   *extsort.Sorter
	in    *extsort.Sorter // nil when undirected
	maxID int64           // -1 until the first edge
	edges int64
	start time.Time
}

// NewStreamBuilder prepares a builder. Call Add for every edge, then
// WriteFile exactly once; Close releases temp files (idempotent, and
// implied by WriteFile).
func NewStreamBuilder(cfg BuildConfig) *StreamBuilder {
	if cfg.MemBytes <= 0 {
		cfg.MemBytes = 256 << 20
	}
	sorters := 1
	if cfg.Directed {
		sorters = 2
	}
	scfg := extsort.Config{MemBytes: cfg.MemBytes / int64(sorters), TmpDir: cfg.TmpDir}
	b := &StreamBuilder{cfg: cfg, out: extsort.New(scfg), maxID: -1, start: time.Now()}
	if cfg.Directed {
		b.in = extsort.New(scfg)
	}
	return b
}

// Add feeds one edge. For undirected graphs the edge lands in both
// endpoints' lists, exactly as FromEdges does.
func (b *StreamBuilder) Add(e Edge) error {
	if err := b.out.Add(e.Src, e.Dst); err != nil {
		return err
	}
	if b.cfg.Directed {
		if err := b.in.Add(e.Dst, e.Src); err != nil {
			return err
		}
	} else {
		if err := b.out.Add(e.Dst, e.Src); err != nil {
			return err
		}
	}
	if int64(e.Src) > b.maxID {
		b.maxID = int64(e.Src)
	}
	if int64(e.Dst) > b.maxID {
		b.maxID = int64(e.Dst)
	}
	b.edges++
	return nil
}

// InputEdges returns how many edges were added so far.
func (b *StreamBuilder) InputEdges() int64 { return b.edges }

// sortedStream adapts an extsort iterator to a NeighborStream,
// optionally dropping self-loops and (adjacent, thanks to sorting)
// duplicate edges.
type sortedStream struct {
	it      *extsort.Iterator
	dedup   bool
	havePrv bool
	pk, pv  uint32
}

func (s *sortedStream) Next() (VertexID, VertexID, []byte, bool, error) {
	for {
		k, v, ok := s.it.Next()
		if !ok {
			return 0, 0, nil, false, s.it.Err()
		}
		if s.dedup {
			if k == v {
				continue // self-loop
			}
			if s.havePrv && k == s.pk && v == s.pv {
				continue // duplicate edge
			}
			s.havePrv, s.pk, s.pv = true, k, v
		}
		return k, v, nil, true, nil
	}
}

// source wraps one finalized sorter as a replayable StreamSource.
func (b *StreamBuilder) source(s *extsort.Sorter) StreamSource {
	return func() (NeighborStream, error) {
		it, err := s.Iter()
		if err != nil {
			return nil, err
		}
		return &sortedStream{it: it, dedup: !b.cfg.KeepDupes}, nil
	}
}

// writer finalizes the sorters, side by side, and returns the
// ImageWriter over their sorted streams plus the resolved vertex count.
func (b *StreamBuilder) writer() (*ImageWriter, error) {
	n := b.cfg.NumV
	if n == 0 {
		n = int(b.maxID + 1)
	}
	if err := cmp.Or(sideBySide(b.cfg.Directed, b.out.Sort, func() error { return b.in.Sort() })); err != nil {
		return nil, err
	}
	iw := &ImageWriter{
		NumV:     n,
		Directed: b.cfg.Directed,
		Encoding: b.cfg.Encoding,
		AttrSize: b.cfg.AttrSize,
		Attr:     b.cfg.Attr,
		Out:      b.source(b.out),
		spoolDir: b.cfg.TmpDir,
	}
	if b.cfg.Directed {
		iw.In = b.source(b.in)
	}
	return iw, nil
}

// stats assembles BuildStats from the finished write.
func (b *StreamBuilder) stats(info *ImageInfo) *BuildStats {
	st := &BuildStats{
		NumV:         info.NumV,
		NumEdges:     info.NumEdges,
		InputEdges:   b.edges,
		DataBytes:    info.DataBytes(),
		IndexBytes:   info.IndexBytes(),
		Spills:       b.out.Spills(),
		PeakMemBytes: b.out.PeakMemBytes(),
		Elapsed:      time.Since(b.start),
	}
	if b.in != nil {
		st.Spills += b.in.Spills()
		st.PeakMemBytes += b.in.PeakMemBytes()
	}
	return st
}

// WriteFile streams the image into a new file at path and releases
// the builder's temporary files.
func (b *StreamBuilder) WriteFile(path string) (*BuildStats, error) {
	defer b.Close()
	iw, err := b.writer()
	if err != nil {
		return nil, err
	}
	info, err := WriteImageFile(path, iw)
	if err != nil {
		return nil, err
	}
	return b.stats(info), nil
}

// Build materializes the image in RAM through the same sorted-stream
// path (useful for tests and for callers that want a bounded-memory
// sort but an in-memory image) and releases the builder's temp files.
func (b *StreamBuilder) Build() (*Image, *BuildStats, error) {
	defer b.Close()
	iw, err := b.writer()
	if err != nil {
		return nil, nil, err
	}
	img, err := iw.BuildImage()
	if err != nil {
		return nil, nil, err
	}
	info := &ImageInfo{
		NumV:     img.NumV,
		NumEdges: img.NumEdges,
		AttrSize: img.AttrSize,
		Directed: img.Directed,
		Encoding: img.Encoding,
		OutBytes: int64(len(img.OutData)),
		InBytes:  int64(len(img.InData)),
		OutIndex: img.OutIndex,
		InIndex:  img.InIndex,
	}
	return img, b.stats(info), nil
}

// Close releases the sorters' temporary files. Idempotent.
func (b *StreamBuilder) Close() error {
	err := b.out.Close()
	if b.in != nil {
		if e := b.in.Close(); err == nil {
			err = e
		}
	}
	return err
}
