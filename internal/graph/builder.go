package graph

import (
	"cmp"
	"fmt"
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
	// TmpDir receives spilled sort runs and the image writer's spools,
	// which hold both directions' encoded data bytes until the image is
	// written. Default: the system temp dir.
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
// sorted streams drive the ImageWriter's one record pass per
// direction, the two directions side by side. At no point does the
// builder hold an edge list, an adjacency array, or an encoded data
// file in memory, so the largest buildable graph is bounded by disk,
// not RAM.
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

// sortedStream groups an extsort iterator's (key, value) records into
// one list per key, the empty list for a key with no records. Unless
// keep is set it drops self-loops and (adjacent, thanks to sorting)
// duplicate edges. It is where a key past the vertex count is refused.
type sortedStream struct {
	it   *extsort.Iterator
	n    int
	keep bool
	v    VertexID // the key of the next list
	k, u uint32   // the first record past the last list returned
	ok   bool     // whether k, u hold a record
	nbrs []VertexID
}

func (s *sortedStream) Next() ([]VertexID, []byte, error) {
	s.nbrs = s.nbrs[:0]
	for ; s.ok && s.k == s.v; s.k, s.u, s.ok = s.it.Next() {
		if s.keep || s.u != s.v && (len(s.nbrs) == 0 || s.nbrs[len(s.nbrs)-1] != s.u) {
			s.nbrs = append(s.nbrs, s.u)
		}
	}
	s.v++
	if err := s.it.Err(); err != nil {
		return nil, nil, err
	}
	if s.ok && int(s.k) >= s.n {
		return nil, nil, fmt.Errorf("graph: vertex %d out of range (n=%d)", s.k, s.n)
	}
	return s.nbrs, nil, nil
}

// source wraps one finalized sorter as a StreamSource of n lists.
func (b *StreamBuilder) source(s *extsort.Sorter, n int) StreamSource {
	return func() (NeighborStream, error) {
		it, err := s.Iter()
		if err != nil {
			return nil, err
		}
		st := &sortedStream{it: it, n: n, keep: b.cfg.KeepDupes}
		st.k, st.u, st.ok = it.Next()
		return st, nil
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
		Out:      b.source(b.out, n),
		spoolDir: b.cfg.TmpDir,
	}
	if b.cfg.Directed {
		iw.In = b.source(b.in, n)
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
