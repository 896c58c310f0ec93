// Package extsort implements an external merge sort for fixed-size
// edge records, the substrate of FlashGraph's out-of-core graph
// construction. The paper treats image construction as a first-class
// cost (Table 2 "init time") on graphs whose edge lists dwarf RAM;
// related out-of-core systems (GraphChi's shards, M-Flash's blocks,
// NXgraph's intervals) all begin with exactly this primitive: sort an
// edge stream on disk under a memory budget.
//
// A Sorter accepts (key, value) uint32 pairs — (src, dst) for
// out-edge lists, (dst, src) for in-edge lists — buffers them packed
// as uint64s, and sorts the buffer a chunk at a time: each eighth of
// it is sorted on a background goroutine as soon as it fills, while
// Add keeps appending to the next. When the buffer reaches the memory
// budget its sorted chunks are merged into one run on disk. Sort
// finalizes the input; Iter then merges the sorted chunks (everything
// fit in memory) or the spilled runs lazily. Iter may be called
// more than once: the chunks stay in the buffer and the runs on disk
// until Close.
package extsort

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
)

// recordBytes is the on-disk size of one packed record.
const recordBytes = 8

// chunksPerBuffer is how many pieces the record buffer is sorted in:
// each is handed to a background sort the moment it fills.
const chunksPerBuffer = 8

// maxFanIn caps how many runs one merge reads at once; more runs than
// this are first combined by intermediate merge passes.
const maxFanIn = 128

// maxReadBufBytes caps each run's merge read buffer and minReadBufBytes
// floors it: a merge of k runs gives each min(256KiB, MemBytes/k), so a
// budget split across many runs still reads each a page at a time.
const (
	maxReadBufBytes = 256 << 10
	minReadBufBytes = 4 << 10
)

// Config parameterizes a Sorter. The zero value sorts in 64MiB of
// buffer with runs spilled to the default temp directory.
type Config struct {
	// MemBytes bounds the sorter's memory: the in-memory record buffer
	// (records are 8 bytes, so it holds MemBytes/8 records between
	// spills, sorted in eighths on background goroutines as they fill)
	// and, once the buffer is released, the merge's per-run read
	// buffers together. Default 64MiB.
	MemBytes int64
	// TmpDir receives the spilled run files (os.CreateTemp naming).
	// Default: the system temp directory.
	TmpDir string
}

// sortChunk sorts one filled chunk; a variable so tests can observe
// sorts still in flight.
var sortChunk = slices.Sort[[]uint64]

// Sorter is an external sorter for (key, value) uint32 pairs, ordered
// by key then value. Add until done, call Sort once, then Iter any
// number of times. A Sorter is not safe for concurrent use; its
// background chunk sorts are joined by Sort, Close and every spill.
type Sorter struct {
	cfg    Config
	buf    []uint64   // packed key<<32|value
	bufCap int        // records per run
	chunks [][]uint64 // cut pieces of buf, sorted once sorting is joined
	cutAt  int        // len(buf) at which the next chunk is cut
	cutTo  int        // end of the last cut chunk
	// sorting counts the background chunk sorts in flight.
	sorting sync.WaitGroup
	runs    []*os.File
	count   int64
	sorted  bool
	closed  bool

	spills  int
	peakMem int64
}

// New returns an empty sorter.
func New(cfg Config) *Sorter {
	if cfg.MemBytes <= 0 {
		cfg.MemBytes = 64 << 20
	}
	bufCap := int(cfg.MemBytes / recordBytes)
	if bufCap < 1024 {
		bufCap = 1024 // floor: pathological budgets still make progress
	}
	return &Sorter{cfg: cfg, bufCap: bufCap}
}

// pack encodes a record so uint64 ordering equals (key, value) ordering.
func pack(key, val uint32) uint64 { return uint64(key)<<32 | uint64(val) }

func unpack(r uint64) (key, val uint32) { return uint32(r >> 32), uint32(r) }

// Add appends one record. Filling a chunk starts its background sort;
// filling the buffer spills it as one sorted run.
func (s *Sorter) Add(key, val uint32) error {
	if s.sorted {
		return fmt.Errorf("extsort: Add after Sort")
	}
	if s.buf == nil {
		// Allocate the full budgeted capacity once: append-style growth
		// would transiently hold old+new buffers (1.5× the budget), while
		// a fixed-cap buffer commits physical pages only as records
		// arrive and never exceeds the budget.
		s.buf = make([]uint64, 0, s.bufCap)
		s.cutAt = s.bufCap / chunksPerBuffer
		s.observeMem(int64(s.bufCap) * recordBytes)
	}
	s.buf = append(s.buf, pack(key, val))
	s.count++
	if len(s.buf) == s.cutAt {
		if s.cutAt == s.bufCap {
			return s.spill()
		}
		s.cut(true)
		s.cutAt = s.bufCap * (len(s.chunks) + 1) / chunksPerBuffer
	}
	return nil
}

// cut makes buf[cutTo:] the next chunk and sorts it, on a background
// goroutine when async.
func (s *Sorter) cut(async bool) {
	c := s.buf[s.cutTo:len(s.buf):len(s.buf)]
	s.chunks = append(s.chunks, c)
	s.cutTo = len(s.buf)
	if !async {
		sortChunk(c)
		return
	}
	s.sorting.Add(1)
	go func() {
		defer s.sorting.Done()
		sortChunk(c)
	}()
}

// finishChunks sorts the unfinished tail in place and joins every
// background sort: afterwards each chunk is sorted.
func (s *Sorter) finishChunks() {
	if len(s.buf) > s.cutTo {
		s.cut(false)
	}
	s.sorting.Wait()
}

// Len returns how many records were added.
func (s *Sorter) Len() int64 { return s.count }

// Spills returns how many sorted runs were written to disk.
func (s *Sorter) Spills() int { return s.spills }

// PeakMemBytes returns the high-water in-memory footprint of the
// sorter: the record buffer or, during merges of spilled runs, the
// per-run read buffers.
func (s *Sorter) PeakMemBytes() int64 { return s.peakMem }

func (s *Sorter) observeMem(m int64) {
	if m > s.peakMem {
		s.peakMem = m
	}
}

// readBufBytes sizes each run's read buffer for a merge of fanIn runs,
// so the readers together stay within the budget.
func (s *Sorter) readBufBytes(fanIn int) int {
	b := min(maxReadBufBytes, s.cfg.MemBytes/int64(fanIn)-recordBytes)
	return int(max(b, minReadBufBytes))
}

// spill merges the buffer's sorted chunks into one run file.
func (s *Sorter) spill() error {
	s.finishChunks()
	if len(s.buf) == 0 {
		return nil
	}
	f, err := s.writeRun(s.chunkMerge())
	if err != nil {
		return err
	}
	s.runs = append(s.runs, f)
	s.spills++
	s.buf, s.chunks = s.buf[:0], s.chunks[:0]
	s.cutTo, s.cutAt = 0, s.bufCap/chunksPerBuffer
	return nil
}

// writeRun drains m into a new, already unlinked run file.
func (s *Sorter) writeRun(m *Iterator) (*os.File, error) {
	f, err := os.CreateTemp(s.cfg.TmpDir, "fg-extsort-*.run")
	if err != nil {
		return nil, fmt.Errorf("extsort: creating run: %w", err)
	}
	// Unlink immediately: the OS reclaims the space when the fd closes,
	// even if the process dies mid-build.
	os.Remove(f.Name())
	block := make([]byte, 0, 1<<20)
	for rec, ok := m.next(); ok && err == nil; rec, ok = m.next() {
		if block = binary.LittleEndian.AppendUint64(block, rec); len(block) == cap(block) {
			_, err = f.Write(block)
			block = block[:0]
		}
	}
	if err == nil {
		_, err = f.Write(block)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("extsort: writing run: %w", err)
	}
	if m.err != nil {
		f.Close()
		return nil, m.err
	}
	return f, nil
}

// Sort finalizes the input. If everything fit in memory the last chunk
// is sorted and the background sorts joined; otherwise the remaining
// buffer spills and, when the run count exceeds maxFanIn, intermediate
// merge passes reduce it.
func (s *Sorter) Sort() error {
	if s.sorted {
		return nil
	}
	if len(s.runs) == 0 {
		s.finishChunks()
		s.sorted = true
		return nil
	}
	if err := s.spill(); err != nil {
		return err
	}
	s.buf, s.chunks = nil, nil // all records are on disk; release the buffer
	for len(s.runs) > maxFanIn {
		if err := s.reduceRuns(); err != nil {
			return err
		}
	}
	s.sorted = true
	return nil
}

// reduceRuns merges the first maxFanIn runs into one new run.
func (s *Sorter) reduceRuns() error {
	batch := s.runs[:maxFanIn]
	m, err := s.runMerge(batch)
	if err != nil {
		return err
	}
	out, err := s.writeRun(m)
	if err != nil {
		return err
	}
	for _, f := range batch {
		f.Close()
	}
	s.runs = append([]*os.File{out}, s.runs[maxFanIn:]...)
	return nil
}

// Iter returns a fresh iterator over the sorted records. It may be
// called repeatedly; each call merges the chunks, or rewinds the runs
// and merges them, again.
func (s *Sorter) Iter() (*Iterator, error) {
	if !s.sorted {
		return nil, fmt.Errorf("extsort: Iter before Sort")
	}
	if s.closed {
		return nil, fmt.Errorf("extsort: Iter after Close")
	}
	if len(s.runs) == 0 {
		return s.chunkMerge(), nil
	}
	return s.runMerge(s.runs)
}

// chunkMerge merges the buffer's sorted chunks.
func (s *Sorter) chunkMerge() *Iterator {
	m := &Iterator{}
	for _, c := range s.chunks {
		m.add(cursor{mem: c})
	}
	return m
}

// runMerge rewinds run files and merges them, each read through a
// buffer sized to keep the merge within the budget.
func (s *Sorter) runMerge(runs []*os.File) (*Iterator, error) {
	rb := s.readBufBytes(len(runs))
	s.observeMem(int64(len(runs)) * int64(rb+recordBytes))
	m := &Iterator{}
	for _, f := range runs {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("extsort: rewinding run: %w", err)
		}
		m.add(cursor{rr: &runReader{br: bufio.NewReaderSize(f, rb)}})
		if m.err != nil {
			return nil, m.err
		}
	}
	return m, nil
}

// runReader streams one sorted run.
type runReader struct {
	br  *bufio.Reader
	cur uint64
	err error
}

// advance loads the next record; false at EOF or error.
func (r *runReader) advance() bool {
	var scratch [recordBytes]byte
	if n, err := io.ReadFull(r.br, scratch[:]); err != nil {
		// A wrapped io.EOF at a record boundary is a clean end of run.
		// Anything else — including a torn record, where ReadFull's own
		// ErrUnexpectedEOF promotion misses wrapped EOFs because it
		// compares err == io.EOF — is a real read error.
		if n > 0 || !errors.Is(err, io.EOF) {
			r.err = fmt.Errorf("extsort: reading run: %w", err)
		}
		return false
	}
	r.cur = binary.LittleEndian.Uint64(scratch[:])
	return true
}

// cursor is one sorted run of a merge: an in-memory chunk or a
// spilled run file.
type cursor struct {
	mem []uint64   // chunk: records not yet taken
	rr  *runReader // run file; nil for a chunk
}

// next takes the cursor's next record.
func (c *cursor) next() (uint64, bool) {
	if c.rr != nil {
		ok := c.rr.advance()
		return c.rr.cur, ok
	}
	if len(c.mem) == 0 {
		return 0, false
	}
	rec := c.mem[0]
	c.mem = c.mem[1:]
	return rec, true
}

// Iterator yields sorted records: a k-way merge of sorted runs, the
// buffer's chunks or the spilled run files. heads holds each live run's
// current record, and the next record comes from a linear minimum over
// it: for the handful of runs a merge sees, cheaper than a heap's
// interface calls.
type Iterator struct {
	heads []uint64
	runs  []cursor // runs[i] produced heads[i]
	err   error
}

// add enters a run into the merge, or records its read error.
func (it *Iterator) add(c cursor) {
	if rec, ok := c.next(); ok {
		it.heads = append(it.heads, rec)
		it.runs = append(it.runs, c)
	} else if c.rr != nil && c.rr.err != nil {
		it.err = c.rr.err
	}
}

// next returns the smallest head and advances its run; false once every
// run is drained or one failed.
func (it *Iterator) next() (uint64, bool) {
	if it.err != nil || len(it.heads) == 0 {
		return 0, false
	}
	// Written as a mask and a min, which compile without branches
	// (SETcc, CMOV): heads of interleaved runs would mispredict every
	// other compare. A plain `if h < lo { i = j }` stays a branch; on a
	// 2-vCPU Xeon, merging the six chunks of a scale-18 R-MAT stream
	// took ≈ 40 ns a record with it and ≈ 25 without.
	lo, i := it.heads[0], 0
	for j := 1; j < len(it.heads); j++ {
		h := it.heads[j]
		lt := 0
		if h < lo {
			lt = 1
		}
		i ^= (i ^ j) & -lt
		lo = min(lo, h)
	}
	if nxt, ok := it.runs[i].next(); ok {
		it.heads[i] = nxt
		return lo, true
	}
	if rr := it.runs[i].rr; rr != nil && rr.err != nil {
		it.err = rr.err
		return 0, false
	}
	last := len(it.heads) - 1
	it.heads[i], it.runs[i] = it.heads[last], it.runs[last]
	it.heads, it.runs = it.heads[:last], it.runs[:last]
	return lo, true
}

// Next returns the next record in (key, value) order.
func (it *Iterator) Next() (key, val uint32, ok bool) {
	rec, ok := it.next()
	if !ok {
		return 0, 0, false
	}
	k, v := unpack(rec)
	return k, v, true
}

// Err reports the first read failure, if any.
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator. Chunks and run files belong to the
// Sorter and stay for further Iter calls; Close here only drops
// references.
func (it *Iterator) Close() error {
	it.heads, it.runs = nil, nil
	return nil
}

// Close joins any background sorts, removes all run files and releases
// the buffer. The sorter is unusable afterwards.
func (s *Sorter) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.sorting.Wait()
	s.buf, s.chunks = nil, nil
	var first error
	for _, f := range s.runs {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.runs = nil
	return first
}
