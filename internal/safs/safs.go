// Package safs implements the set-associative file system (SAFS) of
// Zheng et al. ("Toward millions of file system IOPS on low-cost,
// commodity hardware", SC'13), the substrate FlashGraph runs on
// (FAST'15 §3.1).
//
// SAFS is a user-space filesystem library layered over an SSD array. It
// contributes three things FlashGraph depends on:
//
//   - dedicated per-SSD I/O goroutines fed by message passing (the ssd
//     package), avoiding kernel block-layer lock contention;
//   - a scalable set-associative page cache (the pagecache package);
//   - an asynchronous *user-task* I/O interface: instead of reading into
//     caller-allocated buffers, the caller attaches a task to each read
//     request, and the task executes against the cache pages directly
//     once they are resident — no buffer allocation, no copy, and
//     computation overlaps I/O.
//
// Completion tasks are executed on the goroutine that polls the caller's
// IOContext (mirroring SAFS delivering AIO completions to the issuing
// thread), so a graph-engine worker always runs its vertex programs
// itself.
package safs

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"flashgraph/internal/pagecache"
	"flashgraph/internal/ssd"
)

// Config configures a filesystem instance.
type Config struct {
	// PageSize is the cache/IO granularity (default 4KiB). The paper
	// sweeps this in Figure 13.
	PageSize int
	// CacheBytes sizes the page cache (default 64MiB).
	CacheBytes int64
}

// FS is one SAFS instance over an SSD array.
type FS struct {
	array    *ssd.Array
	cache    *pagecache.Cache
	pageSize int

	mu     sync.Mutex
	files  map[string]*File
	nextID uint32
	alloc  int64 // next free array offset (page aligned)

	// Idle flush state, shared by every context: a flush is taken by the
	// goroutine that owns a context and handed back by whichever I/O
	// goroutine lands its last run, and contexts come and go with runs
	// while the array's queues — which bound the flushes in flight —
	// stay.
	flushMu sync.Mutex
	flushes []*flush
}

// New creates a filesystem over array.
func New(array *ssd.Array, cfg Config) *FS {
	if cfg.PageSize == 0 {
		cfg.PageSize = pagecache.DefaultPageSize
	}
	cache := pagecache.New(pagecache.Config{
		TotalBytes: cfg.CacheBytes,
		PageSize:   cfg.PageSize,
	})
	return &FS{
		array:    array,
		cache:    cache,
		pageSize: cfg.PageSize,
		files:    make(map[string]*File),
	}
}

// PageSize returns the I/O granularity in bytes.
func (fs *FS) PageSize() int { return fs.pageSize }

// Cache exposes the page cache (stats, capacity).
func (fs *FS) Cache() *pagecache.Cache { return fs.cache }

// Array exposes the underlying device array (stats).
func (fs *FS) Array() *ssd.Array { return fs.array }

// File is a write-once SAFS file: graph images are written during load
// and only read during computation (FlashGraph minimizes SSD wearout by
// never writing during execution).
type File struct {
	fs   *FS
	id   uint32
	name string
	base int64
	size int64

	// Per-extent CRC32C read verification (see integrity.go); nil sums
	// means reads are unverified. Set once via SetChecksums after the
	// file is written, before the first read.
	sums    []uint32
	extSize int64
}

// Create allocates a file of the given size (rounded up to whole pages).
func (fs *FS) Create(name string, size int64) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("safs: file %q exists", name)
	}
	ps := int64(fs.pageSize)
	alloc := (size + ps - 1) / ps * ps
	f := &File{fs: fs, id: fs.nextID, name: name, base: fs.alloc, size: size}
	fs.nextID++
	fs.alloc += alloc
	fs.files[name] = f
	return f, nil
}

// Open returns an existing file.
func (fs *FS) Open(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("safs: file %q not found", name)
	}
	return f, nil
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the file length in bytes.
func (f *File) Size() int64 { return f.size }

// WriteAt writes synchronously through to the array, bypassing the cache.
// Files must be fully written before the first ReadTask (write-once).
func (f *File) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > f.size {
		return fmt.Errorf("safs: write [%d,%d) outside file %q of size %d", off, off+int64(len(p)), f.name, f.size)
	}
	return f.fs.array.WriteAt(p, f.base+off)
}

// ReadAt reads synchronously, bypassing the cache (setup paths and the
// SpMV engine's stripe sweeps; the vertex engine uses
// IOContext.ReadTask). When the file carries checksums every extent
// the read touches is verified before returning.
func (f *File) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > f.size {
		return fmt.Errorf("safs: read [%d,%d) outside file %q of size %d", off, off+int64(len(p)), f.name, f.size)
	}
	if err := f.fs.array.ReadAt(p, f.base+off); err != nil {
		return err
	}
	return f.VerifyRange(p, off)
}

// TaskFunc is a user task attached to an async read. It runs against the
// page cache via the View once all covered pages are resident. The View
// is valid only for the duration of the call.
type TaskFunc func(v *View, err error)

// load is one page that needs device I/O.
type load struct {
	file   *File
	pageNo int64
	page   *pagecache.Page
}

// request is one ReadTask from issue to the end of its task: the view
// over its pages, the count of pages still loading, and the first load
// error. Requests are pooled per context, so a read whose pages are all
// resident allocates nothing.
type request struct {
	ctx  *IOContext
	view View
	task TaskFunc
	// pending counts page-ready events plus one sentinel, so the task
	// cannot fire before ReadTask has examined every page.
	pending atomic.Int32
	errMu   sync.Mutex
	err     error
	onPage  func(error) // r.pageReady, bound once
}

// pageReady records one page's outcome; the last one completes the
// request.
func (r *request) pageReady(err error) {
	if err != nil {
		r.errMu.Lock()
		if r.err == nil {
			r.err = err
		}
		r.errMu.Unlock()
	}
	if r.pending.Add(-1) == 0 {
		r.ctx.push(r)
	}
}

const (
	// requestKeep and bypassKeep bound what an idle context retains;
	// flushKeep what an idle filesystem does, in flushes of at most
	// flushKeepLoads pages — a larger one (a dense sweep's merged read of
	// hundreds of pages) has paid for itself and is dropped.
	requestKeep    = 256
	bypassKeep     = 8
	flushKeep      = 32
	flushKeepLoads = 64
)

// flush is one Flush from dispatch until its last run has landed: the
// sorted loads, the runs of adjacent pages cut from them, and the array
// batch that carries the runs. The filesystem keeps idle ones, so a
// steady stream of flushes allocates nothing per run of pages.
type flush struct {
	fs    *FS
	loads []load
	runs  []*pageRun // grow-only; one dispatch uses a prefix
	batch []ssd.BatchRead
	live  atomic.Int32 // runs still in flight
}

// pageRun is one run of adjacent staged pages of one file: a single
// vectored array read that fills the cache frames in place.
type pageRun struct {
	fl    *flush
	file  *File
	loads []load      // the run's pages, a window of fl.loads
	vec   [][]byte    // head pad, the frames, tail pad
	start int64       // file offset of vec's first byte
	lo    int64       // file offset of the first page
	done  func(error) // r.landed, bound once
}

// run returns the flush's i-th run.
func (fl *flush) run(i int) *pageRun {
	if i == len(fl.runs) {
		r := &pageRun{fl: fl}
		r.done = r.landed
		fl.runs = append(fl.runs, r)
	}
	return fl.runs[i]
}

// landed publishes the run's pages; the flush's last run to land hands
// the flush back to the filesystem.
func (r *pageRun) landed(err error) {
	// Verify each landed page before anyone can observe it: Complete
	// publishes the frame to every waiter, so a corrupt page must carry
	// its CorruptionError from the start. Per-page verdicts — one flipped
	// bit fails only the pages sharing its extent, not the whole merged
	// run.
	var verdicts []error
	if err == nil {
		verdicts = r.file.verifyRun(r.vec, r.start, r.lo, len(r.loads))
	}
	for k, ld := range r.loads {
		if verdicts != nil {
			err = verdicts[k]
		}
		ld.page.Complete(err)
	}
	clear(r.vec)
	r.loads = nil
	if fl := r.fl; fl.live.Add(-1) == 0 && cap(fl.loads) <= flushKeepLoads {
		clear(fl.loads)
		fs := fl.fs
		fs.flushMu.Lock()
		if len(fs.flushes) < flushKeep {
			fs.flushes = append(fs.flushes, fl)
		}
		fs.flushMu.Unlock()
	}
}

// IOStats counts the page traffic one IOContext generated. The global
// cache and array counters aggregate every context on the FS; these
// per-context counters are what let concurrent runs over one shared FS
// report accurate per-run hit rates and read volumes.
type IOStats struct {
	// PageHits counts pages served without a device load: already
	// resident, or attached to another caller's in-flight load.
	PageHits int64
	// PageLoads counts pages this context had to load itself (cache
	// misses it owned, plus bypass reads around a fully pinned set).
	PageLoads int64
	// BytesLoaded is PageLoads in bytes (pages are loaded whole).
	BytesLoaded int64
}

// IOContext is a per-worker I/O issue/completion context. It is not safe
// for concurrent use; each engine worker owns one (mirroring SAFS
// per-thread I/O instances).
type IOContext struct {
	fs *FS

	mu       sync.Mutex
	ready    []*request
	signal   chan struct{}
	staged   []load // loads awaiting Flush
	inflight int64  // atomic: issued but not yet delivered to ready
	stats    IOStats

	// Owner-goroutine state: idle requests and bypass buffers, and the
	// ready slice Poll last ran, swapped back in by the next Poll.
	free   []*request
	bypass [][]byte
	polled []*request
}

// NewContext creates an I/O context on fs.
func (fs *FS) NewContext() *IOContext {
	return &IOContext{fs: fs, signal: make(chan struct{}, 1)}
}

// IOStats snapshots this context's page-traffic counters. Counters are
// written only by the owning goroutine during ReadTask; snapshot from
// another goroutine only after synchronizing with the owner.
func (ctx *IOContext) IOStats() IOStats { return ctx.stats }

// Pending returns the number of issued-but-unprocessed requests.
func (ctx *IOContext) Pending() int {
	ctx.mu.Lock()
	n := len(ctx.ready)
	ctx.mu.Unlock()
	return n + int(atomic.LoadInt64(&ctx.inflight))
}

func (ctx *IOContext) push(r *request) {
	ctx.mu.Lock()
	ctx.ready = append(ctx.ready, r)
	ctx.mu.Unlock()
	atomic.AddInt64(&ctx.inflight, -1)
	select {
	case ctx.signal <- struct{}{}:
	default:
	}
}

// ReadTask issues an asynchronous read of [off, off+length) of f and
// associates task with it. The task runs when the caller next calls Poll
// or WaitAny after all covered pages are resident.
//
// ReadTask only stages the page loads the read needs; Flush dispatches
// them. How many ReadTasks a caller stages between flushes is the whole
// merge policy: SAFS merges whatever one Flush holds.
func (ctx *IOContext) ReadTask(f *File, off, length int64, task TaskFunc) {
	if length <= 0 {
		panic("safs: ReadTask with non-positive length")
	}
	if off < 0 || off+length > f.size {
		panic(fmt.Sprintf("safs: ReadTask [%d,%d) outside file %q of size %d", off, off+length, f.name, f.size))
	}
	atomic.AddInt64(&ctx.inflight, 1)
	ps := int64(ctx.fs.pageSize)
	p0 := off / ps
	p1 := (off + length - 1) / ps

	var r *request
	if n := len(ctx.free); n > 0 {
		r, ctx.free = ctx.free[n-1], ctx.free[:n-1]
	} else {
		r = &request{ctx: ctx}
		r.onPage = r.pageReady
	}
	r.task = task
	r.view.pageSize, r.view.head, r.view.length = ctx.fs.pageSize, int(off-p0*ps), length
	r.pending.Store(1)

	for pn := p0; pn <= p1; pn++ {
		h, loader, ok := ctx.fs.cache.Acquire(pagecache.Key{FileID: f.id, PageNo: pn})
		if !ok {
			// The set is fully pinned: read around the cache into a
			// private page over one of the context's bypass buffers.
			var buf []byte
			if n := len(ctx.bypass); n > 0 {
				buf, ctx.bypass = ctx.bypass[n-1], ctx.bypass[:n-1]
			} else {
				buf = make([]byte, ctx.fs.pageSize)
			}
			h, loader = pagecache.NewPage(buf), true
		}
		if loader {
			ctx.stats.PageLoads++
			ctx.stats.BytesLoaded += int64(ctx.fs.pageSize)
		} else {
			ctx.stats.PageHits++
		}
		r.view.frames = append(r.view.frames, h)
		r.pending.Add(1)
		h.OnReady(r.onPage)
		if loader {
			ctx.staged = append(ctx.staged, load{file: f, pageNo: pn, page: h})
		}
	}
	r.pageReady(nil) // release sentinel
}

// recycle ends a request: its frames are unpinned, its bypass buffers
// and the request itself go back to the context.
func (ctx *IOContext) recycle(r *request) {
	for i, f := range r.view.frames {
		if f.Key().PageNo < 0 && len(ctx.bypass) < bypassKeep {
			ctx.bypass = append(ctx.bypass, f.Data())
		}
		f.Unpin()
		r.view.frames[i] = nil
	}
	r.view.frames = r.view.frames[:0]
	r.task, r.err = nil, nil
	if len(ctx.free) < requestKeep {
		ctx.free = append(ctx.free, r)
	}
}

// takeReady takes ownership of the completed requests, leaving the
// slice the previous batch used in their place.
func (ctx *IOContext) takeReady() []*request {
	ctx.mu.Lock()
	batch := ctx.ready
	ctx.ready, ctx.polled = ctx.polled[:0], nil
	ctx.mu.Unlock()
	return batch
}

// Flush is the single dispatch of staged page loads: they are sorted by
// (file, page), runs of adjacent pages of one file become one vectored
// read filling the cache frames in place, and the whole flush goes to
// the array as ONE batch — the array routes every run's device extents
// together, and each device sorts and coalesces adjacent extents across
// runs before service, so pages that are contiguous on a device but
// split across files still merge into single requests (Figure 12's
// SAFS-level merging when a flush holds many ReadTasks).
func (ctx *IOContext) Flush() {
	if len(ctx.staged) == 0 {
		return
	}
	fs := ctx.fs
	var fl *flush
	fs.flushMu.Lock()
	if n := len(fs.flushes); n > 0 {
		fl, fs.flushes = fs.flushes[n-1], fs.flushes[:n-1]
	}
	fs.flushMu.Unlock()
	if fl == nil {
		fl = &flush{fs: fs}
	}
	// The flush owns the staged loads until its last run lands (the runs
	// are windows of them); the context stages into the slice the flush
	// last used.
	fl.loads, ctx.staged = ctx.staged, fl.loads[:0]
	slices.SortFunc(fl.loads, func(a, b load) int {
		if c := cmp.Compare(a.file.id, b.file.id); c != 0 {
			return c
		}
		return cmp.Compare(a.pageNo, b.pageNo)
	})
	fl.batch = fl.batch[:0]
	for i := 0; i < len(fl.loads); {
		j := i + 1
		for j < len(fl.loads) &&
			fl.loads[j].file == fl.loads[i].file &&
			fl.loads[j].pageNo == fl.loads[j-1].pageNo+1 {
			j++
		}
		fl.batch = append(fl.batch, fl.loads[i].file.loadRun(fl.run(len(fl.batch)), fl.loads[i:j]))
		i = j
	}
	fl.live.Store(int32(len(fl.batch)))
	fs.array.SubmitReadBatch(fl.batch)
}

// loadRun sets r up as the array read that fills one run of adjacent
// staged pages of f in place.
func (f *File) loadRun(r *pageRun, run []load) ssd.BatchRead {
	ps := int64(f.fs.pageSize)
	lo := run[0].pageNo * ps
	head, tail := f.verifyPads(lo, lo+int64(len(run))*ps)
	vec := r.vec[:0]
	if head != nil {
		vec = append(vec, head)
	}
	for _, ld := range run {
		vec = append(vec, ld.page.Data())
	}
	if tail != nil {
		vec = append(vec, tail)
	}
	r.file, r.loads, r.vec = f, run, vec
	r.lo, r.start = lo, lo-int64(len(head))
	return ssd.BatchRead{Off: f.base + r.start, Vec: vec, Done: r.done}
}

// Poll runs all currently-completed tasks on the calling goroutine and
// returns how many ran. It never blocks. Views are released (pins
// returned to the shared cache) even when a task panics: the panic
// propagates, but it must not leak pinned frames into a cache other
// I/O contexts share.
func (ctx *IOContext) Poll() int {
	batch := ctx.takeReady()
	next := 0
	defer func() {
		// Requests are left only when a task panicked mid-batch.
		for _, r := range batch[next:] {
			ctx.recycle(r)
		}
		clear(batch)
		ctx.polled = batch
	}()
	for _, r := range batch {
		next++
		func() {
			defer ctx.recycle(r)
			r.task(&r.view, r.err)
		}()
	}
	return len(batch)
}

// WaitAny blocks until at least one task has run (or nothing is in
// flight), then returns the number of tasks run. Like every blocking
// call on the context it flushes first, so a caller that forgot to
// cannot wait forever on loads that were never dispatched.
func (ctx *IOContext) WaitAny() int {
	ctx.Flush()
	for {
		if n := ctx.Poll(); n > 0 {
			return n
		}
		if atomic.LoadInt64(&ctx.inflight) == 0 {
			return 0
		}
		<-ctx.signal
	}
}

// WaitSignal blocks until a completion is delivered (or returns
// immediately when nothing is in flight) WITHOUT running tasks. Callers
// that need to attribute time to I/O wait versus computation use
// Poll + WaitSignal instead of WaitAny.
func (ctx *IOContext) WaitSignal() {
	ctx.Flush()
	if atomic.LoadInt64(&ctx.inflight) == 0 {
		return
	}
	<-ctx.signal
}

// DiscardPending flushes staged loads, waits for every in-flight
// request to land, and releases their views WITHOUT running the
// attached tasks. It is the abort path: a run that died mid-flight must
// still return its pinned frames to the shared cache.
func (ctx *IOContext) DiscardPending() {
	ctx.Flush() // staged loads would otherwise never complete
	for {
		batch := ctx.takeReady()
		for _, r := range batch {
			ctx.recycle(r)
		}
		clear(batch)
		ctx.polled = batch
		if atomic.LoadInt64(&ctx.inflight) == 0 {
			return
		}
		<-ctx.signal
	}
}

// Drain runs tasks until no requests remain in flight.
func (ctx *IOContext) Drain() {
	for {
		ctx.Poll()
		ctx.Flush() // including whatever the tasks just run staged
		if atomic.LoadInt64(&ctx.inflight) == 0 && ctx.Pending() == 0 {
			return
		}
		<-ctx.signal
	}
}
