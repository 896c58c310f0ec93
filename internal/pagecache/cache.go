// Package pagecache implements the SAFS-style scalable page cache used by
// FlashGraph (Zheng et al., "A parallel page cache: IOPS and caching for
// multicore systems", and FAST'15 §3.1).
//
// The cache is set-associative: pages hash to one of many small sets, each
// protected by its own mutex and holding a handful of frames. This keeps
// lock contention negligible on NUMA multicore machines, costs little when
// the hit rate is low, and scales application-perceived throughput
// linearly with the hit rate — the properties FlashGraph relies on to
// "adapt to graph applications with different cache hit rates".
//
// Frames are pinned while user tasks run against them (computation happens
// directly in the page cache; there are no private I/O buffers), and a
// CLOCK hand per set evicts unpinned frames. An eviction recycles the
// victim — the Page and its buffer are re-targeted at the new key in
// place — so a full cache allocates nothing; a Page (and its Data) is
// therefore only meaningful while pinned. If every frame in a set is
// pinned the lookup reports a bypass and the caller reads around the
// cache.
//
// Eviction is thrash-resistant: new frames enter the set cold (the CLOCK
// reference bit is only set on a re-access), and the first lap of the
// eviction sweep probabilistically spares cold frames. Plain CLOCK with
// hot insertion degenerates to exact FIFO under a cyclic working set
// larger than the set — the sequential-flooding anomaly — and scores zero
// hits even though pages are re-referenced every cycle. Randomizing the
// victim choice gives every resident page a geometric chance of surviving
// until its next reference, so looping and scanning workloads retain a
// useful hit rate while genuinely hot pages still get their second
// chance.
package pagecache

import (
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the flash-page granularity FlashGraph issues I/O in.
const DefaultPageSize = 4096

// Key identifies one cached page: a SAFS file and a page index within it.
type Key struct {
	FileID uint32
	PageNo int64
}

// PageState tracks a frame's lifecycle.
type PageState int32

const (
	// stateEmpty means the frame holds no valid page.
	stateEmpty PageState = iota
	// stateLoading means an I/O is in flight to fill the frame.
	stateLoading
	// stateReady means Data holds the page contents.
	stateReady
)

// Page is one cache frame. Callers receive it pinned; they must call
// Unpin exactly once when done. Data must only be read after the page is
// ready (OnReady fired with nil error).
type Page struct {
	mu  sync.Mutex
	key Key
	buf []byte
	err error
	// Callbacks awaiting the load. Nearly every load has exactly one —
	// its loader's — so the first sits inline and only a second caller
	// attaching to the same in-flight load grows the slice.
	waiter  func(error)
	waiters []func(error)

	state PageState
	refs  int32  // pin count (atomic)
	hot   uint32 // CLOCK reference bit (atomic)
	dead  uint32 // load failed (atomic): frame holds no valid bytes
}

// NewPage returns a frame outside any cache over buf — pinned once and
// awaiting its loader, with PageNo -1 — for a caller that has to read
// around a fully pinned set.
func NewPage(buf []byte) *Page { return (&Page{buf: buf}).load(Key{PageNo: -1}) }

// Key returns the page's identity.
func (p *Page) Key() Key { return p.key }

// Data returns the page contents. Valid only once ready.
func (p *Page) Data() []byte { return p.buf }

// Unpin releases one pin. The frame becomes evictable when the pin count
// reaches zero.
func (p *Page) Unpin() {
	if atomic.AddInt32(&p.refs, -1) < 0 {
		panic("pagecache: negative pin count")
	}
}

// pin acquires one pin.
func (p *Page) pin() { atomic.AddInt32(&p.refs, 1) }

// load (re)targets the frame at key, pinned once and awaiting its loader.
// Called under the set lock on a frame nobody holds: a new one, or an
// eviction victim, which is unpinned and so unreachable from any caller.
func (p *Page) load(key Key) *Page {
	p.key, p.state, p.err = key, stateLoading, nil
	atomic.StoreUint32(&p.hot, 0)
	atomic.StoreUint32(&p.dead, 0)
	p.pin()
	return p
}

func (p *Page) pinned() bool { return atomic.LoadInt32(&p.refs) > 0 }

// OnReady registers fn to run when the page's contents are valid (or its
// load failed). If the page is already ready, fn runs synchronously.
// Callbacks run on the goroutine that completes the load.
func (p *Page) OnReady(fn func(error)) {
	p.mu.Lock()
	if p.state == stateReady {
		err := p.err
		p.mu.Unlock()
		fn(err)
		return
	}
	if p.waiter == nil {
		p.waiter = fn
	} else {
		p.waiters = append(p.waiters, fn)
	}
	p.mu.Unlock()
}

// Complete transitions a loading page to ready and fires all waiters.
// The loader (the caller that received loader=true from Acquire) must
// call it exactly once after filling Data.
//
// A failed load (err != nil) marks the frame dead: its error is
// delivered to every waiter of THIS load, but the frame never
// satisfies a future lookup — the next Acquire of the key misses and
// retries the device, so a transient I/O error is not cached into a
// permanent one.
func (p *Page) Complete(err error) {
	if err != nil {
		atomic.StoreUint32(&p.dead, 1)
	}
	p.mu.Lock()
	p.state = stateReady
	p.err = err
	first, ws := p.waiter, p.waiters
	p.waiter, p.waiters = nil, nil
	p.mu.Unlock()
	if first != nil {
		first(err)
	}
	for _, fn := range ws {
		fn(err)
	}
}

// set is one associativity set.
type set struct {
	mu     sync.Mutex
	frames []*Page
	hand   int
	rng    uint64 // xorshift state for probabilistic victim sparing
}

// next steps the set's xorshift64 generator (called under s.mu).
func (s *set) next() uint64 {
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	return x
}

// Stats is a snapshot of cache counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Bypasses counts lookups that found their set fully pinned and had
	// to read around the cache.
	Bypasses int64
}

// HitRate returns Hits/(Hits+Misses), or 0 when no lookups occurred.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is the set-associative page cache.
type Cache struct {
	pageSize int
	assoc    int
	sets     []set

	hits, misses, evictions, bypasses int64
}

// Config sizes a cache.
type Config struct {
	// TotalBytes is the cache capacity. Default 64MiB.
	TotalBytes int64
	// PageSize is the frame size. Default DefaultPageSize (4KiB).
	PageSize int
	// Assoc is frames per set. Default 8 (SAFS places multiple pages in
	// each hashtable slot).
	Assoc int
}

// New builds a cache. Capacity is rounded down to whole sets, floored
// at one frame: a cache never exceeds its byte budget by more than one
// set, and shrinks its associativity when the budget holds fewer frames
// than one full set (large-page sweeps depend on this honoring of the
// budget).
func New(cfg Config) *Cache {
	if cfg.TotalBytes == 0 {
		cfg.TotalBytes = 64 << 20
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.Assoc == 0 {
		cfg.Assoc = 8
	}
	frames := int(cfg.TotalBytes / int64(cfg.PageSize))
	if frames < 1 {
		frames = 1
	}
	if frames < cfg.Assoc {
		cfg.Assoc = frames
	}
	nsets := frames / cfg.Assoc
	if nsets < 1 {
		nsets = 1
	}
	c := &Cache{pageSize: cfg.PageSize, assoc: cfg.Assoc, sets: make([]set, nsets)}
	for i := range c.sets {
		c.sets[i].frames = make([]*Page, 0, cfg.Assoc)
		c.sets[i].rng = uint64(i)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909
	}
	return c
}

// PageSize returns the frame size in bytes.
func (c *Cache) PageSize() int { return c.pageSize }

// Capacity returns the total number of frames.
func (c *Cache) Capacity() int { return len(c.sets) * c.assoc }

func (c *Cache) setFor(key Key) *set {
	// Fibonacci hashing over (file, page).
	h := uint64(key.FileID)*0x9e3779b97f4a7c15 ^ uint64(key.PageNo)*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	return &c.sets[h%uint64(len(c.sets))]
}

// Acquire returns the frame for key, pinned. loader reports whether the
// caller must fill the frame and call Complete (a miss it owns); when
// false the page is either ready or being loaded by another caller — use
// OnReady. ok=false means the set is fully pinned (bypass): the caller
// must read around the cache.
func (c *Cache) Acquire(key Key) (p *Page, loader, ok bool) {
	s := c.setFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()

	for _, f := range s.frames {
		// A dead frame (failed load) never matches: the lookup falls
		// through to the miss path and reloads. The dead frame itself is
		// reclaimed by the eviction scan below once its error waiters
		// unpin it.
		if f.key == key && atomic.LoadUint32(&f.dead) == 0 {
			f.pin()
			atomic.StoreUint32(&f.hot, 1)
			atomic.AddInt64(&c.hits, 1)
			return f, false, true
		}
	}
	atomic.AddInt64(&c.misses, 1)

	// Free slot in the set? New frames enter cold: only a re-access sets
	// the reference bit, so one-touch streaming pages are evicted before
	// pages with a proven reuse history.
	if len(s.frames) < c.assoc {
		f := (&Page{buf: make([]byte, c.pageSize)}).load(key)
		s.frames = append(s.frames, f)
		return f, true, true
	}

	// CLOCK eviction over unpinned frames. The first lap honors the
	// reference bits and spares each cold candidate with probability 1/2,
	// which de-synchronizes the hand from cyclic access patterns (plain
	// CLOCK is exact FIFO under them). The second lap evicts the first
	// unpinned cold frame unconditionally, so an eviction is guaranteed
	// whenever any frame is unpinned.
	n := len(s.frames)
	for tries := 0; tries < 2*n; tries++ {
		f := s.frames[s.hand]
		s.hand = (s.hand + 1) % n
		if f.pinned() {
			continue
		}
		if atomic.LoadUint32(&f.dead) == 0 {
			if atomic.SwapUint32(&f.hot, 0) == 1 {
				continue // second chance
			}
			if tries < n && s.next()&1 == 0 {
				continue // probabilistically spared (thrash resistance)
			}
		} // dead frames hold no valid bytes: evict on sight
		atomic.AddInt64(&c.evictions, 1)
		return f.load(key), true, true
	}
	atomic.AddInt64(&c.bypasses, 1)
	return nil, false, false
}

// Peek reports whether key is resident and ready, without pinning.
// Intended for tests and stats sampling.
func (c *Cache) Peek(key Key) bool {
	s := c.setFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.frames {
		if f.key == key && atomic.LoadUint32(&f.dead) == 0 {
			f.mu.Lock()
			ready := f.state == stateReady
			f.mu.Unlock()
			return ready
		}
	}
	return false
}

// PinnedFrames counts frames currently pinned — diagnostics for pin
// leaks (every lookup path must eventually Unpin, even on aborts).
func (c *Cache) PinnedFrames() int {
	n := 0
	for i := range c.sets {
		s := &c.sets[i]
		s.mu.Lock()
		for _, f := range s.frames {
			if f.pinned() {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      atomic.LoadInt64(&c.hits),
		Misses:    atomic.LoadInt64(&c.misses),
		Evictions: atomic.LoadInt64(&c.evictions),
		Bypasses:  atomic.LoadInt64(&c.bypasses),
	}
}

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() {
	atomic.StoreInt64(&c.hits, 0)
	atomic.StoreInt64(&c.misses, 0)
	atomic.StoreInt64(&c.evictions, 0)
	atomic.StoreInt64(&c.bypasses, 0)
}
