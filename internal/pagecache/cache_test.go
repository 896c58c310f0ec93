package pagecache

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func small() *Cache {
	return New(Config{TotalBytes: 64 * DefaultPageSize, Assoc: 4})
}

func mustAcquireLoader(t *testing.T, c *Cache, key Key) *Page {
	t.Helper()
	p, loader, ok := c.Acquire(key)
	if !ok || !loader {
		t.Fatalf("Acquire(%v): loader=%v ok=%v, want loader miss", key, loader, ok)
	}
	return p
}

func TestAcquireMissThenHit(t *testing.T) {
	c := small()
	key := Key{FileID: 1, PageNo: 7}
	p := mustAcquireLoader(t, c, key)
	copy(p.Data(), []byte("page7"))
	p.Complete(nil)
	p.Unpin()

	p2, loader, ok := c.Acquire(key)
	if !ok || loader {
		t.Fatalf("second Acquire: loader=%v ok=%v, want hit", loader, ok)
	}
	if string(p2.Data()[:5]) != "page7" {
		t.Fatalf("data = %q", p2.Data()[:5])
	}
	p2.Unpin()

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", st.HitRate())
	}
}

func TestOnReadyBeforeAndAfterComplete(t *testing.T) {
	c := small()
	p := mustAcquireLoader(t, c, Key{FileID: 1, PageNo: 1})

	fired := make(chan error, 2)
	p.OnReady(func(err error) { fired <- err })
	select {
	case <-fired:
		t.Fatal("OnReady fired before Complete")
	default:
	}
	p.Complete(nil)
	if err := <-fired; err != nil {
		t.Fatal(err)
	}
	// After ready, OnReady fires synchronously.
	p.OnReady(func(err error) { fired <- err })
	select {
	case <-fired:
	default:
		t.Fatal("OnReady after Complete did not fire synchronously")
	}
	p.Unpin()
}

func TestConcurrentMissSingleLoader(t *testing.T) {
	c := small()
	key := Key{FileID: 3, PageNo: 9}
	const goroutines = 16
	var loaders int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	ready := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-ready
			p, loader, ok := c.Acquire(key)
			if !ok {
				t.Error("unexpected bypass")
				return
			}
			if loader {
				mu.Lock()
				loaders++
				mu.Unlock()
				copy(p.Data(), []byte{42})
				p.Complete(nil)
			}
			done := make(chan struct{})
			p.OnReady(func(error) { close(done) })
			<-done
			if p.Data()[0] != 42 {
				t.Errorf("data = %d", p.Data()[0])
			}
			p.Unpin()
		}()
	}
	close(ready)
	wg.Wait()
	if loaders != 1 {
		t.Fatalf("loaders = %d, want exactly 1", loaders)
	}
}

func TestEvictionWhenSetFull(t *testing.T) {
	// One set of 4 frames: fill it, unpin everything, then demand a 5th
	// page; one resident page must be evicted.
	c := New(Config{TotalBytes: 4 * DefaultPageSize, Assoc: 4})
	if len(c.sets) != 1 {
		t.Fatalf("want single set, got %d", len(c.sets))
	}
	for i := int64(0); i < 4; i++ {
		p := mustAcquireLoader(t, c, Key{PageNo: i})
		p.Complete(nil)
		p.Unpin()
	}
	p := mustAcquireLoader(t, c, Key{PageNo: 99})
	p.Complete(nil)
	p.Unpin()
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestBypassWhenAllPinned(t *testing.T) {
	c := New(Config{TotalBytes: 4 * DefaultPageSize, Assoc: 4})
	var pinned []*Page
	for i := int64(0); i < 4; i++ {
		p := mustAcquireLoader(t, c, Key{PageNo: i})
		p.Complete(nil)
		pinned = append(pinned, p) // keep pinned
	}
	_, _, ok := c.Acquire(Key{PageNo: 50})
	if ok {
		t.Fatal("expected bypass with fully pinned set")
	}
	if c.Stats().Bypasses != 1 {
		t.Fatalf("bypasses = %d", c.Stats().Bypasses)
	}
	for _, p := range pinned {
		p.Unpin()
	}
	// Now it must succeed.
	p, loader, ok := c.Acquire(Key{PageNo: 50})
	if !ok || !loader {
		t.Fatalf("after unpin: loader=%v ok=%v", loader, ok)
	}
	p.Complete(nil)
	p.Unpin()
}

func TestClockPrefersColdPages(t *testing.T) {
	c := New(Config{TotalBytes: 4 * DefaultPageSize, Assoc: 4})
	for i := int64(0); i < 4; i++ {
		p := mustAcquireLoader(t, c, Key{PageNo: i})
		p.Complete(nil)
		p.Unpin()
	}
	// Touch pages 0-2 so they are hot; page 3 keeps hot=1 from insert,
	// but a full CLOCK sweep clears everyone once, so after one more
	// insertion the set must still contain the re-touched pages more
	// often than not. We assert the evicted page is never a pinned one
	// and residency stays consistent.
	for i := int64(0); i < 3; i++ {
		p, loader, ok := c.Acquire(Key{PageNo: i})
		if !ok || loader {
			t.Fatalf("expected hit for page %d", i)
		}
		p.Unpin()
	}
	p := mustAcquireLoader(t, c, Key{PageNo: 100})
	p.Complete(nil)
	p.Unpin()
	resident := 0
	for i := int64(0); i < 4; i++ {
		if c.Peek(Key{PageNo: i}) {
			resident++
		}
	}
	if resident != 3 {
		t.Fatalf("resident original pages = %d, want 3 (one evicted)", resident)
	}
	if !c.Peek(Key{PageNo: 100}) {
		t.Fatal("new page not resident")
	}
}

func TestPeekStates(t *testing.T) {
	c := small()
	key := Key{FileID: 2, PageNo: 4}
	if c.Peek(key) {
		t.Fatal("Peek before insert")
	}
	p := mustAcquireLoader(t, c, key)
	if c.Peek(key) {
		t.Fatal("Peek true while loading")
	}
	p.Complete(nil)
	if !c.Peek(key) {
		t.Fatal("Peek false after Complete")
	}
	p.Unpin()
}

func TestUnpinPanicsWhenOverReleased(t *testing.T) {
	c := small()
	p := mustAcquireLoader(t, c, Key{PageNo: 0})
	p.Complete(nil)
	p.Unpin()
	defer func() {
		if recover() == nil {
			t.Fatal("double Unpin did not panic")
		}
	}()
	p.Unpin()
}

func TestCapacityRounding(t *testing.T) {
	c := New(Config{TotalBytes: 10 * DefaultPageSize, Assoc: 4})
	if c.Capacity() != 8 {
		t.Fatalf("Capacity = %d, want 8 (two sets of four)", c.Capacity())
	}
	// A cache smaller than one full set shrinks associativity instead
	// of exceeding its byte budget.
	c2 := New(Config{TotalBytes: DefaultPageSize, Assoc: 8})
	if c2.Capacity() != 1 {
		t.Fatalf("tiny capacity = %d, want 1 frame (budget honored)", c2.Capacity())
	}
	// And still functions.
	p, loader, ok := c2.Acquire(Key{PageNo: 3})
	if !ok || !loader {
		t.Fatal("tiny cache cannot acquire")
	}
	p.Complete(nil)
	p.Unpin()
}

func TestConcurrentMixedWorkload(t *testing.T) {
	c := New(Config{TotalBytes: 256 * DefaultPageSize, Assoc: 8})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := Key{FileID: uint32(i % 3), PageNo: (seed*31 + int64(i)) % 512}
				p, loader, ok := c.Acquire(key)
				if !ok {
					continue
				}
				if loader {
					p.Data()[0] = byte(key.PageNo)
					p.Complete(nil)
				}
				done := make(chan struct{})
				p.OnReady(func(error) { close(done) })
				<-done
				if p.Data()[0] != byte(key.PageNo) {
					t.Errorf("corrupt page %v: %d", key, p.Data()[0])
				}
				p.Unpin()
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

func TestConcurrentSameKeyAcquireSharesFrame(t *testing.T) {
	// All concurrent acquirers of one key must converge on a single
	// frame: exactly one caller is the loader (and calls Complete exactly
	// once), the rest attach to the in-flight frame via OnReady and
	// observe the loader's bytes.
	c := small()
	key := Key{FileID: 9, PageNo: 13}
	const goroutines = 32
	var (
		loaders   int64
		completes int64
		start     = make(chan struct{})
		wg        sync.WaitGroup
	)
	frames := make([]*Page, goroutines)
	datums := make([][]byte, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p, loader, ok := c.Acquire(key)
			if !ok {
				t.Error("unexpected bypass")
				return
			}
			frames[i] = p
			if loader {
				atomic.AddInt64(&loaders, 1)
				for j := range p.Data() {
					p.Data()[j] = byte(j * 31)
				}
				atomic.AddInt64(&completes, 1)
				p.Complete(nil)
			}
			done := make(chan struct{})
			p.OnReady(func(err error) {
				if err != nil {
					t.Errorf("OnReady err: %v", err)
				}
				close(done)
			})
			<-done
			snap := make([]byte, len(p.Data()))
			copy(snap, p.Data())
			datums[i] = snap
			p.Unpin()
		}(i)
	}
	close(start)
	wg.Wait()
	if loaders != 1 {
		t.Fatalf("loaders = %d, want exactly 1", loaders)
	}
	if completes != 1 {
		t.Fatalf("Complete calls = %d, want exactly 1", completes)
	}
	for i := 1; i < goroutines; i++ {
		if frames[i] != frames[0] {
			t.Fatalf("goroutine %d got a different frame for the same key", i)
		}
		if !bytes.Equal(datums[i], datums[0]) {
			t.Fatalf("goroutine %d observed different data", i)
		}
	}
	for j := range datums[0] {
		if datums[0][j] != byte(j*31) {
			t.Fatalf("data[%d] = %d, want loader's pattern", j, datums[0][j])
		}
	}
}

func TestCyclicThrashRetainsHits(t *testing.T) {
	// A cyclic working set twice the cache size: plain CLOCK with hot
	// insertion degenerates to FIFO and scores zero hits. The
	// thrash-resistant sweep must let a meaningful fraction of pages
	// survive a full cycle.
	c := New(Config{TotalBytes: 128 * DefaultPageSize, Assoc: 8})
	const cycle = 256
	for round := 0; round < 40; round++ {
		for pn := int64(0); pn < cycle; pn++ {
			p, loader, ok := c.Acquire(Key{PageNo: pn})
			if !ok {
				continue
			}
			if loader {
				p.Complete(nil)
			}
			p.Unpin()
		}
	}
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatalf("cyclic thrash scored zero hits: %+v", st)
	}
	if st.HitRate() < 0.02 {
		t.Fatalf("hit rate %.4f too low under cyclic reuse: %+v", st.HitRate(), st)
	}
}

func TestQuickResidencyAfterFill(t *testing.T) {
	// Property: immediately after a loader completes and unpins a page,
	// and with no further insertions to its set, the page is resident.
	f := func(file uint8, pages []int16) bool {
		c := New(Config{TotalBytes: 4096 * DefaultPageSize, Assoc: 8})
		for _, pn := range pages {
			key := Key{FileID: uint32(file), PageNo: int64(pn)}
			p, loader, ok := c.Acquire(key)
			if !ok {
				return false
			}
			if loader {
				p.Complete(nil)
			}
			p.Unpin()
			if !c.Peek(key) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFailedLoadNotCached is the dead-frame rule: a load completed with
// an error never satisfies a later lookup — the next Acquire of the
// same key is a fresh loader miss, so a transient device error cannot
// be cached into a permanent one. Waiters of the failed load itself
// still see its error.
func TestFailedLoadNotCached(t *testing.T) {
	c := small()
	key := Key{FileID: 3, PageNo: 9}
	p := mustAcquireLoader(t, c, key)
	var sawErr error
	p.OnReady(func(err error) { sawErr = err })
	loadErr := errors.New("ssd: injected load failure")
	p.Complete(loadErr)
	if sawErr != loadErr {
		t.Fatalf("waiter of the failed load saw %v, want %v", sawErr, loadErr)
	}
	p.Unpin()

	if c.Peek(key) {
		t.Fatal("Peek found the dead frame")
	}
	p2 := mustAcquireLoader(t, c, key)
	copy(p2.Data(), []byte("fresh"))
	p2.Complete(nil)
	p2.Unpin()

	p3, loader, ok := c.Acquire(key)
	if !ok || loader {
		t.Fatalf("after clean reload: loader=%v ok=%v, want hit", loader, ok)
	}
	if string(p3.Data()[:5]) != "fresh" {
		t.Fatal("reload served stale bytes")
	}
	p3.Unpin()
}

// fullSet returns a one-set cache whose assoc frames hold pages
// 0..assoc-1, ready and unpinned.
func fullSet(t *testing.T, assoc int) *Cache {
	t.Helper()
	c := New(Config{TotalBytes: int64(assoc) * DefaultPageSize, Assoc: assoc})
	if len(c.sets) != 1 {
		t.Fatalf("want single set, got %d", len(c.sets))
	}
	for i := 0; i < assoc; i++ {
		p := mustAcquireLoader(t, c, Key{PageNo: int64(i)})
		p.Data()[0] = byte(i)
		p.Complete(nil)
		p.Unpin()
	}
	return c
}

// TestRecycledFrameForgetsOldKey: an eviction re-targets the victim
// frame in place, and from then on the frame answers only to its new
// key — a lookup of the evicted key is a loader miss, never a hit on
// the recycled frame's new bytes.
func TestRecycledFrameForgetsOldKey(t *testing.T) {
	c := fullSet(t, 4)
	old := append([]*Page(nil), c.sets[0].frames...)

	p := mustAcquireLoader(t, c, Key{PageNo: 99})
	victim := -1
	for i, f := range old {
		if f == p {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatal("eviction allocated a new frame instead of recycling the victim")
	}
	if p.Key() != (Key{PageNo: 99}) {
		t.Fatalf("recycled frame kept key %v", p.Key())
	}
	p.Data()[0] = 99
	p.Complete(nil)
	p.Unpin()

	oldKey := Key{PageNo: int64(victim)}
	if c.Peek(oldKey) {
		t.Fatalf("Peek still finds evicted key %v", oldKey)
	}
	q := mustAcquireLoader(t, c, oldKey) // a hit here would serve page 99's bytes
	q.Complete(nil)
	q.Unpin()
}

// TestDeadFrameRecycledClean: a frame whose load failed is evicted on
// sight and must come back with no trace of the failure — no error for
// new waiters, no dead mark keeping it out of lookups.
func TestDeadFrameRecycledClean(t *testing.T) {
	c := fullSet(t, 2)
	// Fail a load into the set: the victim frame now holds a dead page.
	dead := mustAcquireLoader(t, c, Key{PageNo: 50})
	dead.Complete(errors.New("ssd: injected load failure"))
	dead.Unpin()

	// The dead frame is the next victim, whatever the CLOCK hand says.
	p := mustAcquireLoader(t, c, Key{PageNo: 51})
	if p != dead {
		t.Fatal("the dead frame was not the one recycled")
	}
	waited := errors.New("waiter never ran")
	p.OnReady(func(err error) { waited = err })
	p.Complete(nil)
	if waited != nil {
		t.Fatalf("waiter on the recycled frame saw %v", waited)
	}
	p.Unpin()
	if !c.Peek(Key{PageNo: 51}) {
		t.Fatal("recycled frame is not resident under its new key")
	}
	got, loader, ok := c.Acquire(Key{PageNo: 51})
	if !ok || loader || got != p {
		t.Fatalf("lookup after a clean reload: loader=%v ok=%v, want a hit on the recycled frame", loader, ok)
	}
	got.Unpin()
}

// TestEvictionAllocatesNothing: with every frame resident and unpinned,
// a miss recycles a victim in place.
func TestEvictionAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := fullSet(t, 8)
	next := int64(1000)
	allocs := testing.AllocsPerRun(1000, func() {
		p, loader, ok := c.Acquire(Key{PageNo: next})
		if !ok || !loader {
			panic("expected an evicting miss")
		}
		next++
		p.Complete(nil)
		p.Unpin()
	})
	if allocs != 0 {
		t.Fatalf("evicting Acquire + Complete + Unpin allocates %.1f objects, want 0", allocs)
	}
	if ev := c.Stats().Evictions; ev < 1000 {
		t.Fatalf("only %d evictions: the gate measured something else", ev)
	}
}
