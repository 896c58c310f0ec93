package safs

import (
	"bytes"
	"sync/atomic"
	"testing"
	"testing/quick"

	"flashgraph/internal/pagecache"
	"flashgraph/internal/ssd"
)

func newFS(t *testing.T, cfg Config) (*FS, *ssd.Array) {
	t.Helper()
	a := ssd.NewArray(ssd.ArrayParams{Devices: 4, StripeSize: 16 * 4096})
	t.Cleanup(a.Close)
	return New(a, cfg), a
}

func writePattern(t *testing.T, f *File, size int64) []byte {
	t.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	if err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCreateOpen(t *testing.T) {
	fs, _ := newFS(t, Config{})
	f, err := fs.Create("graph.adj", 100000)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 100000 || f.Name() != "graph.adj" {
		t.Fatalf("file = %q size %d", f.Name(), f.Size())
	}
	if _, err := fs.Create("graph.adj", 10); err == nil {
		t.Fatal("duplicate Create should fail")
	}
	g, err := fs.Open("graph.adj")
	if err != nil || g != f {
		t.Fatalf("Open = %v, %v", g, err)
	}
	if _, err := fs.Open("missing"); err == nil {
		t.Fatal("Open missing should fail")
	}
}

func TestFilesDoNotOverlap(t *testing.T) {
	fs, _ := newFS(t, Config{})
	a, _ := fs.Create("a", 5000) // 2 pages
	b, _ := fs.Create("b", 5000)
	da := bytes.Repeat([]byte{0xAA}, 5000)
	db := bytes.Repeat([]byte{0xBB}, 5000)
	if err := a.WriteAt(da, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteAt(db, 0); err != nil {
		t.Fatal(err)
	}
	ga := make([]byte, 5000)
	gb := make([]byte, 5000)
	if err := a.ReadAt(ga, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadAt(gb, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ga, da) || !bytes.Equal(gb, db) {
		t.Fatal("files overlap or corrupt")
	}
}

func TestWriteBounds(t *testing.T) {
	fs, _ := newFS(t, Config{})
	f, _ := fs.Create("f", 100)
	if err := f.WriteAt(make([]byte, 101), 0); err == nil {
		t.Fatal("out-of-bounds write should fail")
	}
	if err := f.ReadAt(make([]byte, 10), 95); err == nil {
		t.Fatal("out-of-bounds read should fail")
	}
}

func TestReadTaskBasic(t *testing.T) {
	fs, _ := newFS(t, Config{})
	f, _ := fs.Create("f", 64<<10)
	data := writePattern(t, f, 64<<10)

	ctx := fs.NewContext()
	got := make([]byte, 1000)
	ran := false
	ctx.ReadTask(f, 5000, 1000, func(v *View, err error) {
		if err != nil {
			t.Error(err)
		}
		if v.Len() != 1000 {
			t.Errorf("view len = %d", v.Len())
		}
		v.ReadAt(got, 0)
		ran = true
	})
	ctx.Drain()
	if !ran {
		t.Fatal("task did not run")
	}
	if !bytes.Equal(got, data[5000:6000]) {
		t.Fatal("task saw wrong bytes")
	}
}

func TestReadTaskCrossesPages(t *testing.T) {
	fs, _ := newFS(t, Config{})
	f, _ := fs.Create("f", 64<<10)
	data := writePattern(t, f, 64<<10)

	ctx := fs.NewContext()
	// Range spans pages 0..3 with odd head/tail.
	const off, n = 4090, 3*4096 + 13
	got := make([]byte, n)
	ctx.ReadTask(f, off, n, func(v *View, err error) {
		if err != nil {
			t.Error(err)
		}
		v.ReadAt(got, 0)
	})
	ctx.Drain()
	if !bytes.Equal(got, data[off:off+n]) {
		t.Fatal("cross-page read mismatch")
	}
}

func TestReadTaskCacheHitSecondTime(t *testing.T) {
	fs, _ := newFS(t, Config{})
	f, _ := fs.Create("f", 1<<20)
	writePattern(t, f, 1<<20)

	ctx := fs.NewContext()
	run := func() {
		ctx.ReadTask(f, 0, 8192, func(v *View, err error) {})
		ctx.Drain()
	}
	run()
	missesAfterFirst := fs.Cache().Stats().Misses
	readsAfterFirst := fs.Array().Stats().Reads
	run()
	if got := fs.Cache().Stats().Misses; got != missesAfterFirst {
		t.Fatalf("second read missed cache: %d -> %d", missesAfterFirst, got)
	}
	if got := fs.Array().Stats().Reads; got != readsAfterFirst {
		t.Fatalf("second read hit the device: %d -> %d", readsAfterFirst, got)
	}
	if fs.Cache().Stats().Hits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestReadTaskContiguousRunIsOneRequest(t *testing.T) {
	// 8 pages within one stripe must be fetched as a single device
	// request (vectored), not 8.
	a := ssd.NewArray(ssd.ArrayParams{Devices: 1, StripeSize: 64 * 4096})
	defer a.Close()
	fs := New(a, Config{})
	f, _ := fs.Create("f", 1<<20)
	if err := f.WriteAt(make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	a.ResetStats()
	ctx := fs.NewContext()
	ctx.ReadTask(f, 0, 8*4096, func(v *View, err error) {})
	ctx.Drain()
	if got := a.Stats().Reads; got != 1 {
		t.Fatalf("device reads = %d, want 1 (vectored fill)", got)
	}
}

func TestFlushIsTheMergePolicy(t *testing.T) {
	// Two per-vertex requests on adjacent pages: staged into one Flush
	// they become one device request; flushed one at a time, two.
	countReads := func(flushEach bool) int64 {
		a := ssd.NewArray(ssd.ArrayParams{Devices: 1, StripeSize: 64 * 4096})
		defer a.Close()
		fs := New(a, Config{})
		f, _ := fs.Create("f", 1<<20)
		if err := f.WriteAt(make([]byte, 1<<20), 0); err != nil {
			t.Fatal(err)
		}
		a.ResetStats()
		ctx := fs.NewContext()
		ctx.ReadTask(f, 0, 4096, func(v *View, err error) {})
		if flushEach {
			ctx.Flush()
		}
		ctx.ReadTask(f, 4096, 4096, func(v *View, err error) {})
		ctx.Drain()
		return a.Stats().Reads
	}
	if got := countReads(true); got != 2 {
		t.Fatalf("flush per request: reads = %d, want 2", got)
	}
	if got := countReads(false); got != 1 {
		t.Fatalf("one flush for both: reads = %d, want 1", got)
	}
}

// TestWaitWithoutFlushCompletes pins the no-hang guarantee: ReadTask
// only stages, so every blocking call must dispatch what is staged
// before it waits.
func TestWaitWithoutFlushCompletes(t *testing.T) {
	fs, _ := newFS(t, Config{})
	f, _ := fs.Create("f", 64<<10)
	data := writePattern(t, f, 64<<10)
	ctx := fs.NewContext()

	var got byte
	ctx.ReadTask(f, 5000, 1, func(v *View, err error) { got = v.Slice(0, 1, nil)[0] })
	if n := ctx.WaitAny(); n != 1 {
		t.Fatalf("WaitAny with a staged, unflushed load ran %d tasks, want 1", n)
	}
	if got != data[5000] {
		t.Fatalf("task saw %d, want %d", got, data[5000])
	}

	ran := false
	ctx.ReadTask(f, 40000, 1, func(v *View, err error) { ran = true })
	ctx.WaitSignal() // returns once the load it had to flush has landed
	if ctx.Poll() != 1 || !ran {
		t.Fatal("WaitSignal returned before the staged load completed")
	}
}

func TestManyInflightTasks(t *testing.T) {
	fs, _ := newFS(t, Config{CacheBytes: 1 << 20})
	f, _ := fs.Create("f", 4<<20)
	data := writePattern(t, f, 4<<20)

	ctx := fs.NewContext()
	var completedCount int64
	const tasks = 500
	for i := 0; i < tasks; i++ {
		off := int64(i) * 8000 % (4<<20 - 128)
		want := data[off]
		ctx.ReadTask(f, off, 128, func(v *View, err error) {
			if err != nil {
				t.Error(err)
				return
			}
			if v.Slice(0, 1, nil)[0] != want {
				t.Errorf("task at %d saw %d want %d", off, v.Slice(0, 1, nil)[0], want)
			}
			atomic.AddInt64(&completedCount, 1)
		})
	}
	ctx.Drain()
	if completedCount != tasks {
		t.Fatalf("completed %d of %d tasks", completedCount, tasks)
	}
}

func TestWaitAnyAndPoll(t *testing.T) {
	fs, _ := newFS(t, Config{})
	f, _ := fs.Create("f", 1<<20)
	writePattern(t, f, 1<<20)
	ctx := fs.NewContext()
	if n := ctx.Poll(); n != 0 {
		t.Fatalf("Poll on idle ctx = %d", n)
	}
	if n := ctx.WaitAny(); n != 0 {
		t.Fatalf("WaitAny on idle ctx = %d", n)
	}
	ran := 0
	for i := 0; i < 10; i++ {
		ctx.ReadTask(f, int64(i)*4096, 100, func(v *View, err error) { ran++ })
	}
	total := 0
	for total < 10 {
		n := ctx.WaitAny()
		if n == 0 {
			break
		}
		total += n
	}
	if ran != 10 || total != 10 {
		t.Fatalf("ran=%d total=%d", ran, total)
	}
}

func TestViewSliceZeroCopy(t *testing.T) {
	fs, _ := newFS(t, Config{})
	f, _ := fs.Create("f", 64<<10)
	data := writePattern(t, f, 64<<10)
	ctx := fs.NewContext()
	ctx.ReadTask(f, 100, 8000, func(v *View, err error) {
		// Within one page: no copy needed.
		s := v.Slice(0, 100, nil)
		if !bytes.Equal(s, data[100:200]) {
			t.Error("slice mismatch (single page)")
		}
		// Crossing a page boundary (page 0 ends at file offset 4096,
		// i.e. rel 3996).
		s2 := v.Slice(3990, 20, nil)
		if !bytes.Equal(s2, data[4090:4110]) {
			t.Error("slice mismatch (crossing)")
		}
	})
	ctx.Drain()
}

func TestViewQuickReadAt(t *testing.T) {
	fs, _ := newFS(t, Config{})
	f, _ := fs.Create("f", 1<<20)
	data := writePattern(t, f, 1<<20)
	ctx := fs.NewContext()
	prop := func(offRaw, lenRaw uint32, relRaw uint16) bool {
		off := int64(offRaw) % (1<<20 - 20000)
		n := int64(lenRaw)%19000 + 1
		rel := int64(relRaw) % n
		okResult := true
		ctx.ReadTask(f, off, n, func(v *View, err error) {
			if err != nil {
				okResult = false
				return
			}
			m := n - rel
			if m > 64 {
				m = 64
			}
			got := make([]byte, m)
			v.ReadAt(got, rel)
			okResult = bytes.Equal(got, data[off+rel:off+rel+m])
		})
		ctx.Drain()
		return okResult
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPageSizeConfig(t *testing.T) {
	for _, ps := range []int{1024, 4096, 16384} {
		fs, _ := newFS(t, Config{PageSize: ps})
		if fs.PageSize() != ps {
			t.Fatalf("PageSize = %d, want %d", fs.PageSize(), ps)
		}
		f, _ := fs.Create("f", 256<<10)
		data := writePattern(t, f, 256<<10)
		ctx := fs.NewContext()
		got := make([]byte, 3*ps)
		ctx.ReadTask(f, int64(ps/2), int64(3*ps), func(v *View, err error) {
			v.ReadAt(got, 0)
		})
		ctx.Drain()
		if !bytes.Equal(got, data[ps/2:ps/2+3*ps]) {
			t.Fatalf("page size %d: data mismatch", ps)
		}
	}
}

func TestReadTaskMinIOIsOnePage(t *testing.T) {
	// A 1-byte request still reads one whole flash page (the paper's
	// minimum I/O block).
	a := ssd.NewArray(ssd.ArrayParams{Devices: 1, StripeSize: 64 * 4096})
	defer a.Close()
	fs := New(a, Config{})
	f, _ := fs.Create("f", 1<<20)
	if err := f.WriteAt(make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	a.ResetStats()
	ctx := fs.NewContext()
	ctx.ReadTask(f, 5, 1, func(v *View, err error) {})
	ctx.Drain()
	if got := a.Stats().BytesRead; got != 4096 {
		t.Fatalf("bytes read = %d, want one 4KB page", got)
	}
}

// TestResidentReadAllocatesNothing is the allocation gate on the hit
// path: once the pages are resident and the context has run a request
// before, ReadTask + Flush + Poll reuse the context's pooled request.
func TestResidentReadAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	fs, _ := newFS(t, Config{})
	f, _ := fs.Create("f", 1<<20)
	data := writePattern(t, f, 1<<20)
	ctx := fs.NewContext()
	var sum, runs int
	task := func(v *View, err error) {
		if err != nil {
			panic(err)
		}
		sum += int(v.Slice(100, 1, nil)[0])
		runs++
	}
	ctx.ReadTask(f, 4096, 3*4096, task) // load the pages, warm the pool
	ctx.Drain()
	allocs := testing.AllocsPerRun(500, func() {
		ctx.ReadTask(f, 4096, 3*4096, task)
		ctx.Flush()
		if ctx.Poll() != 1 {
			panic("a resident read did not complete synchronously")
		}
	})
	if allocs > 1 {
		t.Fatalf("resident ReadTask + Flush + Poll allocates %.1f objects, want at most 1", allocs)
	}
	if sum != runs*int(data[4096+100]) {
		t.Fatal("pooled requests served wrong bytes")
	}
	if n := fs.Cache().PinnedFrames(); n != 0 {
		t.Fatalf("%d frames left pinned", n)
	}
}

// TestMissReadAllocatesOneRequest is the allocation gate on the miss
// path, device side included: a read of cold pages — staged, flushed as
// one run, landed, polled — reuses the filesystem's pooled flush state
// and each frame's inline waiter slot.
// What is left is the ssd.Request itself: one object per run of pages,
// whether a flush holds one run or two.
func TestMissReadAllocatesOneRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const pages = 1024
	fs, _ := newFS(t, Config{CacheBytes: 64 * 4096}) // every read below is cold
	f, _ := fs.Create("f", pages*4096)
	data := make([]byte, pages*4096)
	for i := range data {
		data[i] = byte(i>>12*7 + i) // differs from page to page
	}
	if err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	ctx := fs.NewContext()
	var got, want, runs int // byte sums: completion order is the devices' business
	at := int64(0)          // file offset of the last read issued, page 0 of a 4-page group
	task := func(v *View, err error) {
		if err != nil {
			panic(err)
		}
		got += int(v.Slice(4096+9, 1, nil)[0])
		runs++
	}
	// Groups of 4 pages never straddle newFS's 16-page stripe unit, so a
	// run is one device request; the walk returns to a page only after 64
	// others have gone through the 64-frame cache.
	next := func() int64 { at = (at + 4*4096) % (pages * 4096); return at }
	read := func(n int) {
		for i := 0; i < n; i++ {
			ctx.ReadTask(f, next(), 3*4096, task)
			want += int(data[at+4096+9])
			if i+1 < n {
				next() // leave a gap: the next ReadTask starts a new run
			}
		}
		ctx.Flush()
		for done := 0; done < n; {
			done += ctx.WaitAny()
		}
	}
	for i := 0; i < 8; i++ { // warm the pools
		read(2)
	}
	before := fs.Cache().Stats().Misses
	for _, n := range []int{1, 2} {
		if allocs := testing.AllocsPerRun(300, func() { read(n) }); allocs > float64(n) {
			t.Errorf("a flush of %d cold run(s) allocates %.1f objects end to end, want one device request per run", n, allocs)
		}
	}
	if misses := fs.Cache().Stats().Misses - before; misses != 3*(301+2*301) {
		t.Fatalf("%d page misses, want every page of every read cold", misses)
	}
	if got != want || runs == 0 {
		t.Fatalf("%d pooled reads served wrong bytes: byte sum %d, want %d", runs, got, want)
	}
	if n := fs.Cache().PinnedFrames(); n != 0 {
		t.Fatalf("%d frames left pinned", n)
	}
}

// TestBypassPagesAreReusedAndBounded: reads around a fully pinned set
// go through the context's bypass pages, which come back at release,
// serve the next bypass with the right bytes, and never pile up.
func TestBypassPagesAreReusedAndBounded(t *testing.T) {
	// A one-frame cache: while one page is held, every other page
	// bypasses.
	fs, _ := newFS(t, Config{CacheBytes: 4096})
	f, _ := fs.Create("f", 1<<20)
	data := writePattern(t, f, 1<<20)
	ctx := fs.NewContext()

	pin, _, ok := fs.Cache().Acquire(pagecache.Key{FileID: f.id, PageNo: 0})
	if !ok {
		t.Fatal("could not pin the only frame")
	}
	defer pin.Unpin()

	for round := 0; round < 3; round++ {
		for p := int64(1); p <= 2*bypassKeep; p++ {
			p := p
			ctx.ReadTask(f, p*4096, 4096, func(v *View, err error) {
				if err != nil {
					t.Errorf("page %d: %v", p, err)
					return
				}
				if got := v.Slice(0, 4096, nil); !bytes.Equal(got, data[p*4096:(p+1)*4096]) {
					t.Errorf("round %d: bypass read of page %d returned another page's bytes", round, p)
				}
			})
		}
		ctx.Drain()
		if len(ctx.bypass) != bypassKeep {
			t.Fatalf("round %d: context keeps %d bypass pages, want %d", round, len(ctx.bypass), bypassKeep)
		}
	}
	if got := fs.Cache().Stats().Bypasses; got != 3*2*bypassKeep {
		t.Fatalf("bypasses = %d, want %d", got, 3*2*bypassKeep)
	}
}
