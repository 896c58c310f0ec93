package qos

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestInferClass(t *testing.T) {
	cases := []struct {
		needsSrc bool
		iters    int
		want     Class
	}{
		{true, 0, ClassInteractive}, // bfs, sssp, bc
		{false, 0, ClassAnalytic},   // wcc, tc
		{false, 10, ClassAnalytic},  // labelprop default
		{false, 30, ClassBatch},     // pagerank default
		{false, 20, ClassBatch},     // boundary: 20 is batch
		{false, 19, ClassAnalytic},  // boundary: 19 is not
		{true, 30, ClassBatch},      // ppagerank: a sweep, not a lookup
	}
	for _, c := range cases {
		if got := InferClass(c.needsSrc, c.iters); got != c.want {
			t.Errorf("InferClass(%t, %d) = %s, want %s", c.needsSrc, c.iters, got, c.want)
		}
	}
}

func TestParseClassAndRank(t *testing.T) {
	for i, cl := range Classes {
		got, err := ParseClass(string(cl))
		if err != nil || got != cl {
			t.Fatalf("ParseClass(%q) = %v, %v", cl, got, err)
		}
		if cl.Rank() != i {
			t.Fatalf("%s.Rank() = %d, want %d", cl, cl.Rank(), i)
		}
	}
	if _, err := ParseClass("urgent"); err == nil {
		t.Fatal("ParseClass accepted an unknown class")
	}
	if _, err := ParseClass(""); err == nil {
		t.Fatal("ParseClass accepted the empty class")
	}
}

func TestConfigResolvers(t *testing.T) {
	// The fixed class policy over a range of scheduler sizes: a 1-slot
	// scheduler cannot reserve its only slot, and batch always keeps one.
	for _, c := range []struct{ slots, reserved, batch int }{
		{1, 0, 1},
		{2, 1, 1},
		{4, 1, 1},
		{9, 2, 3},
	} {
		r := reservedSlots(c.slots)
		if b := batchCap(c.slots - r); r != c.reserved || b != c.batch {
			t.Errorf("%d slots: reserved %d, batch cap %d; want %d, %d", c.slots, r, b, c.reserved, c.batch)
		}
	}
	if classWeights != [NumClasses]int{16, 4, 1} {
		t.Fatalf("class weights = %v, want 16 / 4 / 1", classWeights)
	}
}

func TestCacheLRUEvictionByBytes(t *testing.T) {
	c := NewCache(100, func(v int64) int64 { return v })
	keys := func(i int) Key { return Key{Algo: fmt.Sprintf("a%d", i)} }
	for i := 0; i < 4; i++ {
		if c.Put(keys(i), 30) == nil {
			t.Fatalf("put %d rejected", i)
		}
	}
	// 4 x 30 = 120 > 100: the least-recently-used entry (0) is evicted.
	if _, ok := c.Get(keys(0)); ok {
		t.Fatal("oldest entry survived the byte budget")
	}
	for i := 1; i < 4; i++ {
		if _, ok := c.Get(keys(i)); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	// Touch 1 (now most recent), insert another: 2 must go, not 1.
	c.Get(keys(1))
	c.Put(keys(9), 30)
	if _, ok := c.Get(keys(1)); !ok {
		t.Fatal("recently-used entry evicted")
	}
	if _, ok := c.Get(keys(2)); ok {
		t.Fatal("LRU entry survived")
	}
	st := c.Stats()
	if st.Bytes > st.Budget {
		t.Fatalf("bytes %d over budget %d", st.Bytes, st.Budget)
	}
	if st.Evictions != 2 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 2 evictions / 3 entries", st)
	}
}

func TestCacheRejectsOversizedAndZeroBudget(t *testing.T) {
	c := NewCache(50, func(v int64) int64 { return v })
	if c.Put(Key{Algo: "big"}, 51) != nil {
		t.Fatal("value larger than the whole budget admitted")
	}
	disabled := NewCache(0, func(v int64) int64 { return v })
	if disabled.Put(Key{Algo: "x"}, 1) != nil {
		t.Fatal("zero-budget cache admitted a value")
	}
	if _, ok := disabled.Get(Key{Algo: "x"}); ok {
		t.Fatal("zero-budget cache returned a value")
	}
	if st := disabled.Stats(); st.Misses != 1 {
		t.Fatalf("disabled cache misses = %d, want 1 (stats surface stays live)", st.Misses)
	}
}

// TestCacheHandlesTrackResidency drives a random Put/Lookup sequence
// against a model of what should be resident, while readers hammer
// Value on every handle ever issued (the -race half). After every step
// the bytes fit the budget and equal the model's, and a handle is live
// exactly while its entry is resident: evicted, it reports false for
// every holder at once, and an identical Put lands on the resident
// entry instead of charging twice.
func TestCacheHandlesTrackResidency(t *testing.T) {
	const budget, nKeys = 1000, 24
	c := NewCache(budget, func(v int64) int64 { return v })
	key := func(i int) Key { return Key{Algo: fmt.Sprintf("a%d", i)} }

	type held struct {
		e    *Entry[int64]
		size int64
		key  Key
	}
	var (
		mu      sync.Mutex // guards handles for the readers
		handles []*Entry[int64]
		order   []*held // model LRU, front = oldest
	)
	find := func(e *Entry[int64]) int {
		for i, h := range order {
			if h.e == e {
				return i
			}
		}
		return -1
	}
	touch := func(i int) {
		h := order[i]
		order = append(append(order[:i:i], order[i+1:]...), h)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				var e *Entry[int64]
				if len(handles) > 0 {
					e = handles[i%len(handles)]
				}
				mu.Unlock()
				if v, ok := c.Value(e); ok && (v < 1 || v > 400) {
					t.Errorf("live handle returned value %d outside what was inserted", v)
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(7))
	var all []*held
	for step := 0; step < 1000; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // insert
			k, size := key(rng.Intn(nKeys)), int64(1+rng.Intn(400))
			e := c.Put(k, size)
			if i := slices.IndexFunc(order, func(h *held) bool { return h.key == k }); i >= 0 {
				if e != order[i].e {
					t.Fatalf("step %d: Put on a resident key returned a new entry", step)
				}
				touch(i)
				break
			}
			if e == nil {
				t.Fatalf("step %d: Put of %d bytes under budget %d rejected", step, size, budget)
			}
			all = append(all, &held{e: e, size: size, key: k})
			order = append(order, all[len(all)-1])
		default: // lookup
			k := key(rng.Intn(nKeys))
			e, _ := c.Lookup(k)
			i := slices.IndexFunc(order, func(h *held) bool { return h.key == k })
			if (e != nil) != (i >= 0) || (e != nil && e != order[i].e) {
				t.Fatalf("step %d: Lookup(%v) = %v, model index %d", step, k, e, i)
			}
			if i >= 0 {
				touch(i)
			}
		}
		// The model evicts from the front until the bytes fit.
		var bytes int64
		for _, h := range order {
			bytes += h.size
		}
		for bytes > budget {
			bytes -= order[0].size
			order = order[1:]
		}
		mu.Lock()
		handles = handles[:0]
		for _, h := range all {
			handles = append(handles, h.e)
		}
		mu.Unlock()

		st := c.Stats()
		if st.Bytes > st.Budget || st.Bytes != bytes || st.Entries != len(order) {
			t.Fatalf("step %d: stats %+v, model %d bytes in %d entries", step, st, bytes, len(order))
		}
		for _, h := range all {
			v, live := c.Value(h.e)
			if want := find(h.e) >= 0; live != want || (live && v != h.size) {
				t.Fatalf("step %d: handle (size=%d) live=%t value=%d, resident in model=%t",
					step, h.size, live, v, want)
			}
		}
	}
	close(stop)
	wg.Wait()
	if _, ok := c.Value(nil); ok {
		t.Fatal("nil handle reported live")
	}
}

func TestCacheKeyIncludesGraphAndEngine(t *testing.T) {
	c := NewCache(1000, func(v string) int64 { return 1 })
	c.Put(Key{Graph: "fp-a", Algo: "pagerank", Engine: "spmv"}, "a")
	if _, ok := c.Get(Key{Graph: "fp-b", Algo: "pagerank", Engine: "spmv"}); ok {
		t.Fatal("cache hit across different graph fingerprints")
	}
	if _, ok := c.Get(Key{Graph: "fp-a", Algo: "pagerank", Engine: "vertex"}); ok {
		t.Fatal("cache hit across different engines")
	}
	if v, ok := c.Get(Key{Graph: "fp-a", Algo: "pagerank", Engine: "spmv"}); !ok || v != "a" {
		t.Fatal("exact key missed")
	}
}

// TestMultiQueueEnabledIsIgnored: Config.Enabled is a spelling, not a
// switch — Config{} and Config{Enabled: true} build schedulers that
// hand out a fixed push sequence in the same order, and that order is
// the class-aware one (interactive ahead of the batch pushed first).
func TestMultiQueueEnabledIsIgnored(t *testing.T) {
	pops := func(cfg Config) (order []int) {
		q := NewMultiQueue[int](cfg, 2, 32)
		for i := 0; i < 24; i++ {
			if err := q.Push(Classes[(i+2)%NumClasses], i); err != nil {
				t.Fatal(err)
			}
		}
		for range 24 {
			v, rank, ok := q.Pop()
			if !ok {
				t.Fatal("pop failed")
			}
			order = append(order, v)
			q.Done(rank)
		}
		return order
	}
	zero, enabled := pops(Config{}), pops(Config{Enabled: true})
	if !slices.Equal(zero, enabled) {
		t.Fatalf("Pop order differs:\n Config{}              %v\n Config{Enabled: true} %v", zero, enabled)
	}
	if zero[0] != 1 { // push 0 is batch, push 1 interactive
		t.Fatalf("Pop order %v starts in submission order, want the interactive push first", zero)
	}
}

func TestMultiQueuePrioritizesInteractive(t *testing.T) {
	// One slot, everything queued: interactive must dequeue ahead of
	// batch pushed before it.
	q := NewMultiQueue[string](Config{}, 1, 16)
	q.Push(ClassBatch, "b1")
	q.Push(ClassBatch, "b2")
	q.Push(ClassInteractive, "i1")
	q.Push(ClassAnalytic, "a1")
	var order []string
	for i := 0; i < 4; i++ {
		v, rank, ok := q.Pop()
		if !ok {
			t.Fatal("pop failed")
		}
		order = append(order, v)
		q.Done(rank)
	}
	if order[0] != "i1" {
		t.Fatalf("dequeue order %v: interactive did not jump the batch queue", order)
	}
}

func TestMultiQueueReservedSlotPolicy(t *testing.T) {
	// 2 slots, 1 reserved for interactive: the second batch query may
	// not be dequeued while the first still runs, even with a free slot.
	q := NewMultiQueue[string](Config{}, 2, 16)
	q.Push(ClassBatch, "b1")
	q.Push(ClassBatch, "b2")
	v, rank, _ := q.Pop()
	if v != "b1" {
		t.Fatalf("first pop = %q", v)
	}
	popped := make(chan string, 2)
	go func() {
		v, r, ok := q.Pop()
		if ok {
			popped <- v
			defer q.Done(r)
		}
		v2, r2, ok2 := q.Pop()
		if ok2 {
			popped <- v2
			q.Done(r2)
		}
	}()
	select {
	case v := <-popped:
		t.Fatalf("batch %q entered the reserved slot", v)
	case <-time.After(50 * time.Millisecond):
	}
	// An interactive query takes the reserved slot immediately.
	q.Push(ClassInteractive, "i1")
	select {
	case v := <-popped:
		if v != "i1" {
			t.Fatalf("reserved slot went to %q, want i1", v)
		}
	case <-time.After(time.Second):
		t.Fatal("interactive query never dispatched into the reserved slot")
	}
	// Releasing the batch slot frees b2.
	q.Done(rank)
	select {
	case v := <-popped:
		if v != "b2" {
			t.Fatalf("freed slot went to %q, want b2", v)
		}
	case <-time.After(time.Second):
		t.Fatal("queued batch never dispatched after Done")
	}
}

func TestMultiQueueBatchCap(t *testing.T) {
	// 4 slots, 1 reserved, batch capped at half the other 3: two batch
	// pushes, only one dequeues until Done.
	q := NewMultiQueue[string](Config{}, 4, 16)
	q.Push(ClassBatch, "b1")
	q.Push(ClassBatch, "b2")
	_, rank, _ := q.Pop()
	done := make(chan string, 1)
	go func() {
		v, r, ok := q.Pop()
		if ok {
			done <- v
			q.Done(r)
		}
	}()
	select {
	case v := <-done:
		t.Fatalf("batch %q ran beyond the cap", v)
	case <-time.After(50 * time.Millisecond):
	}
	q.Done(rank)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("second batch never ran after the first finished")
	}
}

func TestMultiQueueDrain(t *testing.T) {
	q := NewMultiQueue[int](Config{}, 2, 8)
	q.Push(ClassAnalytic, 1)
	q.Drain()
	if err := q.Push(ClassAnalytic, 2); !errors.Is(err, ErrDraining) {
		t.Fatalf("push after drain: %v, want ErrDraining", err)
	}
	// The admitted query still dequeues; then Pop reports done.
	v, rank, ok := q.Pop()
	if !ok || v != 1 {
		t.Fatalf("pop after drain = (%d, %t), want the admitted query", v, ok)
	}
	q.Done(rank)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, ok := q.Pop(); ok {
			t.Error("pop on a drained empty queue reported a value")
		}
	}()
	wg.Wait()
}

// TestMultiQueueRemove: Remove deletes a queued element without
// touching slot accounting (a queued element never held a slot) and
// reports false for elements already popped or never pushed — the
// contract cancel-while-queued rests on.
func TestMultiQueueRemove(t *testing.T) {
	t.Run("qos", func(t *testing.T) {
		q := NewMultiQueue[int](Config{}, 1, 16)
		for _, v := range []int{1, 2, 3} {
			if err := q.Push(ClassBatch, v); err != nil {
				t.Fatal(err)
			}
		}
		if !q.Remove(ClassBatch, func(v int) bool { return v == 2 }) {
			t.Fatal("Remove did not find the queued middle element")
		}
		if q.Remove(ClassBatch, func(v int) bool { return v == 2 }) {
			t.Fatal("Remove found an already-removed element")
		}
		if queued, _ := q.Load(); queued[0]+queued[1]+queued[2] != 2 {
			t.Fatalf("Load() queued = %v after removal, want 2 in total", queued)
		}
		var order []int
		for i := 0; i < 2; i++ {
			v, rank, ok := q.Pop()
			if !ok {
				t.Fatal("pop failed")
			}
			order = append(order, v)
			q.Done(rank)
		}
		if order[0] != 1 || order[1] != 3 {
			t.Fatalf("dequeue order %v, want [1 3]", order)
		}
		// A popped element is gone from the queue: the caller must
		// fall back to its running-cancel path.
		if q.Remove(ClassBatch, func(v int) bool { return v == 1 }) {
			t.Fatal("Remove found an element already handed out by Pop")
		}
	})
}

// TestMultiQueueRemoveUnblocksDrain: removing the last queued element
// while draining wakes blocked Pop waiters so workers can exit.
func TestMultiQueueRemoveUnblocksDrain(t *testing.T) {
	q := NewMultiQueue[int](Config{}, 1, 16)
	q.Push(ClassBatch, 7)
	// Occupy the only slot so the element stays queued.
	// (Push a second and pop it first.)
	q2 := make(chan struct{})
	q.Drain()
	go func() {
		// Blocks until the queue empties under drain.
		_, _, ok := q.Pop()
		if ok {
			// The queued element may legitimately be handed out before
			// Remove wins the race; Done releases it either way.
			q.Done(ClassBatch.Rank())
		}
		close(q2)
	}()
	q.Remove(ClassBatch, func(v int) bool { return v == 7 })
	select {
	case <-q2:
	case <-time.After(5 * time.Second):
		t.Fatal("Pop waiter not woken after Remove emptied a draining queue")
	}
}
