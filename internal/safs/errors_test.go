package safs

import (
	"errors"
	"sync"
	"testing"

	"flashgraph/internal/ssd"
)

// failingStore fails reads after a configurable number of successes.
type failingStore struct {
	mu        sync.Mutex
	remaining int
	inner     *ssd.MemStore
}

var errInjected = errors.New("injected device failure")

func (f *failingStore) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.remaining <= 0 {
		return 0, errInjected
	}
	f.remaining--
	return f.inner.ReadAt(p, off)
}

// ReadVecAt fails buffer by buffer, the way ReadAt does: a merged run
// whose later pages are past the budget still fails.
func (f *failingStore) ReadVecAt(vec [][]byte, off int64) (int, error) {
	total := 0
	for _, b := range vec {
		n, err := f.ReadAt(b, off+int64(total))
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (f *failingStore) WriteAt(p []byte, off int64) (int, error) {
	return f.inner.WriteAt(p, off)
}

func (f *failingStore) Size() int64 { return f.inner.Size() }

func TestReadTaskPropagatesDeviceErrors(t *testing.T) {
	store := &failingStore{remaining: 0, inner: ssd.NewMemStore()}
	arr := ssd.NewArrayWithStores(ssd.ArrayParams{Devices: 1, StripeSize: 64 * 4096}, []ssd.Store{store})
	defer arr.Close()
	fs := New(arr, Config{})
	f, err := fs.Create("f", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	ctx := fs.NewContext()
	var got error
	ran := false
	ctx.ReadTask(f, 0, 4096, func(v *View, err error) {
		ran = true
		got = err
	})
	ctx.Drain()
	if !ran {
		t.Fatal("task did not run on error")
	}
	if !errors.Is(got, errInjected) {
		t.Fatalf("err = %v, want injected failure", got)
	}
}

func TestReadTaskPartialFailureStillCompletes(t *testing.T) {
	// First few pages succeed, later pages fail: the task must still
	// fire exactly once, with the error.
	store := &failingStore{remaining: 2, inner: ssd.NewMemStore()}
	if _, err := store.WriteAt(make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	store.remaining = 2
	arr := ssd.NewArrayWithStores(ssd.ArrayParams{Devices: 1, StripeSize: 4096}, []ssd.Store{store})
	defer arr.Close()
	fs := New(arr, Config{})
	f, err := fs.Create("f", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctx := fs.NewContext()
	calls := 0
	var got error
	ctx.ReadTask(f, 0, 8*4096, func(v *View, err error) {
		calls++
		got = err
	})
	ctx.Drain()
	if calls != 1 {
		t.Fatalf("task fired %d times, want 1", calls)
	}
	if got == nil {
		t.Fatal("expected error from failing pages")
	}
}

func TestReadTaskPanicsOutOfBounds(t *testing.T) {
	fs, _ := newFS(t, Config{})
	f, _ := fs.Create("f", 100)
	ctx := fs.NewContext()
	for _, c := range []struct{ off, n int64 }{{-1, 10}, {95, 10}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ReadTask(%d, %d) did not panic", c.off, c.n)
				}
			}()
			ctx.ReadTask(f, c.off, c.n, func(*View, error) {})
		}()
	}
}

func TestErrorPageNotCachedAsValid(t *testing.T) {
	// After a failed load, a retry must re-attempt the device read
	// rather than serving poisoned cache contents silently. Our cache
	// completes the frame with the error; subsequent readers see the
	// error too (write-once graph images make retry-at-higher-level the
	// right policy). Verify the error is consistently reported.
	store := &failingStore{remaining: 0, inner: ssd.NewMemStore()}
	arr := ssd.NewArrayWithStores(ssd.ArrayParams{Devices: 1, StripeSize: 64 * 4096}, []ssd.Store{store})
	defer arr.Close()
	fs := New(arr, Config{})
	f, _ := fs.Create("f", 64<<10)
	ctx := fs.NewContext()
	errs := 0
	for i := 0; i < 2; i++ {
		ctx.ReadTask(f, 0, 100, func(v *View, err error) {
			if err != nil {
				errs++
			}
		})
		ctx.Drain()
	}
	if errs != 2 {
		t.Fatalf("errors reported %d of 2 attempts", errs)
	}
}
