package extsort

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// chunkBudget is the budget the chunked-sort tests run at: 8192
// records a buffer, sorted in chunks of 1024.
const chunkBudget = 64 << 10

// TestChunkedSortMatchesReference feeds the same records to a sorter
// and to slices.Sort and compares every record, at sizes that leave the
// buffer in one, two and eight chunks, and at sizes that spill runs of
// eight chunks each, merged in one pass and, past maxFanIn runs,
// through an intermediate pass.
func TestChunkedSortMatchesReference(t *testing.T) {
	const perBuf = chunkBudget / recordBytes
	cases := []struct {
		name       string
		n          int
		wantChunks int // left in memory after Sort; 0 when spilled
		wantSpills int
	}{
		{"one-chunk", perBuf/chunksPerBuffer - 1, 1, 0},
		{"two-chunks", perBuf/chunksPerBuffer + 300, 2, 0},
		{"eight-chunks", perBuf - 1, 8, 0},
		{"spilled", 3*perBuf + 1500, 0, 4},
		{"spilled-exact", 2 * perBuf, 0, 2},
		{"spilled-reduced", (maxFanIn+1)*perBuf + 7, 0, maxFanIn + 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{MemBytes: chunkBudget, TmpDir: t.TempDir()})
			defer s.Close()
			r := rand.New(rand.NewSource(int64(tc.n)))
			want := make([]uint64, 0, tc.n)
			for i := 0; i < tc.n; i++ {
				// Few distinct keys: long equal-key streaks and duplicates.
				k, v := r.Uint32()%257, r.Uint32()%1024
				want = append(want, pack(k, v))
				if err := s.Add(k, v); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Sort(); err != nil {
				t.Fatal(err)
			}
			slices.Sort(want)
			if s.Spills() != tc.wantSpills {
				t.Fatalf("spills = %d, want %d", s.Spills(), tc.wantSpills)
			}
			if len(s.chunks) != tc.wantChunks {
				t.Fatalf("%d chunks left in memory, want %d", len(s.chunks), tc.wantChunks)
			}
			first := drain(t, s)
			if !slices.Equal(first, want) {
				t.Fatalf("sorted output differs from slices.Sort (%d vs %d records)", len(first), len(want))
			}
			if second := drain(t, s); !slices.Equal(second, first) {
				t.Fatal("second Iter does not replay the first")
			}
			if err := s.Add(1, 2); err == nil {
				t.Fatal("Add after Sort succeeded")
			}
		})
	}
}

// slowSorts swaps sortChunk for one that takes a while and counts the
// sorts running, restoring it when the test ends.
func slowSorts(t *testing.T) *atomic.Int32 {
	var running atomic.Int32
	orig := sortChunk
	sortChunk = func(c []uint64) {
		running.Add(1)
		defer running.Add(-1)
		time.Sleep(20 * time.Millisecond)
		orig(c)
	}
	t.Cleanup(func() { sortChunk = orig })
	return &running
}

// TestCloseJoinsBackgroundSorts closes a sorter with chunk sorts in
// flight: Close must not return while one still writes into the buffer.
func TestCloseJoinsBackgroundSorts(t *testing.T) {
	running := slowSorts(t)
	s := New(Config{MemBytes: chunkBudget, TmpDir: t.TempDir()})
	t.Cleanup(func() { s.Close() }) // before slowSorts' restore, on any path
	for i := 0; i < chunkBudget/recordBytes-1; i++ {
		if err := s.Add(uint32(i*7919), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(time.Second); running.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no background sort in flight; the test proves nothing")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("%d chunk sorts still running after Close", n)
	}
}

// TestSortJoinsBackgroundSorts: what Iter reads after Sort is sorted,
// however late the background sorts finish.
func TestSortJoinsBackgroundSorts(t *testing.T) {
	running := slowSorts(t)
	s := New(Config{MemBytes: chunkBudget, TmpDir: t.TempDir()})
	defer s.Close()
	const n = chunkBudget/recordBytes - 1
	for i := 0; i < n; i++ {
		if err := s.Add(uint32(n-i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sort(); err != nil {
		t.Fatal(err)
	}
	if r := running.Load(); r != 0 {
		t.Fatalf("%d chunk sorts still running after Sort", r)
	}
	checkSorted(t, drain(t, s), n)
}
