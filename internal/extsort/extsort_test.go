package extsort

import (
	"math/rand"
	"testing"
)

// drain collects every record from a fresh iterator.
func drain(t *testing.T, s *Sorter) []uint64 {
	t.Helper()
	it, err := s.Iter()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []uint64
	for {
		k, v, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, pack(k, v))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func checkSorted(t *testing.T, recs []uint64, wantLen int) {
	t.Helper()
	if len(recs) != wantLen {
		t.Fatalf("got %d records, want %d", len(recs), wantLen)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1] > recs[i] {
			t.Fatalf("records out of order at %d: %x > %x", i, recs[i-1], recs[i])
		}
	}
}

func TestInMemorySort(t *testing.T) {
	s := New(Config{TmpDir: t.TempDir()})
	defer s.Close()
	r := rand.New(rand.NewSource(1))
	const n = 10000
	for i := 0; i < n; i++ {
		if err := s.Add(r.Uint32()%1000, r.Uint32()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sort(); err != nil {
		t.Fatal(err)
	}
	if s.Spills() != 0 {
		t.Fatalf("spills = %d, want 0 (everything fit in the default budget)", s.Spills())
	}
	checkSorted(t, drain(t, s), n)
}

func TestSpillingSortTinyBudget(t *testing.T) {
	// 8KiB of buffer = 1024 records; 50000 records force dozens of runs.
	s := New(Config{MemBytes: 8 << 10, TmpDir: t.TempDir()})
	defer s.Close()
	r := rand.New(rand.NewSource(7))
	const n = 50000
	want := make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		k, v := r.Uint32(), r.Uint32()
		want[pack(k, v)]++
		if err := s.Add(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sort(); err != nil {
		t.Fatal(err)
	}
	if s.Spills() < 2 {
		t.Fatalf("spills = %d, want multi-run spill", s.Spills())
	}
	recs := drain(t, s)
	checkSorted(t, recs, n)
	got := make(map[uint64]int, n)
	for _, rec := range recs {
		got[rec]++
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("record %x: count %d, want %d", k, got[k], c)
		}
	}
}

func TestMultiPassMerge(t *testing.T) {
	// Fan-in 4 with many runs forces intermediate merge passes.
	s := New(Config{MemBytes: 8 << 10, MaxFanIn: 4, ReadBufBytes: 4 << 10, TmpDir: t.TempDir()})
	defer s.Close()
	r := rand.New(rand.NewSource(3))
	const n = 40000
	for i := 0; i < n; i++ {
		if err := s.Add(r.Uint32(), r.Uint32()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sort(); err != nil {
		t.Fatal(err)
	}
	if s.Spills() <= 4 {
		t.Fatalf("spills = %d, want > MaxFanIn to exercise reduction", s.Spills())
	}
	checkSorted(t, drain(t, s), n)
}

func TestIterReplaysIdentically(t *testing.T) {
	for _, mem := range []int64{0 /* in-memory */, 8 << 10 /* spilled */} {
		s := New(Config{MemBytes: mem, TmpDir: t.TempDir()})
		r := rand.New(rand.NewSource(11))
		const n = 30000
		for i := 0; i < n; i++ {
			if err := s.Add(r.Uint32()%500, r.Uint32()%500); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sort(); err != nil {
			t.Fatal(err)
		}
		first := drain(t, s)
		second := drain(t, s)
		if len(first) != len(second) {
			t.Fatalf("replay length %d != %d", len(second), len(first))
		}
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("replay diverges at %d", i)
			}
		}
		s.Close()
	}
}

func TestKeyThenValueOrder(t *testing.T) {
	s := New(Config{MemBytes: 8 << 10, TmpDir: t.TempDir()})
	defer s.Close()
	// Same key, descending values: must come back ascending by value.
	for v := uint32(5000); v > 0; v-- {
		if err := s.Add(42, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sort(); err != nil {
		t.Fatal(err)
	}
	recs := drain(t, s)
	checkSorted(t, recs, 5000)
	if k, v := unpack(recs[0]); k != 42 || v != 1 {
		t.Fatalf("first record = (%d,%d), want (42,1)", k, v)
	}
}

func TestEmptySorter(t *testing.T) {
	s := New(Config{TmpDir: t.TempDir()})
	defer s.Close()
	if err := s.Sort(); err != nil {
		t.Fatal(err)
	}
	if recs := drain(t, s); len(recs) != 0 {
		t.Fatalf("empty sorter yielded %d records", len(recs))
	}
}

func TestAddAfterSortFails(t *testing.T) {
	s := New(Config{TmpDir: t.TempDir()})
	defer s.Close()
	if err := s.Sort(); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(1, 2); err == nil {
		t.Fatal("expected error adding after Sort")
	}
}

// TestPeakMemoryStaysNearBudget spills over 40 runs and merges them in
// one pass at the default ReadBufBytes: the readers must share the
// budget, not take 256KiB each on top of it.
func TestPeakMemoryStaysNearBudget(t *testing.T) {
	const budget = 256 << 10
	const runs = 41
	s := New(Config{MemBytes: budget, TmpDir: t.TempDir()})
	defer s.Close()
	for i := 0; i < runs*budget/recordBytes; i++ {
		if err := s.Add(uint32(i*2654435761), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sort(); err != nil {
		t.Fatal(err)
	}
	if s.Spills() < 40 {
		t.Fatalf("spills = %d, want >= 40", s.Spills())
	}
	it, err := s.Iter() // the merge sizes its readers here
	if err != nil {
		t.Fatal(err)
	}
	it.Close()
	// The read-buffer floor binds only when the budget split across the
	// runs falls under it; at this budget it does not.
	limit := max(int64(budget), int64(s.Spills())*(minReadBufBytes+recordBytes))
	if s.PeakMemBytes() > limit {
		t.Fatalf("peak memory %d exceeds the %d budget", s.PeakMemBytes(), limit)
	}
}
