package util

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGDifferentSeeds(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical values of 100", same)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGUniformity(t *testing.T) {
	// Coarse uniformity: each of 8 buckets should get roughly 1/8.
	r := NewRNG(99)
	const n = 80000
	var buckets [8]int
	for i := 0; i < n; i++ {
		buckets[r.Intn(8)]++
	}
	for i, c := range buckets {
		if c < n/8-n/40 || c > n/8+n/40 {
			t.Fatalf("bucket %d has %d of %d (expected ~%d)", i, c, n, n/8)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(5)
	out := make([]int, 50)
	r.Perm(out)
	seen := make(map[int]bool)
	for _, v := range out {
		if v < 0 || v >= len(out) || seen[v] {
			t.Fatalf("invalid permutation: %v", out)
		}
		seen[v] = true
	}
}

func TestBitmapBasic(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	if !b.Set(0) || !b.Set(64) || !b.Set(129) {
		t.Fatal("first Set should report change")
	}
	if b.Set(64) {
		t.Fatal("second Set of same bit should report no change")
	}
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Get mismatch")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	b.Unset(64)
	if b.Get(64) || b.Count() != 2 {
		t.Fatal("Unset failed")
	}
	b.Clear()
	if b.Count() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestBitmapForEachOrder(t *testing.T) {
	b := NewBitmap(200)
	want := []int{3, 17, 64, 65, 128, 199}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestBitmapAppendSet checks the word-at-a-time range scan against Get
// over ranges that start and end inside, on and across word boundaries.
func TestBitmapAppendSet(t *testing.T) {
	const n = 300
	b := NewBitmap(n)
	rng := NewRNG(7)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			b.Set(i)
		}
	}
	for _, i := range []int{0, 63, 64, 127, 128, 299} {
		b.Set(i)
	}
	ranges := [][2]int{
		{0, 0}, {0, 1}, {0, 63}, {0, 64}, {0, 65}, {1, 64}, {63, 64}, {63, 65}, {64, 64}, {64, 128},
		{5, 9}, {70, 70}, {70, 71}, {60, 200}, {127, 129}, {128, 300}, {299, 300}, {0, 300}, {256, 300},
	}
	for _, r := range ranges {
		var want []uint32
		for i := r[0]; i < r[1]; i++ {
			if b.Get(i) {
				want = append(want, uint32(i))
			}
		}
		prefix := []uint32{9999}
		got := b.AppendSet(prefix, r[0], r[1])
		if got[0] != 9999 || len(got)-1 != len(want) {
			t.Fatalf("[%d,%d): got %v, want prefix + %v", r[0], r[1], got, want)
		}
		for i := range want {
			if got[i+1] != want[i] {
				t.Fatalf("[%d,%d): got %v, want prefix + %v", r[0], r[1], got, want)
			}
		}
	}
}

func TestBitmapConcurrentSet(t *testing.T) {
	const n = 4096
	b := NewBitmap(n)
	var wg sync.WaitGroup
	var changed int64
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < n; i++ {
				if b.Set(i) {
					local++
				}
			}
			mu.Lock()
			changed += int64(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if changed != n {
		t.Fatalf("exactly-once Set violated: %d wins for %d bits", changed, n)
	}
	if b.Count() != n {
		t.Fatalf("Count = %d, want %d", b.Count(), n)
	}
}

// TestBitmapSetManyMatchesSet: two writers batching overlapping,
// duplicate-laden lists through SetMany, while a third sets some of the
// same bits one at a time, leave exactly the bitmap a loop of Set leaves
// — and Any agrees with Count before and after.
func TestBitmapSetManyMatchesSet(t *testing.T) {
	const n = 1000
	rng := NewRNG(7)
	lists := make([][]uint32, 3)
	for w := range lists {
		for i := 0; i < 4000; i++ {
			lists[w] = append(lists[w], uint32(rng.Intn(n/2)+w*n/4)) // ranges overlap pairwise
		}
	}
	want := NewBitmap(n)
	for _, l := range lists {
		for _, i := range l {
			want.Set(int(i))
		}
	}

	got := NewBitmap(n)
	if got.Any() || got.Count() != 0 {
		t.Fatal("fresh bitmap is not empty")
	}
	var wg sync.WaitGroup
	for w, l := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w == 2 {
				for _, i := range l {
					got.Set(int(i))
				}
				return
			}
			for len(l) > 0 {
				k := min(len(l), 1+len(l)%17)
				got.SetMany(l[:k])
				l = l[k:]
			}
		}()
	}
	wg.Wait()
	if !got.Any() || got.Count() != want.Count() {
		t.Fatalf("Count = %d (Any %v), want %d", got.Count(), got.Any(), want.Count())
	}
	for i := 0; i < n; i++ {
		if got.Get(i) != want.Get(i) {
			t.Fatalf("bit %d = %v, want %v", i, got.Get(i), want.Get(i))
		}
	}
	got.SetMany(nil)
	got.Clear()
	if got.Any() {
		t.Fatal("Any after Clear")
	}
}

func TestBitmapQuickSetGet(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := NewBitmap(1 << 16)
		set := make(map[int]bool)
		for _, raw := range idxs {
			i := int(raw)
			b.Set(i)
			set[i] = true
		}
		for i := range set {
			if !b.Get(i) {
				return false
			}
		}
		return b.Count() == len(set)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		0:          "0B",
		512:        "512B",
		2048:       "2.0KB",
		13 << 30:   "13.0GB",
		1126 << 30: "1.1TB",
	}
	for in, want := range cases {
		if got := HumanBytes(in); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestHumanCount(t *testing.T) {
	cases := map[int64]string{
		42:              "42",
		42_000_000:      "42M",
		1_500_000:       "1.5M",
		3_400_000_000:   "3.4B",
		129_000_000_000: "129B",
	}
	for in, want := range cases {
		if got := HumanCount(in); got != want {
			t.Errorf("HumanCount(%d) = %q, want %q", in, got, want)
		}
	}
}
