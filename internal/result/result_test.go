package result

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func TestTopKMatchesFullSortWithPagination(t *testing.T) {
	scores := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3.5}
	rs := New("pagerank")
	rs.AddFloat64("score", scores)

	// Reference: full sort, value desc, vertex asc on ties.
	type ve struct {
		v uint32
		x float64
	}
	ref := make([]ve, len(scores))
	for i, x := range scores {
		ref[i] = ve{uint32(i), x}
	}
	sort.Slice(ref, func(i, j int) bool {
		if ref[i].x != ref[j].x {
			return ref[i].x > ref[j].x
		}
		return ref[i].v < ref[j].v
	})

	for _, tc := range []struct{ k, offset int }{
		{4, 0}, {3, 2}, {100, 0}, {2, 8}, {5, 9}, {1, 100},
	} {
		got, err := rs.TopK("score", tc.k, tc.offset)
		if err != nil {
			t.Fatalf("TopK(%d,%d): %v", tc.k, tc.offset, err)
		}
		lo := min(tc.offset, len(ref))
		hi := min(lo+tc.k, len(ref))
		want := ref[lo:hi]
		if len(got) != len(want) {
			t.Fatalf("TopK(%d,%d): %d entries, want %d", tc.k, tc.offset, len(got), len(want))
		}
		for i := range want {
			if got[i].Vertex != want[i].v || got[i].Value.(float64) != want[i].x {
				t.Fatalf("TopK(%d,%d)[%d] = %+v, want %+v", tc.k, tc.offset, i, got[i], want[i])
			}
		}
	}

	// Pagination partitions the full ranking: pages concatenate to TopK(n, 0).
	all, _ := rs.TopK("score", len(scores), 0)
	var paged []Entry
	for off := 0; off < len(scores); off += 3 {
		page, _ := rs.TopK("score", 3, off)
		paged = append(paged, page...)
	}
	if !reflect.DeepEqual(all, paged) {
		t.Fatalf("paged concat %v != full %v", paged, all)
	}

	if _, err := rs.TopK("score", 0, 0); !errors.Is(err, ErrBadRange) {
		t.Fatalf("k=0: err = %v, want ErrBadRange", err)
	}
	if _, err := rs.TopK("score", 1, -1); !errors.Is(err, ErrBadRange) {
		t.Fatalf("offset=-1: err = %v, want ErrBadRange", err)
	}
	// k and offset are attacker-controlled over HTTP: extreme values must
	// clamp to the vector, not overflow k+offset into a makeslice panic.
	if got, err := rs.TopK("score", math.MaxInt, 1); err != nil || len(got) != len(scores)-1 {
		t.Fatalf("huge k: %d entries, err %v", len(got), err)
	}
	if got, err := rs.TopK("score", math.MaxInt, math.MaxInt); err != nil || len(got) != 0 {
		t.Fatalf("huge k+offset: %d entries, err %v", len(got), err)
	}
}

func TestTopKExactUint64Ordering(t *testing.T) {
	// Values adjacent above 2^53 collide in float64; exact typed
	// comparison must still order them.
	big := uint64(1) << 60
	rs := New("sssp")
	rs.AddUint64("distance", []uint64{big, big + 1, big + 2, 7})
	top, err := rs.TopK("distance", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{{2, big + 2}, {1, big + 1}, {0, big}}
	if !reflect.DeepEqual(top, want) {
		t.Fatalf("top = %v, want %v", top, want)
	}
}

func TestLookupAndVectorResolution(t *testing.T) {
	rs := New("bfs")
	rs.AddInt32("level", []int32{0, 1, -1, 2})

	e, err := rs.Lookup("level", 3)
	if err != nil || e.Vertex != 3 || e.Value.(int32) != 2 {
		t.Fatalf("lookup = %+v, %v", e, err)
	}
	// Empty vector name resolves to the default (first) vector.
	if e, err = rs.Lookup("", 2); err != nil || e.Value.(int32) != -1 {
		t.Fatalf("default-vector lookup = %+v, %v", e, err)
	}
	if _, err = rs.Lookup("level", 4); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("out-of-range: %v, want ErrVertexRange", err)
	}
	if _, err = rs.Lookup("level", -1); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("negative: %v, want ErrVertexRange", err)
	}
	if _, err = rs.Lookup("nope", 0); !errors.Is(err, ErrUnknownVector) {
		t.Fatalf("unknown vector: %v, want ErrUnknownVector", err)
	}

	scalarOnly := New("tc")
	scalarOnly.AddScalar("triangles", int64(7))
	if _, err := scalarOnly.Lookup("", 0); !errors.Is(err, ErrNoVectors) {
		t.Fatalf("scalar-only lookup: %v, want ErrNoVectors", err)
	}
}

func TestCountAndHistogram(t *testing.T) {
	rs := New("bfs")
	v := rs.AddInt32("level", []int32{-1, 0, 1, 1, 2, -1})
	if n := v.Count(func(x float64) bool { return x >= 0 }); n != 4 {
		t.Fatalf("count reached = %d, want 4", n)
	}
	h, err := rs.Histogram("level", 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Min != -1 || h.Max != 2 {
		t.Fatalf("bounds = [%v, %v], want [-1, 2]", h.Min, h.Max)
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total != 6 {
		t.Fatalf("histogram counts sum to %d, want 6", total)
	}
	// Constant vector: everything in bin 0.
	c := New("x")
	c.AddFloat64("v", []float64{5, 5, 5})
	if h, _ := c.Histogram("v", 3); h.Counts[0] != 3 {
		t.Fatalf("constant histogram = %v", h.Counts)
	}
	if _, err := rs.Histogram("level", 0); !errors.Is(err, ErrBadRange) {
		t.Fatalf("bins=0: %v, want ErrBadRange", err)
	}
	// The bin count is attacker-controlled over HTTP: the allocation must
	// be bounded.
	if _, err := rs.Histogram("level", MaxHistogramBins+1); !errors.Is(err, ErrBadRange) {
		t.Fatalf("bins over cap: %v, want ErrBadRange", err)
	}
}

func TestChecksumDeterministicAndSensitive(t *testing.T) {
	build := func(x float64) *ResultSet {
		rs := New("pagerank")
		rs.AddFloat64("score", []float64{0.1, x, 0.3})
		rs.AddScalar("iters", 30)
		return rs
	}
	a, b := build(0.2), build(0.2)
	if a.Checksum() != b.Checksum() {
		t.Fatal("identical result sets hash differently")
	}
	if a.Checksum() == build(0.20000001).Checksum() {
		t.Fatal("different data, same checksum")
	}
	// Bit-sensitivity: -0.0 vs +0.0 differ in representation.
	if build(math.Copysign(0, -1)).Checksum() == build(0).Checksum() {
		t.Fatal("-0.0 and +0.0 must hash differently (bit-identity contract)")
	}
}

// TestChecksumGolden pins the checksum encoding itself: every kind's
// column bytes and the set's framing. CLI and cross-engine checks only
// compare checksums with each other, so a change that moved them all
// alike would pass those; these values must never be edited to match.
func TestChecksumGolden(t *testing.T) {
	rs := New("golden")
	vecs := []*Vector{
		rs.AddInt32("i32", []int32{-1, 0, 7, math.MaxInt32, math.MinInt32}).WithSentinel(int32(-1)),
		rs.AddUint32("u32", []uint32{0, 1, math.MaxUint32}),
		rs.AddUint64("u64", []uint64{0, 1 << 60, math.MaxUint64}),
		rs.AddFloat64("f64", []float64{0, math.Copysign(0, -1), 1.5, math.Inf(1), math.NaN(), -3e-300}),
		rs.AddBool("bool", []bool{true, false, true}),
	}
	rs.AddScalar("n", 42)
	want := []string{"ddebce8e1b6b3722", "e206d4b7906fc9d0", "14fdd5ba143e8ead", "9031833054d7fa6e", "ff1ed9421877e875"}
	for i, v := range vecs {
		if got := v.Checksum(); got != want[i] {
			t.Errorf("vector %s: checksum %s, want %s", v.Name(), got, want[i])
		}
	}
	if got := rs.Checksum(); got != "e9b706d4ac56429b" {
		t.Errorf("set checksum %s, want e9b706d4ac56429b", got)
	}
	if got := rs.Summary()["checksum"]; got != "e9b706d4ac56429b" {
		t.Errorf("Summary checksum %v, want e9b706d4ac56429b", got)
	}
}

func TestSummaryShape(t *testing.T) {
	rs := New("wcc")
	rs.AddUint32("component", []uint32{0, 0, 2, 2, 2})
	rs.AddScalar("components", 2)
	s := rs.Summary()
	if s["algorithm"] != "wcc" || s["components"] != 2 {
		t.Fatalf("summary = %v", s)
	}
	if _, ok := s["checksum"].(string); !ok {
		t.Fatalf("summary missing checksum: %v", s)
	}
	vecs := s["vectors"].([]map[string]any)
	if len(vecs) != 1 || vecs[0]["name"] != "component" || vecs[0]["len"] != 5 {
		t.Fatalf("vector meta = %v", vecs)
	}
	top := s["top"].([]Entry)
	if len(top) != 5 || top[0].Vertex != 2 || top[0].Value.(uint32) != 2 {
		t.Fatalf("top = %v", top)
	}
}

func TestFromFallsBackForNonProducers(t *testing.T) {
	rs := From(struct{}{}, "custom")
	if rs.Algorithm() != "custom" || len(rs.Vectors()) != 0 {
		t.Fatalf("fallback = %v", rs)
	}
}

func TestMemoryBytes(t *testing.T) {
	rs := New("bfs")
	rs.AddInt32("level", make([]int32, 100))
	rs.AddUint64("aux", make([]uint64, 10))
	if got := rs.MemoryBytes(); got != 100*4+10*8+256 {
		t.Fatalf("MemoryBytes = %d", got)
	}
}

// TestSentinelRanksLastAndSkipsReductions pins the sentinel contract:
// sentinel entries (BFS -1, SSSP Unreachable) rank below every real
// value in TopK, never win Max, are excluded from Histogram bins, and
// still appear raw in Lookup and the checksum.
func TestSentinelRanksLastAndSkipsReductions(t *testing.T) {
	unreachable := ^uint64(0)
	rs := New("sssp")
	rs.AddUint64("distance", []uint64{0, unreachable, 7, 3, unreachable}).WithSentinel(unreachable)

	top, err := rs.TopK("distance", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []uint32{2, 3, 0, 1, 4} // reached desc, then sentinels by vertex
	for i, w := range wantOrder {
		if top[i].Vertex != w {
			t.Fatalf("top[%d] = %+v, want vertex %d (full: %v)", i, top[i], w, top)
		}
	}
	v, _ := rs.Vector("distance")
	if e, ok := v.Max(); !ok || e.Vertex != 2 || e.Value.(uint64) != 7 {
		t.Fatalf("Max = %+v, %v; want vertex 2", e, ok)
	}
	h, err := rs.Histogram("distance", 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Sentinels != 2 || h.Min != 0 || h.Max != 7 || h.Counts[0]+h.Counts[1] != 3 {
		t.Fatalf("histogram = %+v", h)
	}
	// Lookup still returns the raw sentinel value.
	if e, _ := rs.Lookup("distance", 1); e.Value.(uint64) != unreachable {
		t.Fatalf("lookup sentinel = %v", e.Value)
	}
	// All-sentinel vector: no max.
	all := New("x")
	av := all.AddInt32("level", []int32{-1, -1}).WithSentinel(int32(-1))
	if _, ok := av.Max(); ok {
		t.Fatal("all-sentinel vector reported a max")
	}
	// Kind-mismatched sentinel panics at construction, not at query time.
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched sentinel type did not panic")
		}
	}()
	all.AddInt32("bad", []int32{0}).WithSentinel("nope")
}

// TestTopKSortFallbackMatchesSelection pins that the large-window sort
// path and the small-window selection path produce identical rankings
// (including sentinel placement and tie-breaks).
func TestTopKSortFallbackMatchesSelection(t *testing.T) {
	n := 4 * selectionWindow
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32((i * 7919) % 97) // many ties
		if i%5 == 0 {
			xs[i] = -1
		}
	}
	rs := New("bfs")
	rs.AddInt32("level", xs).WithSentinel(int32(-1))

	small, err := rs.TopK("level", selectionWindow/2, 3) // selection path
	if err != nil {
		t.Fatal(err)
	}
	big, err := rs.TopK("level", n, 0) // sort path (n > selectionWindow)
	if err != nil {
		t.Fatal(err)
	}
	if len(big) != n {
		t.Fatalf("full ranking has %d entries, want %d", len(big), n)
	}
	for i, e := range small {
		if big[3+i] != e {
			t.Fatalf("rank %d: selection %+v != sort %+v", 3+i, e, big[3+i])
		}
	}
	// Sentinels occupy the tail of the full ranking.
	if big[n-1].Value.(int32) != -1 || big[0].Value.(int32) == -1 {
		t.Fatalf("sentinel placement wrong: head %v tail %v", big[0], big[n-1])
	}
}

// TestSummaryReservedKeysSurviveScalarCollision pins that a scalar
// named like a reserved summary key cannot clobber the determinism
// certificate; the verbatim scalar survives under "scalars".
func TestSummaryReservedKeysSurviveScalarCollision(t *testing.T) {
	rs := New("custom")
	rs.AddFloat64("score", []float64{1, 2})
	rs.AddScalar("checksum", "attacker-chosen")
	rs.AddScalar("top", "not-a-ranking")
	s := rs.Summary()
	if s["checksum"] != rs.Checksum() {
		t.Fatalf("summary checksum %v clobbered by scalar", s["checksum"])
	}
	if _, ok := s["top"].([]Entry); !ok {
		t.Fatalf("summary top clobbered: %v", s["top"])
	}
	sc := s["scalars"].(map[string]any)
	if sc["checksum"] != "attacker-chosen" || sc["top"] != "not-a-ranking" {
		t.Fatalf("verbatim scalars lost: %v", sc)
	}
}

// TestHistogramNonFiniteValues pins that NaN/Inf in a custom float
// vector cannot panic the binning (NaN bin index would be minInt);
// they are excluded and counted with the sentinels.
func TestHistogramNonFiniteValues(t *testing.T) {
	rs := New("custom")
	rs.AddFloat64("ratio", []float64{1, math.NaN(), 2, math.Inf(1), 3, math.Inf(-1)})
	h, err := rs.Histogram("ratio", 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Sentinels != 3 || h.Min != 1 || h.Max != 3 {
		t.Fatalf("histogram = %+v, want 3 excluded, bounds [1,3]", h)
	}
	var total int64
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("binned %d values, want 3", total)
	}
	// All-non-finite: no bins filled, no panic.
	alln := New("custom")
	alln.AddFloat64("x", []float64{math.NaN(), math.Inf(1)})
	if h, err := alln.Histogram("x", 2); err != nil || h.Sentinels != 2 || h.Counts[0]+h.Counts[1] != 0 {
		t.Fatalf("all-non-finite histogram = %+v, %v", h, err)
	}
	// Finite values whose span overflows float64: binned, no panic.
	wide := New("custom")
	wide.AddFloat64("x", []float64{-1.7e308, 0, 1.7e308})
	if h, err := wide.Histogram("x", 4); err != nil || h.Sentinels != 0 || !slices.Equal(h.Counts, []int64{1, 0, 1, 1}) {
		t.Fatalf("overflowing-span histogram = %+v, %v", h, err)
	}
}
