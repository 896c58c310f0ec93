// Package result defines the uniform, typed result contract every
// FlashGraph algorithm returns: a ResultSet of named per-vertex
// property vectors (level, score, component, ...) plus named scalars
// (reached, triangles, ...), with point lookup, deterministic top-K
// with pagination, count/histogram reductions, and an FNV-64a checksum
// that certifies bit-identical results across runs.
//
// The serve layer exposes these operations over HTTP; the bespoke
// per-algorithm summarizer closures they replace lived in
// internal/serve. A ResultSet is immutable once built (algorithms build
// one in their Result method after the run completes), so readers may
// use it concurrently without locking.
package result

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// Kind names a vector's element type.
type Kind string

// Vector element kinds.
const (
	Int32   Kind = "int32"
	Uint32  Kind = "uint32"
	Uint64  Kind = "uint64"
	Float64 Kind = "float64"
)

// Reduction errors. The serve HTTP layer maps these onto status codes.
var (
	// ErrUnknownVector reports a vector name the ResultSet does not have.
	ErrUnknownVector = errors.New("result: unknown vector")
	// ErrNoVectors reports a default-vector operation on a scalar-only
	// ResultSet (e.g. triangle counting).
	ErrNoVectors = errors.New("result: result set has no vectors")
	// ErrVertexRange reports a point lookup outside [0, Len).
	ErrVertexRange = errors.New("result: vertex out of range")
	// ErrBadRange reports a non-positive k, negative offset, or
	// non-positive histogram bin count.
	ErrBadRange = errors.New("result: bad range parameters")
)

// Entry is one (vertex, value) pair, the unit of lookups and top-K.
type Entry struct {
	Vertex uint32 `json:"vertex"`
	Value  any    `json:"value"`
}

// Vector is one named per-vertex property: a typed column of length
// NumVertices.
type Vector struct {
	name     string
	kind     Kind
	col      column
	sentinel any // optional not-a-value marker (see WithSentinel)
}

// column is a Vector's data. col[T] is its one implementation, so each
// operation is written once for every kind.
type column interface {
	len() int
	value(i int) any
	float(i int) float64
	fits(x any) bool      // x has the column's element type
	is(i int, x any) bool // element i equals x
	bytes() int64
	hash() uint64
	topK(k, offset int, sentinel any) []Entry
}

type col[T int32 | uint32 | uint64 | float64] []T

func (c col[T]) len() int             { return len(c) }
func (c col[T]) value(i int) any      { return c[i] }
func (c col[T]) float(i int) float64  { return float64(c[i]) }
func (c col[T]) fits(x any) bool      { return typedSentinel[T](x) != nil }
func (c col[T]) bytes() int64         { return int64(binary.Size([]T(c))) }
func (c col[T]) is(i int, x any) bool { s, ok := x.(T); return ok && c[i] == s }
func (c col[T]) topK(k, offset int, sentinel any) []Entry {
	return topK([]T(c), k, offset, typedSentinel[T](sentinel))
}

// FNV-64a's parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hash returns the FNV-64a hash of the column's little-endian encoding,
// folded inline one byte at a time: no copy of the column and no call
// per element.
func (c col[T]) hash() uint64 {
	var zero T
	_, isFloat := any(zero).(float64)
	width := binary.Size(zero)
	h := uint64(fnvOffset)
	for _, x := range c {
		bits := uint64(x) // of an int32, only the low four bytes are hashed
		if isFloat {
			bits = math.Float64bits(float64(x))
		}
		for range width {
			h = (h ^ bits&0xff) * fnvPrime
			bits >>= 8
		}
	}
	return h
}

// WithSentinel marks one value of the column as "no result for this
// vertex" (BFS's -1 level, SSSP's Unreachable distance). Sentinel
// entries rank below every real value in TopK/Max and are excluded from
// Histogram binning (counted in Histogram.Sentinels); Lookup and
// Checksum still see the raw value — the bit-identity contract hashes
// the column exactly as the algorithm produced it. The sentinel's type
// must match the column's kind.
func (v *Vector) WithSentinel(x any) *Vector {
	if !v.col.fits(x) {
		panic(fmt.Sprintf("result: sentinel %T does not match vector kind %s", x, v.kind))
	}
	v.sentinel = x
	return v
}

// Name returns the vector's name.
func (v *Vector) Name() string { return v.name }

// Kind returns the element type.
func (v *Vector) Kind() Kind { return v.kind }

// Len returns the element count.
func (v *Vector) Len() int { return v.col.len() }

// Value returns element i with its exact type.
func (v *Vector) Value(i int) any { return v.col.value(i) }

// Float returns element i as float64 — a lossy numeric view (uint64
// above 2^53 rounds) used by Count and Histogram predicates. Ordering
// operations (TopK, Max) compare exact typed values instead.
func (v *Vector) Float(i int) float64 { return v.col.float(i) }

// Bytes returns the column's data footprint.
func (v *Vector) Bytes() int64 { return v.col.bytes() }

// Checksum returns the FNV-64a hash of the column's little-endian
// encoding. Equal checksums across runs certify bit-identical vectors.
func (v *Vector) Checksum() string {
	return fmt.Sprintf("%016x", v.col.hash())
}

// TopK returns entries ranked by value descending (ties broken by
// smaller vertex ID — the deterministic total order the pagination
// contract needs), skipping the first offset ranks and returning at
// most k. A window k+offset up to selectionWindow (256) is one O(V·window)
// selection pass; a larger one copies all V entries and sorts, O(V log V).
func (v *Vector) TopK(k, offset int) ([]Entry, error) {
	if k <= 0 || offset < 0 {
		return nil, ErrBadRange
	}
	// Clamp to the vector before k+offset is ever formed: both values
	// are caller-controlled (HTTP query parameters) and must not
	// overflow or drive the selection buffer past O(Len).
	if offset >= v.Len() {
		return []Entry{}, nil
	}
	if k > v.Len()-offset {
		k = v.Len() - offset
	}
	return v.col.topK(k, offset, v.sentinel), nil
}

// typedSentinel unwraps a Vector's sentinel for the typed kernels (nil
// when unset).
func typedSentinel[T cmp.Ordered](sentinel any) *T {
	if s, ok := sentinel.(T); ok {
		return &s
	}
	return nil
}

// Max returns the maximum non-sentinel entry (smallest vertex ID on
// ties); ok is false for an empty or all-sentinel vector.
func (v *Vector) Max() (Entry, bool) {
	top, err := v.TopK(1, 0)
	if err != nil || len(top) == 0 || v.isSentinel(int(top[0].Vertex)) {
		return Entry{}, false
	}
	return top[0], true
}

// Count returns how many elements satisfy pred (over the Float view).
func (v *Vector) Count(pred func(float64) bool) int {
	n := 0
	for i, l := 0, v.Len(); i < l; i++ {
		if pred(v.Float(i)) {
			n++
		}
	}
	return n
}

// Histogram is a fixed-width binning of a vector's Float view.
type Histogram struct {
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Counts []int64 `json:"counts"`
	// Sentinels counts entries carrying the vector's sentinel value
	// (excluded from the bins and bounds).
	Sentinels int64 `json:"sentinels,omitempty"`
}

// MaxHistogramBins bounds Histogram's bin count: the count is
// caller-controlled over HTTP, and the Counts allocation must not be an
// unauthenticated memory-exhaustion lever.
const MaxHistogramBins = 10_000

// Histogram bins the vector's values into bins equal-width buckets
// spanning [min, max] (1 <= bins <= MaxHistogramBins). A constant
// vector lands entirely in bin 0.
func (v *Vector) Histogram(bins int) (Histogram, error) {
	if bins <= 0 || bins > MaxHistogramBins {
		return Histogram{}, ErrBadRange
	}
	h := Histogram{Counts: make([]int64, bins)}
	n := v.Len()
	first := true
	// Non-finite values (NaN/±Inf from custom float vectors) are
	// excluded like sentinels: NaN arithmetic would otherwise turn the
	// bin index into minInt and panic on a caller-reachable path.
	skip := func(i int) bool {
		if v.isSentinel(i) {
			return true
		}
		x := v.Float(i)
		return math.IsNaN(x) || math.IsInf(x, 0)
	}
	for i := 0; i < n; i++ {
		if skip(i) {
			h.Sentinels++
			continue
		}
		x := v.Float(i)
		if first {
			h.Min, h.Max, first = x, x, false
			continue
		}
		if x < h.Min {
			h.Min = x
		}
		if x > h.Max {
			h.Max = x
		}
	}
	if first {
		return h, nil // empty or all values excluded: no bins to fill
	}
	// Max − Min overflows to +Inf when the finite values span more than
	// MaxFloat64, and Inf/Inf would make the top bin index minInt. Bin on
	// halved values then: halving is exact, so no value changes bin.
	scale := 1.0
	if math.IsInf(h.Max-h.Min, 0) {
		scale = 0.5
	}
	width := (h.Max*scale - h.Min*scale) / float64(bins)
	for i := 0; i < n; i++ {
		if skip(i) {
			continue
		}
		b := 0
		if width > 0 {
			b = int((v.Float(i)*scale - h.Min*scale) / width)
			if b >= bins {
				b = bins - 1 // the maximum lands in the last bin
			}
		}
		h.Counts[b]++
	}
	return h, nil
}

// isSentinel reports whether element i carries the sentinel value.
func (v *Vector) isSentinel(i int) bool {
	return v.sentinel != nil && v.col.is(i, v.sentinel)
}

// selectionWindow bounds the insertion-based selection kernel: past
// this window size its O((k+offset)·V) shifting costs more than a full
// O(V log V) sort, and — since k and offset arrive over HTTP — would be
// an unauthenticated CPU-exhaustion lever.
const selectionWindow = 256

// topK is the shared ranking kernel: value descending, sentinel values
// last, ties broken by ascending vertex ID (the deterministic total
// order the pagination contract needs). Small windows use one bounded
// selection pass; large ones fall back to a full sort. The caller has
// clamped k+offset to len(xs).
func topK[T cmp.Ordered](xs []T, k, offset int, sentinel *T) []Entry {
	n := k + offset
	type ve struct {
		v uint32
		x T
	}
	better := func(a, b ve) bool { // strict ranking order
		if sentinel != nil && (a.x == *sentinel) != (b.x == *sentinel) {
			return b.x == *sentinel // any real value outranks the sentinel
		}
		if a.x != b.x {
			return a.x > b.x
		}
		return a.v < b.v
	}
	var top []ve
	if n > selectionWindow {
		top = make([]ve, len(xs))
		for i, x := range xs {
			top[i] = ve{uint32(i), x}
		}
		sort.Slice(top, func(i, j int) bool { return better(top[i], top[j]) })
		top = top[:n]
	} else {
		top = make([]ve, 0, min(n, len(xs)))
		for i, x := range xs {
			e := ve{uint32(i), x}
			if len(top) == n && !better(e, top[n-1]) {
				continue
			}
			at := sort.Search(len(top), func(j int) bool { return better(e, top[j]) })
			if len(top) < n {
				top = append(top, ve{})
			}
			copy(top[at+1:], top[at:])
			top[at] = e
		}
	}
	if offset >= len(top) {
		return []Entry{}
	}
	top = top[offset:]
	out := make([]Entry, len(top))
	for i, t := range top {
		out[i] = Entry{Vertex: t.v, Value: t.x}
	}
	return out
}

// ResultSet is one algorithm run's complete typed output: ordered named
// vectors plus ordered named scalars. Build it once after the run (the
// algorithm's Result method), then treat it as immutable.
type ResultSet struct {
	algorithm   string
	vectors     []*Vector
	byName      map[string]*Vector
	scalarOrder []string
	scalars     map[string]any
}

// New returns an empty ResultSet for the named algorithm.
func New(algorithm string) *ResultSet {
	return &ResultSet{
		algorithm: algorithm,
		byName:    map[string]*Vector{},
		scalars:   map[string]any{},
	}
}

// Algorithm returns the producing algorithm's name.
func (rs *ResultSet) Algorithm() string { return rs.algorithm }

func (rs *ResultSet) add(v *Vector) *Vector {
	if _, dup := rs.byName[v.name]; dup {
		panic(fmt.Sprintf("result: duplicate vector %q", v.name))
	}
	rs.vectors = append(rs.vectors, v)
	rs.byName[v.name] = v
	return v
}

// AddInt32 adds an int32 vector. The slice is referenced, not copied —
// the algorithm hands over ownership of its state array.
func (rs *ResultSet) AddInt32(name string, xs []int32) *Vector {
	return rs.add(&Vector{name: name, kind: Int32, col: col[int32](xs)})
}

// AddUint32 adds a uint32 vector (shared-reference, like AddInt32).
func (rs *ResultSet) AddUint32(name string, xs []uint32) *Vector {
	return rs.add(&Vector{name: name, kind: Uint32, col: col[uint32](xs)})
}

// AddUint64 adds a uint64 vector (shared-reference, like AddInt32).
func (rs *ResultSet) AddUint64(name string, xs []uint64) *Vector {
	return rs.add(&Vector{name: name, kind: Uint64, col: col[uint64](xs)})
}

// AddFloat64 adds a float64 vector (shared-reference, like AddInt32).
func (rs *ResultSet) AddFloat64(name string, xs []float64) *Vector {
	return rs.add(&Vector{name: name, kind: Float64, col: col[float64](xs)})
}

// AddBool adds a bool vector, stored as uint32 0/1 (this one copies).
func (rs *ResultSet) AddBool(name string, xs []bool) *Vector {
	u := make([]uint32, len(xs))
	for i, b := range xs {
		if b {
			u[i] = 1
		}
	}
	return rs.AddUint32(name, u)
}

// AddScalar records a named scalar (count, argmax, ...). Scalars keep
// insertion order in Summary.
func (rs *ResultSet) AddScalar(name string, v any) {
	if _, dup := rs.scalars[name]; !dup {
		rs.scalarOrder = append(rs.scalarOrder, name)
	}
	rs.scalars[name] = v
}

// Vectors returns the vectors in insertion order (the first is the
// default vector).
func (rs *ResultSet) Vectors() []*Vector { return rs.vectors }

// Scalar returns a named scalar.
func (rs *ResultSet) Scalar(name string) (any, bool) {
	v, ok := rs.scalars[name]
	return v, ok
}

// Vector resolves a vector by name; the empty name selects the default
// (first) vector.
func (rs *ResultSet) Vector(name string) (*Vector, error) {
	if name == "" {
		if len(rs.vectors) == 0 {
			return nil, ErrNoVectors
		}
		return rs.vectors[0], nil
	}
	v, ok := rs.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownVector, name, rs.vectorNames())
	}
	return v, nil
}

func (rs *ResultSet) vectorNames() []string {
	names := make([]string, len(rs.vectors))
	for i, v := range rs.vectors {
		names[i] = v.name
	}
	return names
}

// Lookup is the point query: the named vector's value at vertex.
func (rs *ResultSet) Lookup(vector string, vertex int) (Entry, error) {
	v, err := rs.Vector(vector)
	if err != nil {
		return Entry{}, err
	}
	if vertex < 0 || vertex >= v.Len() {
		return Entry{}, fmt.Errorf("%w: vertex %d outside [0, %d)", ErrVertexRange, vertex, v.Len())
	}
	return Entry{Vertex: uint32(vertex), Value: v.Value(vertex)}, nil
}

// TopK ranks the named vector descending and returns ranks
// [offset, offset+k).
func (rs *ResultSet) TopK(vector string, k, offset int) ([]Entry, error) {
	v, err := rs.Vector(vector)
	if err != nil {
		return nil, err
	}
	return v.TopK(k, offset)
}

// Histogram bins the named vector into bins buckets.
func (rs *ResultSet) Histogram(vector string, bins int) (Histogram, error) {
	v, err := rs.Vector(vector)
	if err != nil {
		return Histogram{}, err
	}
	return v.Histogram(bins)
}

// MemoryBytes estimates the retained footprint — what the serve layer
// charges against its result byte budget.
func (rs *ResultSet) MemoryBytes() int64 {
	var n int64
	for _, v := range rs.vectors {
		n += v.Bytes()
	}
	return n + 256 // metadata slack so scalar-only results are not free
}

// Checksum hashes the whole result set — algorithm name, every vector
// (name, kind, little-endian data) in order, every scalar (name,
// canonical formatting) in order — into one deterministic certificate.
func (rs *ResultSet) Checksum() string {
	return rs.checksumFrom(rs.vectorChecksums())
}

// vectorChecksums hashes each vector's data once; Summary and Checksum
// both build on it so no column is ever hashed twice.
func (rs *ResultSet) vectorChecksums() []string {
	sums := make([]string, len(rs.vectors))
	for i, v := range rs.vectors {
		sums[i] = v.Checksum()
	}
	return sums
}

func (rs *ResultSet) checksumFrom(vecSums []string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "alg=%s;", rs.algorithm)
	for i, v := range rs.vectors {
		fmt.Fprintf(h, "vec=%s:%s:%s;", v.name, v.kind, vecSums[i])
	}
	for _, name := range rs.scalarOrder {
		fmt.Fprintf(h, "scalar=%s:%v;", name, rs.scalars[name])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Summary returns the JSON-friendly digest the serve layer publishes
// for every finished query: scalars at the top level, per-vector
// metadata (name, kind, len, checksum, max), the default vector's
// top-5, and the combined checksum. It is uniform across algorithms —
// no per-algorithm summarizer code.
func (rs *ResultSet) Summary() map[string]any {
	vecSums := rs.vectorChecksums() // hash each O(V) column exactly once
	out := map[string]any{}
	// Scalars go in first so the reserved keys below always win a name
	// collision; the verbatim scalar set stays available under "scalars"
	// regardless.
	scalars := map[string]any{}
	for _, name := range rs.scalarOrder {
		scalars[name] = rs.scalars[name]
		out[name] = rs.scalars[name]
	}
	out["algorithm"] = rs.algorithm
	out["checksum"] = rs.checksumFrom(vecSums)
	if len(rs.scalarOrder) > 0 {
		out["scalars"] = scalars
	}
	if len(rs.vectors) > 0 {
		var top []Entry
		metas := make([]map[string]any, len(rs.vectors))
		for i, v := range rs.vectors {
			m := map[string]any{
				"name":     v.name,
				"kind":     string(v.kind),
				"len":      v.Len(),
				"checksum": vecSums[i],
			}
			if v.sentinel != nil {
				m["sentinel"] = v.sentinel
			}
			if i == 0 {
				// One selection pass yields the default vector's top-5
				// AND its max — no second O(V) scan.
				if t, err := v.TopK(5, 0); err == nil {
					top = t
				}
				if len(top) > 0 && !v.isSentinel(int(top[0].Vertex)) {
					m["max"] = top[0]
				}
			} else if e, ok := v.Max(); ok {
				m["max"] = e
			}
			metas[i] = m
		}
		out["vectors"] = metas
		if top != nil {
			out["top"] = top
		}
	}
	return out
}

// Producer is the optional Algorithm extension this package defines the
// contract for: after a run completes, Result returns the typed result
// set. internal/core re-exports it as core.ResultProducer.
type Producer interface {
	Result() *ResultSet
}

// From extracts alg's ResultSet if it is a Producer, else an empty
// ResultSet named fallback (custom algorithms without typed results
// still get a uniform summary shell).
func From(alg any, fallback string) *ResultSet {
	if p, ok := alg.(Producer); ok {
		if rs := p.Result(); rs != nil {
			return rs
		}
	}
	return New(fallback)
}
