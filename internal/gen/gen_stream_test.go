package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"
	"time"

	"flashgraph/internal/graph"
	"flashgraph/internal/util"
)

// TestStreamFormsMatchSliceForms pins the contract that the streaming
// generators emit exactly the sequence the slice forms return — the
// out-of-core ingest path must build the same graph the in-memory
// path does.
func TestStreamFormsMatchSliceForms(t *testing.T) {
	cases := []struct {
		name   string
		slice  func() []graph.Edge
		stream func(Emit) error
	}{
		{"rmat", func() []graph.Edge { return RMAT(8, 4, 3) },
			func(e Emit) error { return RMATStream(8, 4, 3, e) }},
		{"er", func() []graph.Edge { return ER(500, 2000, 5) },
			func(e Emit) error { return ERStream(500, 2000, 5, e) }},
		{"clustered", func() []graph.Edge {
			return Clustered(ClusteredConfig{Domains: 16, DomainSize: 8, EdgesPerVertex: 4, Seed: 7})
		}, func(e Emit) error {
			return ClusteredStream(ClusteredConfig{Domains: 16, DomainSize: 8, EdgesPerVertex: 4, Seed: 7}, e)
		}},
		{"ring", func() []graph.Edge { return Ring(100, 10, 2) },
			func(e Emit) error { return RingStream(100, 10, 2, e) }},
		{"grid", func() []graph.Edge { return Grid(9, 7) },
			func(e Emit) error { return GridStream(9, 7, e) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.slice()
			var got []graph.Edge
			if err := tc.stream(func(e graph.Edge) error {
				got = append(got, e)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("stream emitted %d edges, slice form %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("edge %d: stream %v, slice %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestStreamAbortsOnEmitError fails emit on the first, a middle and
// the last edge, and panics in it once: RMATStream must return the
// error (or let the panic through) with no emit after it, and with no
// generator goroutine left running.
func TestStreamAbortsOnEmitError(t *testing.T) {
	// 32 blocks: more than five workers can fill ahead of emit, so the
	// workers are blocked when emit fails. Scale 5 keeps each edge cheap.
	const scale, epv = 5, 1 << 14
	const m = epv << scale
	sentinel := errors.New("stop")
	for _, procs := range []int{1, 2, 5} {
		prev := runtime.GOMAXPROCS(procs)
		base := runtime.NumGoroutine()
		for _, stop := range []int{0, m / 2, m - 1} {
			count := 0
			err := RMATStream(scale, epv, 1, func(graph.Edge) error {
				count++
				if count == stop+1 {
					return sentinel
				}
				return nil
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("GOMAXPROCS %d, stop at %d: err = %v, want sentinel", procs, stop, err)
			}
			if count != stop+1 {
				t.Fatalf("GOMAXPROCS %d: generator kept emitting after error at edge %d: %d edges", procs, stop, count)
			}
			waitGoroutines(t, base)
		}
		func() {
			defer func() {
				if recover() != sentinel {
					t.Fatalf("GOMAXPROCS %d: emit's panic did not come through", procs)
				}
			}()
			count := 0
			_ = RMATStream(scale, epv, 1, func(graph.Edge) error {
				if count++; count == m/2 {
					panic(sentinel)
				}
				return nil
			})
		}()
		waitGoroutines(t, base)
		runtime.GOMAXPROCS(prev)
	}
}

// waitGoroutines polls until no more than base goroutines are alive.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, %d before the stream", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRMATRejectsUnrepresentableSizes: vertex IDs are 32 bits, and at
// scale 0 every edge would be the self-loop 0→0. RMATStream returns an
// error before emitting anything; RMAT panics with the same message.
func TestRMATRejectsUnrepresentableSizes(t *testing.T) {
	for _, sz := range []struct{ scale, epv int }{{0, 4}, {-1, 4}, {33, 1}, {64, 1}, {4, -1}, {32, 1 << 31}} {
		emitted := 0
		err := RMATStream(sz.scale, sz.epv, 1, func(graph.Edge) error { emitted++; return nil })
		if err == nil || emitted != 0 {
			t.Fatalf("RMATStream(%d, %d): err %v after %d edges, want an error and none", sz.scale, sz.epv, err, emitted)
		}
		func() {
			defer func() {
				if r := recover(); r != err.Error() {
					t.Fatalf("RMAT(%d, %d) panicked with %v, want %q", sz.scale, sz.epv, r, err)
				}
			}()
			RMAT(sz.scale, sz.epv, 1)
		}()
	}
	for _, sz := range []struct{ scale, epv int }{{1, 3}, {32, 0}} {
		if err := RMATStream(sz.scale, sz.epv, 1, func(e graph.Edge) error {
			if e.Src == e.Dst {
				t.Fatalf("scale %d: self loop %v", sz.scale, e)
			}
			return nil
		}); err != nil {
			t.Fatalf("RMATStream(%d, %d): %v", sz.scale, sz.epv, err)
		}
	}
}

// TestRMATStreamGolden pins the benchmark's scale-16 streams
// (graphSeed(s) = s·0x9e3779b97f4a7c15 + 1, seeds 1 and 7): sha256 of
// each edge as little-endian (src, dst) uint32s, as the serial
// generator drew them.
func TestRMATStreamGolden(t *testing.T) {
	golden := map[uint64]string{
		1: "effa8d5569b75d4d6669174b1aa9783977278e2ce2dfe57f02770f9b798205b2",
		7: "2e93f46a691a2905bfdcf39f12c48cd32cfdd37cd203e101e6349b93b24cec21",
	}
	for seed, want := range golden {
		h := sha256.New()
		var buf [8]byte
		if err := RMATStream(16, 16, seed*0x9e3779b97f4a7c15+1, func(e graph.Edge) error {
			binary.LittleEndian.PutUint32(buf[:4], uint32(e.Src))
			binary.LittleEndian.PutUint32(buf[4:], uint32(e.Dst))
			h.Write(buf[:])
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Fatalf("seed %d: stream digest %s, want %s", seed, got, want)
		}
	}
}

// rmatSerial is RMATStream as it was before the block pipeline: one
// goroutine, one RNG, a branch per quadrant. The stream must never
// move, since every image fingerprint and oracle checksum rests on it.
func rmatSerial(scale, edgesPerVertex int, seed uint64) []graph.Edge {
	n := 1 << scale
	m := n * edgesPerVertex
	r := util.NewRNG(seed)
	const a, b, c = 0.57, 0.19, 0.19
	out := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		src, dst := 0, 0
		for lvl := 0; lvl < scale; lvl++ {
			noise := 0.9 + 0.2*r.Float64()
			p := r.Float64()
			switch {
			case p < a*noise:
			case p < (a+b)*noise:
				dst |= 1 << lvl
			case p < (a+b+c)*noise:
				src |= 1 << lvl
			default:
				src |= 1 << lvl
				dst |= 1 << lvl
			}
		}
		if src == dst {
			dst = (dst + 1) % n
		}
		out = append(out, graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)})
	}
	return out
}

// TestRMATStreamMatchesSerial holds the block pipeline to the serial
// stream under GOMAXPROCS 1, 2 and 5, at sizes below one block, not a
// multiple of a block, and several blocks per worker.
func TestRMATStreamMatchesSerial(t *testing.T) {
	sizes := []struct{ scale, epv int }{{3, 3}, {12, 5}, {14, 8}, {1, 1}}
	for _, sz := range sizes {
		for _, seed := range []uint64{1, 7, 0x9e3779b97f4a7c15 + 1} {
			want := rmatSerial(sz.scale, sz.epv, seed)
			for _, procs := range []int{1, 2, 5} {
				prev := runtime.GOMAXPROCS(procs)
				got := RMAT(sz.scale, sz.epv, seed)
				runtime.GOMAXPROCS(prev)
				if len(got) != len(want) {
					t.Fatalf("GOMAXPROCS %d scale %d epv %d: %d edges, want %d", procs, sz.scale, sz.epv, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("GOMAXPROCS %d scale %d epv %d seed %d: edge %d = %v, want %v",
							procs, sz.scale, sz.epv, seed, i, got[i], want[i])
					}
				}
			}
		}
	}
}
