package ssd

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flashgraph/internal/util"
)

// FaultConfig selects which faults a FaultStore injects and how often.
// Rates are per-operation probabilities in [0, 1]. All injection is
// driven by one seeded deterministic RNG, so a test or chaos run that
// issues the same operation sequence sees the same fault sequence.
type FaultConfig struct {
	// Seed seeds the injection RNG. Runs with equal seeds and equal
	// operation sequences inject identical faults.
	Seed uint64
	// EIORate injects a transient I/O error (the whole transfer fails,
	// no bytes delivered) on reads and writes.
	EIORate float64
	// ShortReadRate truncates a read partway through and reports it
	// with a typed ShortReadError (transient: a resubmission
	// completes).
	ShortReadRate float64
	// BitFlipRate flips one random bit of a read's payload and reports
	// success — silent corruption, detectable only by checksums.
	BitFlipRate float64
	// LatencyRate stalls an operation for LatencySpike before serving
	// it normally.
	LatencyRate float64
	// LatencySpike is the injected stall duration. Default 2ms.
	LatencySpike time.Duration
	// TornWriteRate persists only a prefix of a write and fails the
	// rest (transient: the caller may rewrite the full buffer).
	TornWriteRate float64
	// MaxFaults, when positive, stops injecting after that many faults
	// (latency spikes included) so a run can prove recovery on a clean
	// tail.
	MaxFaults int64
}

// FaultStats counts faults a FaultStore injected, by class.
type FaultStats struct {
	EIOs       int64
	ShortReads int64
	BitFlips   int64
	Latencies  int64
	TornWrites int64
}

// Total sums the injected faults across classes.
func (s FaultStats) Total() int64 {
	return s.EIOs + s.ShortReads + s.BitFlips + s.Latencies + s.TornWrites
}

// FaultStore wraps any Store with deterministic seeded fault injection:
// EIO, short reads, latency spikes, silent bit flips, and torn writes.
// It reads the inner store through ReadVec, so a Device over a
// FaultStore exercises the exact same vectored submission path as one
// over the bare store. Safe for concurrent use.
type FaultStore struct {
	inner Store
	cfg   FaultConfig

	mu  sync.Mutex
	rng *util.RNG

	disabled                                         int32 // atomic; SetEnabled(false) pauses injection
	injected                                         int64 // total, atomic (MaxFaults accounting)
	eios, shortReads, bitFlips, latencies, tornWrite int64
}

// NewFaultStore wraps inner with fault injection per cfg.
func NewFaultStore(inner Store, cfg FaultConfig) *FaultStore {
	if cfg.LatencySpike == 0 {
		cfg.LatencySpike = 2 * time.Millisecond
	}
	return &FaultStore{inner: inner, cfg: cfg, rng: util.NewRNG(cfg.Seed)}
}

// SetEnabled pauses (false) or resumes (true) injection. A paused
// FaultStore is a transparent pass-through and consumes no RNG draws,
// so a harness can load data faithfully and arm the faults only for
// the phase under test. Stores start enabled.
func (s *FaultStore) SetEnabled(on bool) {
	var v int32
	if !on {
		v = 1
	}
	atomic.StoreInt32(&s.disabled, v)
}

// Stats snapshots the injected-fault counters.
func (s *FaultStore) Stats() FaultStats {
	return FaultStats{
		EIOs:       atomic.LoadInt64(&s.eios),
		ShortReads: atomic.LoadInt64(&s.shortReads),
		BitFlips:   atomic.LoadInt64(&s.bitFlips),
		Latencies:  atomic.LoadInt64(&s.latencies),
		TornWrites: atomic.LoadInt64(&s.tornWrite),
	}
}

// fault is one injection decision for an operation.
type fault int

const (
	faultNone fault = iota
	faultEIO
	faultShort
	faultFlip
	faultLatency
	faultTorn
)

// roll decides the fault (if any) for one operation, plus a second
// uniform draw the fault class uses (truncation point, bit position).
// Both draws come from one lock acquisition so the RNG stream stays
// deterministic under concurrency.
func (s *FaultStore) roll(read bool) (f fault, frac float64) {
	if atomic.LoadInt32(&s.disabled) != 0 {
		return faultNone, 0
	}
	if s.cfg.MaxFaults > 0 && atomic.LoadInt64(&s.injected) >= s.cfg.MaxFaults {
		return faultNone, 0
	}
	s.mu.Lock()
	p := s.rng.Float64()
	frac = s.rng.Float64()
	s.mu.Unlock()

	pick := func(rate float64, class fault) bool {
		if p < rate {
			f = class
			atomic.AddInt64(&s.injected, 1)
			return true
		}
		p -= rate
		return false
	}
	if pick(s.cfg.LatencyRate, faultLatency) || pick(s.cfg.EIORate, faultEIO) {
		return f, frac
	}
	if read {
		if pick(s.cfg.ShortReadRate, faultShort) || pick(s.cfg.BitFlipRate, faultFlip) {
			return f, frac
		}
	} else if pick(s.cfg.TornWriteRate, faultTorn) {
		return f, frac
	}
	return faultNone, 0
}

// ReadAt implements Store as a scatter list of one.
func (s *FaultStore) ReadAt(p []byte, off int64) (int, error) {
	return s.ReadVecAt([][]byte{p}, off)
}

// ReadVecAt implements VecReader with injected read faults, decided
// once for the whole scatter list; the data itself comes from the inner
// store through ReadVec, vectored when the inner store is.
func (s *FaultStore) ReadVecAt(vec [][]byte, off int64) (int, error) {
	total := vecLen(vec)
	f, frac := s.roll(true)
	switch f {
	case faultLatency:
		atomic.AddInt64(&s.latencies, 1)
		time.Sleep(s.cfg.LatencySpike)
	case faultEIO:
		atomic.AddInt64(&s.eios, 1)
		return 0, fmt.Errorf("ssd: injected EIO reading %d bytes at %d: %w", total, off, ErrTransient)
	case faultShort:
		atomic.AddInt64(&s.shortReads, 1)
		n := fracOf(frac, total)
		if _, err := ReadVec(s.inner, vecPrefix(vec, n), off); err != nil {
			return 0, err
		}
		return n, &ShortReadError{Off: off, Want: total, Got: n}
	case faultFlip:
		atomic.AddInt64(&s.bitFlips, 1)
		n, err := ReadVec(s.inner, vec, off)
		if err == nil && n > 0 {
			bit := fracOf(frac, n*8)
			rem := bit / 8
			for _, b := range vec {
				if rem < len(b) {
					b[rem] ^= 1 << (bit % 8)
					break
				}
				rem -= len(b)
			}
		}
		return n, err
	}
	return ReadVec(s.inner, vec, off)
}

// fracOf maps a uniform draw in [0, 1) to an index in [0, n): the
// truncation point of a short transfer, or the bit a flip hits.
func fracOf(frac float64, n int) int {
	i := int(frac * float64(n))
	if i >= n {
		i = n - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// vecPrefix returns the scatter list covering the first n bytes of vec.
func vecPrefix(vec [][]byte, n int) [][]byte {
	var out [][]byte
	for _, b := range vec {
		if n <= 0 {
			break
		}
		if len(b) > n {
			b = b[:n]
		}
		out = append(out, b)
		n -= len(b)
	}
	return out
}

// WriteAt implements Store with injected write faults.
func (s *FaultStore) WriteAt(p []byte, off int64) (int, error) {
	f, frac := s.roll(false)
	switch f {
	case faultLatency:
		atomic.AddInt64(&s.latencies, 1)
		time.Sleep(s.cfg.LatencySpike)
	case faultEIO:
		atomic.AddInt64(&s.eios, 1)
		return 0, fmt.Errorf("ssd: injected EIO writing %d bytes at %d: %w", len(p), off, ErrTransient)
	case faultTorn:
		atomic.AddInt64(&s.tornWrite, 1)
		n := fracOf(frac, len(p))
		if n > 0 {
			if _, err := s.inner.WriteAt(p[:n], off); err != nil {
				return 0, err
			}
		}
		return n, fmt.Errorf("ssd: injected torn write at %d (%d of %d bytes persisted): %w",
			off, n, len(p), ErrTransient)
	}
	return s.inner.WriteAt(p, off)
}

// Size implements Store.
func (s *FaultStore) Size() int64 { return s.inner.Size() }

// Close releases the inner store if it is closable.
func (s *FaultStore) Close() error {
	if c, ok := s.inner.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}
