package ssd

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// seededStore builds a FaultStore over a MemStore pre-filled with a
// deterministic pattern.
func seededStore(t *testing.T, size int, cfg FaultConfig) (*FaultStore, []byte) {
	t.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	inner := NewMemStore()
	if _, err := inner.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return NewFaultStore(inner, cfg), data
}

// TestFaultStoreClasses drives every injectable fault class through a
// single-class config (rate 1, MaxFaults 1) and checks its typed
// contract: EIO and short reads are transient, bit flips are silent
// single-bit lies, torn writes persist a strict prefix — and after
// MaxFaults the store is a clean pass-through.
func TestFaultStoreClasses(t *testing.T) {
	const size = 4096
	cases := []struct {
		name  string
		cfg   FaultConfig
		read  bool
		check func(t *testing.T, s *FaultStore, want []byte)
	}{
		{
			name: "eio-read",
			cfg:  FaultConfig{EIORate: 1, MaxFaults: 1},
			check: func(t *testing.T, s *FaultStore, want []byte) {
				buf := make([]byte, 512)
				_, err := s.ReadAt(buf, 0)
				if err == nil || !IsTransient(err) {
					t.Fatalf("injected EIO: err=%v, want transient", err)
				}
				if s.Stats().EIOs != 1 {
					t.Fatalf("EIOs = %d, want 1", s.Stats().EIOs)
				}
			},
		},
		{
			name: "short-read",
			cfg:  FaultConfig{ShortReadRate: 1, MaxFaults: 1},
			check: func(t *testing.T, s *FaultStore, want []byte) {
				buf := make([]byte, 512)
				n, err := s.ReadAt(buf, 64)
				var sr *ShortReadError
				if !errors.As(err, &sr) || !IsTransient(err) {
					t.Fatalf("short read: err=%v, want transient ShortReadError", err)
				}
				if n >= 512 || sr.Got != n || sr.Want != 512 {
					t.Fatalf("short read: n=%d, sr=%+v", n, sr)
				}
				if !bytes.Equal(buf[:n], want[64:64+n]) {
					t.Fatal("short read delivered wrong prefix bytes")
				}
				if s.Stats().ShortReads != 1 {
					t.Fatalf("ShortReads = %d, want 1", s.Stats().ShortReads)
				}
			},
		},
		{
			name: "bit-flip",
			cfg:  FaultConfig{BitFlipRate: 1, MaxFaults: 1},
			check: func(t *testing.T, s *FaultStore, want []byte) {
				buf := make([]byte, 512)
				n, err := s.ReadAt(buf, 0)
				if err != nil || n != 512 {
					t.Fatalf("bit flip must report success: n=%d err=%v", n, err)
				}
				diff := 0
				for i := range buf {
					if d := buf[i] ^ want[i]; d != 0 {
						diff += popcount(d)
					}
				}
				if diff != 1 {
					t.Fatalf("bit flip changed %d bits, want exactly 1", diff)
				}
				if s.Stats().BitFlips != 1 {
					t.Fatalf("BitFlips = %d, want 1", s.Stats().BitFlips)
				}
			},
		},
		{
			name: "torn-write",
			cfg:  FaultConfig{TornWriteRate: 1, MaxFaults: 1},
			check: func(t *testing.T, s *FaultStore, want []byte) {
				payload := bytes.Repeat([]byte{0xAB}, 512)
				n, err := s.WriteAt(payload, 128)
				if err == nil || !IsTransient(err) {
					t.Fatalf("torn write: err=%v, want transient", err)
				}
				if n >= 512 {
					t.Fatalf("torn write persisted %d of %d bytes, want a strict prefix", n, 512)
				}
				got := make([]byte, 512)
				if _, err := s.ReadAt(got, 128); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got[:n], payload[:n]) {
					t.Fatal("torn write prefix not persisted")
				}
				if !bytes.Equal(got[n:], want[128+n:128+512]) {
					t.Fatal("torn write tail clobbered beyond reported prefix")
				}
				if s.Stats().TornWrites != 1 {
					t.Fatalf("TornWrites = %d, want 1", s.Stats().TornWrites)
				}
			},
		},
		{
			name: "latency",
			cfg:  FaultConfig{LatencyRate: 1, LatencySpike: time.Millisecond, MaxFaults: 1},
			check: func(t *testing.T, s *FaultStore, want []byte) {
				buf := make([]byte, 512)
				start := time.Now()
				if _, err := s.ReadAt(buf, 0); err != nil {
					t.Fatal(err)
				}
				if el := time.Since(start); el < time.Millisecond {
					t.Fatalf("latency spike served in %v, want >= 1ms", el)
				}
				if !bytes.Equal(buf, want[:512]) {
					t.Fatal("latency spike corrupted data")
				}
				if s.Stats().Latencies != 1 {
					t.Fatalf("Latencies = %d, want 1", s.Stats().Latencies)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, want := seededStore(t, size, tc.cfg)
			tc.check(t, s, want)
			// MaxFaults spent: the store must now be a clean pass-through.
			buf := make([]byte, size)
			if _, err := s.ReadAt(buf, 0); err != nil {
				t.Fatalf("post-MaxFaults read failed: %v", err)
			}
			if tc.name == "torn-write" || tc.name == "bit-flip" {
				return // those mutated/lied about stored bytes by design
			}
			if !bytes.Equal(buf, want) {
				t.Fatal("post-MaxFaults read returned wrong bytes")
			}
		})
	}
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// TestFaultStoreVectoredMatchesFlat proves the vectored read path
// injects the same classes: an EIO-only store fails the scatter read
// transiently, then serves it clean once MaxFaults is spent.
func TestFaultStoreVectoredMatchesFlat(t *testing.T) {
	s, want := seededStore(t, 4096, FaultConfig{EIORate: 1, MaxFaults: 1})
	a, b := make([]byte, 256), make([]byte, 256)
	if _, err := s.ReadVecAt([][]byte{a, b}, 0); err == nil || !IsTransient(err) {
		t.Fatalf("vectored EIO: err=%v, want transient", err)
	}
	if _, err := s.ReadVecAt([][]byte{a, b}, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, want[:256]) || !bytes.Equal(b, want[256:512]) {
		t.Fatal("vectored read returned wrong bytes")
	}
}

// TestFaultStoreDeterministicSeed: equal seeds and operation sequences
// inject identical fault sequences — the property the chaos harness's
// reproducibility rests on.
func TestFaultStoreDeterministicSeed(t *testing.T) {
	run := func() (FaultStats, []error) {
		s, _ := seededStore(t, 8192, FaultConfig{
			Seed: 42, EIORate: 0.3, ShortReadRate: 0.2, BitFlipRate: 0.1,
		})
		var errs []error
		buf := make([]byte, 512)
		for i := 0; i < 64; i++ {
			_, err := s.ReadAt(buf, int64(i%16)*512)
			errs = append(errs, err)
		}
		return s.Stats(), errs
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 {
		t.Fatalf("same seed, different fault counts: %+v vs %+v", s1, s2)
	}
	for i := range e1 {
		if (e1[i] == nil) != (e2[i] == nil) {
			t.Fatalf("op %d: fault placement diverged (%v vs %v)", i, e1[i], e2[i])
		}
	}
}

// TestFaultStoreSetEnabled: a disarmed store is a transparent
// pass-through; re-arming resumes injection.
func TestFaultStoreSetEnabled(t *testing.T) {
	s, want := seededStore(t, 4096, FaultConfig{EIORate: 1})
	s.SetEnabled(false)
	buf := make([]byte, 512)
	for i := 0; i < 8; i++ {
		if _, err := s.ReadAt(buf, 0); err != nil {
			t.Fatalf("disarmed store injected a fault: %v", err)
		}
	}
	if !bytes.Equal(buf, want[:512]) {
		t.Fatal("disarmed store returned wrong bytes")
	}
	if s.Stats().Total() != 0 {
		t.Fatalf("disarmed store counted %d faults", s.Stats().Total())
	}
	s.SetEnabled(true)
	if _, err := s.ReadAt(buf, 0); err == nil {
		t.Fatal("re-armed store did not inject")
	}
}

// TestDeviceRetryAbsorbsTransients: a device over a store that fails
// its first transfers transiently still completes the read, and the
// retry counter records the absorbed faults. The backoffs are slept on
// the device's clock — a fake here, so the test itself never sleeps.
func TestDeviceRetryAbsorbsTransients(t *testing.T) {
	s, want := seededStore(t, 8192, FaultConfig{EIORate: 1, MaxFaults: 2})
	clk := newFakeClock(time.Millisecond)
	arr := NewArrayWithStores(ArrayParams{
		Devices: 1, StripeSize: 128 << 10,
		Device: DeviceParams{Clock: clk},
	}, []Store{s})
	defer arr.Close()

	buf := make([]byte, 4096)
	if err := arr.ReadAt(buf, 0); err != nil {
		t.Fatalf("retry did not absorb transient EIOs: %v", err)
	}
	if !bytes.Equal(buf, want[:4096]) {
		t.Fatal("retried read returned wrong bytes")
	}
	st := arr.Stats()
	if sleeps, _ := clk.slept(); st.Retries != 2 || sleeps != 2 {
		t.Fatalf("Retries = %d with %d backoffs slept, want 2 and 2", st.Retries, sleeps)
	}
	if st.Errors != 0 {
		t.Fatalf("Errors = %d, want 0 (all faults absorbed)", st.Errors)
	}
}

// TestDeviceDegradesAndResets: a device whose transfers always fail
// trips the health breaker after DegradeThreshold consecutive
// post-retry failures, fails fast with ErrDegraded afterwards, and
// ResetHealth restores service once the fault source is gone.
func TestDeviceDegradesAndResets(t *testing.T) {
	s, want := seededStore(t, 8192, FaultConfig{EIORate: 1})
	arr := NewArrayWithStores(ArrayParams{
		Devices: 1, StripeSize: 128 << 10,
		Device: DeviceParams{
			RetryMax:         1,
			DegradeThreshold: 3,
			Clock:            newFakeClock(time.Millisecond),
		},
	}, []Store{s})
	defer arr.Close()

	buf := make([]byte, 512)
	for i := 0; i < 3; i++ {
		if err := arr.ReadAt(buf, 0); err == nil {
			t.Fatal("dead device served a read")
		}
	}
	if st := arr.Stats(); st.DegradedDevices != 1 {
		t.Fatalf("DegradedDevices = %d after threshold failures, want 1", st.DegradedDevices)
	}
	// Degraded: fail fast with the typed sentinel, no store traffic.
	pre := s.Stats().EIOs
	if err := arr.ReadAt(buf, 0); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded device: err=%v, want ErrDegraded", err)
	}
	if s.Stats().EIOs != pre {
		t.Fatal("degraded device still reached the store (no fail-fast)")
	}

	// Operator fixes the fault source and resets health: service resumes.
	s.SetEnabled(false)
	arr.ResetHealth()
	if st := arr.Stats(); st.DegradedDevices != 0 {
		t.Fatalf("DegradedDevices = %d after ResetHealth, want 0", st.DegradedDevices)
	}
	if err := arr.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after recovery failed: %v", err)
	}
	if !bytes.Equal(buf, want[:512]) {
		t.Fatal("recovered read returned wrong bytes")
	}
}
