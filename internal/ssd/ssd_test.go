package ssd

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func fastParams() DeviceParams {
	return DeviceParams{Throttle: false}
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore()
	data := []byte("hello flashgraph")
	if _, err := s.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := s.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
	if s.Size() != 100+int64(len(data)) {
		t.Fatalf("Size = %d", s.Size())
	}
}

func TestMemStoreZeroFill(t *testing.T) {
	s := NewMemStore()
	if _, err := s.WriteAt([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	buf := []byte{9, 9, 9, 9, 9, 9}
	if _, err := s.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 0, 0, 0}
	if !bytes.Equal(buf, want) {
		t.Fatalf("got %v, want %v", buf, want)
	}
}

func TestMemStoreQuickRoundTrip(t *testing.T) {
	f := func(chunks [][]byte, offs []uint16) bool {
		s := NewMemStore()
		shadow := make(map[int64]byte)
		for i, c := range chunks {
			if i >= len(offs) {
				break
			}
			off := int64(offs[i])
			s.WriteAt(c, off)
			for j, b := range c {
				shadow[off+int64(j)] = b
			}
		}
		for off, want := range shadow {
			got := make([]byte, 1)
			s.ReadAt(got, off)
			if got[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev0.dat")
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := []byte("persistent bytes")
	if _, err := s.WriteAt(data, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := s.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceReadWrite(t *testing.T) {
	d := NewDevice(fastParams(), NewMemStore())
	defer d.Close()
	done := make(chan error, 1)
	d.Submit(&Request{Op: OpWrite, Offset: 0, Vec: [][]byte{[]byte("abcd")}, Done: func(err error) { done <- err }})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	d.Submit(&Request{Op: OpRead, Offset: 0, Vec: [][]byte{buf}, Done: func(err error) { done <- err }})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(buf) != "abcd" {
		t.Fatalf("got %q", buf)
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.BytesRead != 4 || st.BytesWrite != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeviceSequentialDetection(t *testing.T) {
	d := NewDevice(fastParams(), NewMemStore())
	defer d.Close()
	var wg sync.WaitGroup
	buf := make([]byte, 4096)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		d.Submit(&Request{Op: OpRead, Offset: int64(i) * 4096, Vec: [][]byte{buf}, Done: func(error) { wg.Done() }})
	}
	wg.Wait()
	st := d.Stats()
	if st.SeqReads != 3 {
		t.Fatalf("SeqReads = %d, want 3 (first read is random)", st.SeqReads)
	}
}

func TestDeviceServiceTimeModel(t *testing.T) {
	p := DeviceParams{
		RandOverhead: 15 * time.Microsecond,
		SeqOverhead:  time.Microsecond,
		Bandwidth:    400 << 20,
	}
	p.setDefaults()
	d := &Device{params: p}
	req := &Request{Op: OpRead, Vec: [][]byte{make([]byte, 4096)}}
	random := d.serviceTime(req, false)
	seq := d.serviceTime(req, true)
	if random <= seq {
		t.Fatalf("random (%v) should cost more than sequential (%v)", random, seq)
	}
	// Paper: random 4KB throughput is only 2-3x below sequential on SSDs.
	ratio := float64(random) / float64(seq)
	if ratio < 1.5 || ratio > 4 {
		t.Fatalf("random/seq 4KB service ratio = %.2f, want within [1.5,4]", ratio)
	}
	// Writes pay the program penalty.
	w := d.serviceTime(&Request{Op: OpWrite, Vec: [][]byte{make([]byte, 4096)}}, false)
	if w <= random {
		t.Fatalf("write (%v) should cost more than read (%v)", w, random)
	}
}

func TestDeviceBusyAccounting(t *testing.T) {
	d := NewDevice(fastParams(), NewMemStore())
	defer d.Close()
	var wg sync.WaitGroup
	buf := make([]byte, 4096)
	const n = 100
	for i := 0; i < n; i++ {
		wg.Add(1)
		d.Submit(&Request{Op: OpRead, Offset: int64(i*2) * 4096, Vec: [][]byte{buf}, Done: func(error) { wg.Done() }})
	}
	wg.Wait()
	st := d.Stats()
	if st.Busy <= 0 {
		t.Fatal("expected positive virtual busy time")
	}
	d.ResetStats()
	if d.Stats().Busy != 0 || d.Stats().Reads != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestDeviceThrottleSlowsDown(t *testing.T) {
	// With throttling, 200 random reads at 50µs each are 10ms of modelled
	// work: on a clock whose sleeps return 1ms late they take no less
	// (bar the MaxAhead slack) and at most one late sleep more.
	const (
		n         = 200
		st        = 50 * time.Microsecond
		maxAhead  = 200 * time.Microsecond
		overshoot = time.Millisecond
	)
	clk := newFakeClock(overshoot)
	t0 := clk.Now()
	recs := pacedRun(t, clk, st, maxAhead, n)
	checkNeverEarly(t, recs, st, maxAhead)
	elapsed := recs[n-1].done.Sub(t0)
	if elapsed < n*st-maxAhead || elapsed > n*st+overshoot {
		t.Fatalf("throttled device finished %v of work in %v, want within [%v, %v]",
			n*st, elapsed, n*st-maxAhead, n*st+overshoot)
	}
}

func TestDeviceCloseRejectsNew(t *testing.T) {
	d := NewDevice(fastParams(), NewMemStore())
	d.Close()
	done := make(chan error, 1)
	d.Submit(&Request{Op: OpRead, Offset: 0, Vec: [][]byte{make([]byte, 1)}, Done: func(err error) { done <- err }})
	if err := <-done; err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestArrayLocateRoundTrip(t *testing.T) {
	a := NewArray(ArrayParams{Devices: 4, StripeSize: 1024, Device: fastParams()})
	defer a.Close()
	// Writing a pattern across many stripes and reading it back exercises
	// the address mapping.
	data := make([]byte, 64*1024)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := a.WriteAt(data, 333); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := a.ReadAt(got, 333); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("array round-trip mismatch")
	}
}

func TestArrayStripesAcrossDevices(t *testing.T) {
	a := NewArray(ArrayParams{Devices: 4, StripeSize: 4096, Device: fastParams()})
	defer a.Close()
	buf := make([]byte, 4*4096)
	if err := a.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	devsUsed := 0
	for _, ds := range st.PerDevice {
		if ds.Writes > 0 {
			devsUsed++
		}
	}
	if devsUsed != 4 {
		t.Fatalf("write of 4 stripes touched %d devices, want 4", devsUsed)
	}
}

// TestArrayCutProperties: a transfer cuts into at most one extent per
// device it touches, and the extents' lengths sum to the transfer.
func TestArrayCutProperties(t *testing.T) {
	a := NewArray(ArrayParams{Devices: 3, StripeSize: 512, Device: fastParams()})
	defer a.Close()
	f := func(off uint16, size uint16) bool {
		if size == 0 {
			return true
		}
		buf := make([]byte, int(size)%5000+1)
		exts := a.cutVec(int64(off), [][]byte{buf})
		seen := make(map[int]bool)
		total := 0
		for _, e := range exts {
			if e.dev < 0 || e.dev >= 3 || seen[e.dev] {
				return false
			}
			seen[e.dev] = true
			if vecLen(e.bufs) == 0 {
				return false
			}
			total += vecLen(e.bufs)
		}
		return total == len(buf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArrayQuickReadWrite(t *testing.T) {
	a := NewArray(ArrayParams{Devices: 5, StripeSize: 256, Device: fastParams()})
	defer a.Close()
	f := func(off uint16, pattern byte, size uint16) bool {
		n := int(size)%2048 + 1
		data := bytes.Repeat([]byte{pattern}, n)
		if err := a.WriteAt(data, int64(off)); err != nil {
			return false
		}
		got := make([]byte, n)
		if err := a.ReadAt(got, int64(off)); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestArrayAsyncCompletion(t *testing.T) {
	a := NewArray(ArrayParams{Devices: 2, StripeSize: 128, Device: fastParams()})
	defer a.Close()
	// A read spanning many stripes must call done exactly once.
	var calls int64
	var mu sync.Mutex
	done := make(chan struct{})
	buf := make([]byte, 10*128+37)
	a.SubmitReadBatch([]BatchRead{{Off: 13, Vec: [][]byte{buf}, Done: func(err error) {
		mu.Lock()
		calls++
		mu.Unlock()
		if err != nil {
			t.Errorf("unexpected error: %v", err)
		}
		close(done)
	}}})
	<-done
	time.Sleep(5 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("done called %d times", calls)
	}
}

func TestArrayReadVecMatchesReadAt(t *testing.T) {
	a := NewArray(ArrayParams{Devices: 3, StripeSize: 512, Device: fastParams()})
	defer a.Close()
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i*13 + 1)
	}
	if err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Scatter a 3000-byte read at offset 100 into uneven buffers.
	sizes := []int{1, 511, 512, 1000, 976}
	var vec [][]byte
	total := 0
	for _, s := range sizes {
		vec = append(vec, make([]byte, s))
		total += s
	}
	ch := make(chan error, 1)
	a.SubmitReadBatch([]BatchRead{{Off: 100, Vec: vec, Done: func(err error) { ch <- err }}})
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, b := range vec {
		got = append(got, b...)
	}
	if !bytes.Equal(got, data[100:100+total]) {
		t.Fatal("vectored read mismatch")
	}
}

func TestArrayReadVecRequestCount(t *testing.T) {
	cases := []struct {
		name        string
		devices     int
		stripe, off int64
		size, reads int
	}{
		// A read covering exactly one stripe is one device request even
		// when scattered into many 4KB buffers.
		{"one stripe", 4, 32 * 4096, 0, 32 * 4096, 1},
		// 70 KiB from mid-unit spans ten 8 KiB units on three devices:
		// each device's units are back to back, so one request each.
		{"ten stripes", 3, 8192, 8192 + 3000, 70 << 10, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := NewArray(ArrayParams{Devices: c.devices, StripeSize: c.stripe, Device: fastParams()})
			defer a.Close()
			data := make([]byte, 64*4096)
			for i := range data {
				data[i] = byte(i*11 + 3)
			}
			if err := a.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			a.ResetStats()
			var vec [][]byte
			for left := c.size; left > 0; left -= 4096 {
				vec = append(vec, make([]byte, min(left, 4096)))
			}
			ch := make(chan error, 1)
			a.SubmitReadBatch([]BatchRead{{Off: c.off, Vec: vec, Done: func(err error) { ch <- err }}})
			if err := <-ch; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bytes.Join(vec, nil), data[c.off:c.off+int64(c.size)]) {
				t.Fatal("vectored read mismatch")
			}
			st := a.Stats()
			if st.Reads != int64(c.reads) {
				t.Fatalf("device reads = %d, want %d", st.Reads, c.reads)
			}
			if st.BytesRead != int64(c.size) {
				t.Fatalf("bytes read = %d, want %d", st.BytesRead, c.size)
			}
		})
	}
}

func TestArrayReadVecEmpty(t *testing.T) {
	a := NewArray(ArrayParams{Devices: 2, StripeSize: 512, Device: fastParams()})
	defer a.Close()
	ch := make(chan error, 1)
	a.SubmitReadBatch([]BatchRead{{Done: func(err error) { ch <- err }}})
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
}
