package ssd

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"
)

// TestFileStoreSurfacesReadErrors is the regression test for the
// error-swallowing bug: a non-EOF read error must surface instead of
// being reported as a full zero-filled read.
func TestFileStoreSurfacesReadErrors(t *testing.T) {
	s, err := NewFileStore(filepath.Join(t.TempDir(), "dev.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteAt([]byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	s.Close() // reads on a closed descriptor fail with a real error
	buf := make([]byte, 4)
	if _, err := s.ReadAt(buf, 0); err == nil {
		t.Fatal("ReadAt on closed store claimed success")
	}
}

// TestFileStoreReadVecAt checks the vectored read path against plain
// reads, including a scatter list straddling EOF (zero-filled tail,
// full length, no error — ReadAt's semantics).
func TestFileStoreReadVecAt(t *testing.T) {
	s, err := NewFileStore(filepath.Join(t.TempDir(), "dev.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	vec := [][]byte{make([]byte, 1), make([]byte, 700), nil, make([]byte, 4096), make([]byte, 203)}
	n, err := s.ReadVecAt(vec, 57)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5000 {
		t.Fatalf("n = %d, want 5000", n)
	}
	var got []byte
	for _, b := range vec {
		got = append(got, b...)
	}
	if !bytes.Equal(got, data[57:57+5000]) {
		t.Fatal("vectored read mismatch")
	}

	// Straddle EOF: first 100 bytes real, the rest zeros.
	vec = [][]byte{make([]byte, 150), make([]byte, 150)}
	n, err = s.ReadVecAt(vec, int64(len(data))-100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("n = %d, want 300 (zero-filled to full length)", n)
	}
	want := append(append([]byte{}, data[len(data)-100:]...), make([]byte, 200)...)
	if !bytes.Equal(append(append([]byte{}, vec[0]...), vec[1]...), want) {
		t.Fatal("EOF-straddling vectored read mismatch")
	}
}

// TestReadVecFallbackMatchesReadVecAt holds the portable scatter read
// (every non-Linux build, and Linux when preadv is unsupported) to the
// store's own path byte for byte on the same file: the same data, the
// same zero tail past EOF, the same reported length.
func TestReadVecFallbackMatchesReadVecAt(t *testing.T) {
	s, err := NewFileStore(filepath.Join(t.TempDir(), "dev.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i*131 + 17)
	}
	if _, err := s.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		off   int64
		sizes []int
	}{
		{"three buffers mid-file", 4093, []int{3, 4096, 77}},
		{"straddles EOF", int64(len(data)) - 100, []int{60, 150, 90}},
		{"wholly past EOF", int64(len(data)) + 5000, []int{10, 4096}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vec := func() [][]byte {
				v := make([][]byte, len(tc.sizes))
				for i, n := range tc.sizes {
					v[i] = bytes.Repeat([]byte{0xEE}, n) // stale bytes the read must overwrite
				}
				return v
			}
			want, got := vec(), vec()
			wn, err := s.ReadVecAt(want, tc.off)
			if err != nil {
				t.Fatal(err)
			}
			gn, err := readVecFallback(s.f, got, tc.off)
			if err != nil {
				t.Fatal(err)
			}
			if total := vecLen(want); wn != total || gn != total {
				t.Fatalf("n = %d (fallback) / %d (ReadVecAt), want %d", gn, wn, total)
			}
			if !bytes.Equal(bytes.Join(got, nil), bytes.Join(want, nil)) {
				t.Fatal("fallback and ReadVecAt diverge")
			}
			ref := make([]byte, vecLen(want))
			if tc.off < int64(len(data)) {
				copy(ref, data[tc.off:])
			}
			if !bytes.Equal(bytes.Join(got, nil), ref) {
				t.Fatal("fallback read differs from the written data")
			}
		})
	}
}

// TestDeviceVecSequentialCounting is the regression test for vectored
// request accounting: a Vec request that continues the previous extent
// is ONE sequential read (not zero, not one per buffer), and VecReads
// counts it.
func TestDeviceVecSequentialCounting(t *testing.T) {
	d := NewDevice(fastParams(), NewMemStore())
	defer d.Close()
	done := make(chan error, 1)
	d.Submit(&Request{Op: OpRead, Offset: 0, Vec: [][]byte{make([]byte, 4096)}, Done: func(err error) { done <- err }})
	<-done
	vec := [][]byte{make([]byte, 4096), make([]byte, 4096), make([]byte, 4096)}
	d.Submit(&Request{Op: OpRead, Offset: 4096, Vec: vec, Done: func(err error) { done <- err }})
	<-done
	st := d.Stats()
	if st.Reads != 2 {
		t.Fatalf("Reads = %d, want 2 (a vectored request is one request)", st.Reads)
	}
	if st.SeqReads != 1 {
		t.Fatalf("SeqReads = %d, want 1 (the vec request continued the previous extent)", st.SeqReads)
	}
	if st.VecReads != 1 {
		t.Fatalf("VecReads = %d, want 1", st.VecReads)
	}
	// A request continuing the vec request's END is sequential too: the
	// model must advance its cursor by the full scatter length.
	d.Submit(&Request{Op: OpRead, Offset: 4 * 4096, Vec: [][]byte{make([]byte, 4096)}, Done: func(err error) { done <- err }})
	<-done
	if st := d.Stats(); st.SeqReads != 2 {
		t.Fatalf("SeqReads = %d, want 2 (cursor must advance past the whole vec)", st.SeqReads)
	}
}

// TestArraySubmitReadBatch drives batches through the striped array:
// contents must match a synchronous read, and the array merges nothing
// across reads — each single-page read is one device request.
func TestArraySubmitReadBatch(t *testing.T) {
	a := NewArray(ArrayParams{Devices: 2, StripeSize: 8192, Device: fastParams()})
	defer a.Close()
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	if err := a.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	a.ResetStats()

	var wg sync.WaitGroup
	var batch []BatchRead
	// Eight 4KB pages in scrambled order covering [0, 32K): contiguous
	// on each device, but merging adjacent pages is SAFS's job.
	pages := make([][]byte, 8)
	for _, pn := range []int{5, 0, 3, 6, 1, 4, 7, 2} {
		pn := pn
		pages[pn] = make([]byte, 4096)
		wg.Add(1)
		batch = append(batch, BatchRead{
			Off:  int64(pn) * 4096,
			Vec:  [][]byte{pages[pn]},
			Done: func(err error) { wg.Done() },
		})
	}
	a.SubmitReadBatch(batch)
	wg.Wait()

	if !bytes.Equal(bytes.Join(pages, nil), data[:32<<10]) {
		t.Fatal("batched read content mismatch")
	}
	if st := a.Stats(); st.Reads != 8 {
		t.Fatalf("device reads = %d, want 8 (one per single-page read)", st.Reads)
	}
}
