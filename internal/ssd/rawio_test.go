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

// TestDirectIOMatchesBuffered cross-checks a store opened for direct
// I/O against a buffered one over unaligned extents, whether or not
// O_DIRECT was actually negotiated (tmpfs CI degrades to the fadvise
// path).
func TestDirectIOMatchesBuffered(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewStore(filepath.Join(dir, "direct.dat"), StoreConfig{DirectIO: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	t.Logf("O_DIRECT negotiated: %v", ds.Direct())
	fs, err := NewFileStore(filepath.Join(dir, "plain.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i*131 + 17)
	}
	for _, off := range []int64{0, 4096, 12345} {
		if _, err := ds.WriteAt(data, off); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteAt(data, off); err != nil {
			t.Fatal(err)
		}
	}
	for _, rd := range []struct{ off, n int64 }{{0, 512}, {1, 1}, {4095, 2}, {10000, 40000}, {70000, 20000}} {
		a := make([]byte, rd.n)
		b := make([]byte, rd.n)
		if _, err := ds.ReadAt(a, rd.off); err != nil {
			t.Fatalf("direct read [%d,%d): %v", rd.off, rd.off+rd.n, err)
		}
		if _, err := fs.ReadAt(b, rd.off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("stores diverge at [%d,%d)", rd.off, rd.off+rd.n)
		}
	}
	// Vectored path, unaligned and EOF-straddling.
	vec := [][]byte{make([]byte, 3), make([]byte, 4096), make([]byte, 77)}
	ref := make([]byte, 3+4096+77)
	if _, err := ds.ReadVecAt(vec, 4093); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadAt(ref, 4093); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.Join(vec, nil), ref) {
		t.Fatal("direct vectored read mismatch")
	}
	if ds.Size() != fs.Size() {
		t.Fatalf("Size: direct %d, plain %d", ds.Size(), fs.Size())
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

// TestDeviceSubmitBatchCoalesces checks the io_uring-shaped path: a
// shuffled batch of adjacent extents becomes one vectored device
// request, every Done fires, data is intact, and the merge counters
// record what happened.
func TestDeviceSubmitBatchCoalesces(t *testing.T) {
	store := NewMemStore()
	data := make([]byte, 8*4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := store.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	d := NewDevice(fastParams(), store)
	defer d.Close()

	var wg sync.WaitGroup
	bufs := make([][]byte, 4)
	var reqs []*Request
	// Adjacent pages submitted out of order, plus one distant page.
	for _, pn := range []int{2, 0, 3, 1} {
		pn := pn
		bufs[pn] = make([]byte, 4096)
		wg.Add(1)
		reqs = append(reqs, &Request{Op: OpRead, Offset: int64(pn) * 4096, Vec: [][]byte{bufs[pn]}, Done: func(err error) {
			if err != nil {
				t.Errorf("page %d: %v", pn, err)
			}
			wg.Done()
		}})
	}
	distant := make([]byte, 4096)
	wg.Add(1)
	reqs = append(reqs, &Request{Op: OpRead, Offset: 7 * 4096, Vec: [][]byte{distant}, Done: func(err error) { wg.Done() }})
	d.SubmitBatch(reqs)
	wg.Wait()

	for pn, b := range bufs {
		if !bytes.Equal(b, data[pn*4096:(pn+1)*4096]) {
			t.Fatalf("page %d content mismatch after coalesced read", pn)
		}
	}
	if !bytes.Equal(distant, data[7*4096:8*4096]) {
		t.Fatal("uncoalesced page content mismatch")
	}
	st := d.Stats()
	if st.Reads != 2 {
		t.Fatalf("Reads = %d, want 2 (4 adjacent coalesced + 1 distant)", st.Reads)
	}
	if st.BatchSubmits != 1 || st.BatchedReqs != 5 || st.CoalescedReqs != 3 {
		t.Fatalf("batch counters = %d/%d/%d, want 1/5/3", st.BatchSubmits, st.BatchedReqs, st.CoalescedReqs)
	}
	if r := st.MergeRatio(); r != 2.5 {
		t.Fatalf("MergeRatio = %v, want 2.5 (5 requests over 2 served)", r)
	}
}

// TestArraySubmitReadBatch drives batches through the striped array:
// contents must match a synchronous read and adjacent extents on the
// same device must coalesce across requests.
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
	// Eight 4KB pages in scrambled order covering [0, 32K): on each
	// device they form contiguous runs that must coalesce.
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
	st := a.Stats()
	// [0,32K) is two 8K stripes per device; each device's two stripes are
	// adjacent in device-local space, so the whole batch is ONE request
	// per device.
	if st.Reads != 2 {
		t.Fatalf("device reads = %d, want 2 (one coalesced request per device)", st.Reads)
	}
	if st.CoalescedReqs != 6 {
		t.Fatalf("CoalescedReqs = %d, want 6", st.CoalescedReqs)
	}
}
