package safs

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"flashgraph/internal/ssd"
)

// TestFlushAdversarialInterleavings drives one Flush over many staged
// ReadTasks with deliberately hostile request orders — reversed, strided,
// and cross-file interleaved — and asserts two things: the staged
// loads merge down to the minimum number of device requests (the sort
// at Flush plus device-level coalescing undo any submission order),
// and every page's bytes are bit-identical to what was written.
func TestFlushAdversarialInterleavings(t *testing.T) {
	const pageSize = 4096
	const pagesPerFile = 24
	orders := map[string]func(n int) []int{
		"reversed": func(n int) []int {
			o := make([]int, n)
			for i := range o {
				o[i] = n - 1 - i
			}
			return o
		},
		"strided": func(n int) []int {
			var o []int
			for s := 0; s < 3; s++ {
				for i := s; i < n; i += 3 {
					o = append(o, i)
				}
			}
			return o
		},
		"shuffled": func(n int) []int {
			o := rand.New(rand.NewSource(42)).Perm(n)
			return o
		},
	}
	for name, order := range orders {
		t.Run(name, func(t *testing.T) {
			// One device, one big stripe: the two files are adjacent in
			// array space, so a full merge is exactly ONE device request.
			a := ssd.NewArray(ssd.ArrayParams{Devices: 1, StripeSize: 1 << 20})
			defer a.Close()
			fs := New(a, Config{CacheBytes: 4 << 20, PageSize: pageSize})

			files := make([]*File, 2)
			want := make([][]byte, 2)
			for fi := range files {
				f, err := fs.Create(fmt.Sprintf("f%d", fi), pagesPerFile*pageSize)
				if err != nil {
					t.Fatal(err)
				}
				data := make([]byte, pagesPerFile*pageSize)
				for i := range data {
					data[i] = byte(i*31 + 7*fi + 3)
				}
				if err := f.WriteAt(data, 0); err != nil {
					t.Fatal(err)
				}
				files[fi] = f
				want[fi] = data
			}
			a.ResetStats()

			// One ReadTask per page, issued in the adversarial order and
			// interleaved across the two files.
			ctx := fs.NewContext()
			got := make([][]byte, 2)
			for fi := range got {
				got[fi] = make([]byte, pagesPerFile*pageSize)
			}
			for _, pn := range order(pagesPerFile) {
				for fi, f := range files {
					fi, pn := fi, pn
					ctx.ReadTask(f, int64(pn)*pageSize, pageSize, func(v *View, err error) {
						if err != nil {
							t.Error(err)
							return
						}
						v.ReadAt(got[fi][pn*pageSize:(pn+1)*pageSize], 0)
					})
				}
			}
			ctx.Flush()
			ctx.Drain()

			for fi := range got {
				if !bytes.Equal(got[fi], want[fi]) {
					t.Fatalf("file %d: page contents diverge after merged flush", fi)
				}
			}
			st := a.Stats()
			// All 48 staged pages are contiguous in array space: Flush
			// sorts them by (file, page) and the device coalesces the two
			// file runs, so the whole sweep is one vectored request.
			if st.Reads != 1 {
				t.Fatalf("device reads = %d, want 1 (full cross-request merge)", st.Reads)
			}
			if st.VecReads != 1 {
				t.Fatalf("VecReads = %d, want 1", st.VecReads)
			}
			if st.BatchedReqs != 2 || st.CoalescedReqs != 1 {
				t.Fatalf("batch counters = %d batched / %d coalesced, want 2/1 (one group per file, merged at the device)",
					st.BatchedReqs, st.CoalescedReqs)
			}
		})
	}
}

// TestFlushPartialRuns checks merged extent counts when the staged
// pages do NOT form one contiguous run: each gap costs exactly one more
// device request, never a wrong page.
func TestFlushPartialRuns(t *testing.T) {
	const pageSize = 4096
	a := ssd.NewArray(ssd.ArrayParams{Devices: 1, StripeSize: 1 << 20})
	defer a.Close()
	fs := New(a, Config{CacheBytes: 4 << 20, PageSize: pageSize})
	f, err := fs.Create("f", 64*pageSize)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 64*pageSize)
	for i := range data {
		data[i] = byte(i*13 + 1)
	}
	if err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	a.ResetStats()

	// Three runs with gaps: [0..3], [8..9], [40]. Issued interleaved.
	pages := []int{40, 0, 8, 2, 9, 1, 3}
	ctx := fs.NewContext()
	got := make(map[int][]byte, len(pages))
	for _, pn := range pages {
		pn := pn
		buf := make([]byte, pageSize)
		got[pn] = buf
		ctx.ReadTask(f, int64(pn)*pageSize, pageSize, func(v *View, err error) {
			if err != nil {
				t.Error(err)
				return
			}
			v.ReadAt(buf, 0)
		})
	}
	ctx.Flush()
	ctx.Drain()

	for pn, buf := range got {
		if !bytes.Equal(buf, data[pn*pageSize:(pn+1)*pageSize]) {
			t.Fatalf("page %d bytes diverge", pn)
		}
	}
	if st := a.Stats(); st.Reads != 3 {
		t.Fatalf("device reads = %d, want 3 (one per contiguous run)", st.Reads)
	}
}

// TestDirectIOBackedSAFS runs the semi-external-memory stack over file
// stores opened for direct I/O — the raw I/O configuration fg-serve
// -direct builds. Where the filesystem rejects O_DIRECT (tmpfs CI) the
// store degrades to its fadvise fallback and the test still validates
// that path; it never fails for lack of kernel support.
func TestDirectIOBackedSAFS(t *testing.T) {
	dir := t.TempDir()
	const devices = 3
	stores := make([]ssd.Store, devices)
	direct := true
	for i := range stores {
		ds, err := ssd.NewStore(filepath.Join(dir, fmt.Sprintf("dev%d.dat", i)), ssd.StoreConfig{DirectIO: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		direct = direct && ds.Direct()
		stores[i] = ds
	}
	if !direct {
		t.Log("O_DIRECT unsupported here (tmpfs?); exercising the buffered fadvise fallback")
	}
	arr := ssd.NewArrayWithStores(ssd.ArrayParams{Devices: devices, StripeSize: 8192}, stores)
	t.Cleanup(arr.Close)
	fs := New(arr, Config{CacheBytes: 256 << 10, PageSize: 4096})

	const written = 37*4096 + 123
	f, err := fs.Create("g.adj", 40*4096)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, written)
	for i := range data {
		data[i] = byte(i*17 + 5)
	}
	if err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	// Async path with merged flush, covering written and thin (post-EOF)
	// pages, then the synchronous path as a cross-check.
	ctx := fs.NewContext()
	got := make([]byte, 40*4096)
	for pn := 0; pn < 40; pn += 2 { // gaps force several merged runs
		pn := pn
		ctx.ReadTask(f, int64(pn)*4096, 4096, func(v *View, err error) {
			if err != nil {
				t.Error(err)
				return
			}
			v.ReadAt(got[pn*4096:(pn+1)*4096], 0)
		})
	}
	ctx.Flush()
	ctx.Drain()
	for pn := 0; pn < 40; pn += 2 {
		lo := pn * 4096
		for i := lo; i < lo+4096; i++ {
			want := byte(0)
			if i < written {
				want = data[i]
			}
			if got[i] != want {
				t.Fatalf("byte %d = %d, want %d (direct-store async read)", i, got[i], want)
			}
		}
	}
	sync := make([]byte, 40*4096)
	if err := f.ReadAt(sync, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sync[:written], data) {
		t.Fatal("direct-store synchronous read diverges from written data")
	}
	for i := written; i < len(sync); i++ {
		if sync[i] != 0 {
			t.Fatalf("unwritten byte %d = %d, want 0 (thin zero fill)", i, sync[i])
		}
	}
}
