package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"flashgraph/internal/core"
	"flashgraph/internal/gen"
	"flashgraph/internal/graph"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
)

// substrate is one workload's loaded graph on the real larger-than-RAM
// path: image file → OpenImageFile → four file stores → SSD array →
// SAFS → core.Shared. Edge data is not in the Go heap, and every read
// verifies the image's CRC32C trailer.
type substrate struct {
	scale int
	dir   string

	img    *graph.Image
	arr    *ssd.Array
	fs     *safs.FS
	shared *core.Shared
	stores []*timingStore
	timing atomic.Bool // turns the timing stores on for the traced pass

	imagePath string
	build     *graph.BuildStats

	// Set-up phase lengths; setup is their sum, measured as one interval.
	setup, buildT, reencodeT, openT, loadT time.Duration
}

// graphSeed derives the generator seed from the run seed, so -seed
// changes the graph as well as the source choice.
func graphSeed(seed uint64) uint64 { return seed*0x9e3779b97f4a7c15 + 1 }

// buildSubstrate runs the whole set-up: generate → build the image file
// (→ re-encode for the block layout) → open → load onto the SSD array.
// tee, when non-nil, sees every generated edge (the oracle's copy of the
// same stream).
func buildSubstrate(spec workloadSpec, sz sizing, seed uint64, dir string, tee func(graph.Edge), tr *tracer) (*substrate, error) {
	s := &substrate{scale: spec.scale(sz), dir: dir}
	start := time.Now()
	root := tr.begin(0, "harness", "setup", 0)

	// The builder emits raw or delta directly; block is a re-encoding of
	// the raw image, as fg-convert -reencode does it.
	buildEnc := spec.encoding
	if buildEnc == graph.EncodingBlock {
		buildEnc = graph.EncodingRaw
	}
	sp := tr.begin(0, "graph", "ingest.build", root)
	t0 := time.Now()
	b := graph.NewStreamBuilder(graph.BuildConfig{
		NumV:     1 << s.scale,
		Directed: true,
		Encoding: buildEnc,
		MemBytes: sz.ingestMem,
		TmpDir:   dir,
	})
	emit := b.Add
	if tee != nil {
		emit = func(e graph.Edge) error {
			tee(e)
			return b.Add(e)
		}
	}
	if err := gen.RMATStream(s.scale, edgesPerVertex, graphSeed(seed), emit); err != nil {
		b.Close()
		return nil, fmt.Errorf("generate: %w", err)
	}
	path := filepath.Join(dir, "graph-"+buildEnc.String()+".fg")
	st, err := b.WriteFile(path)
	if err != nil {
		return nil, fmt.Errorf("build image: %w", err)
	}
	s.build = st
	s.buildT = time.Since(t0)
	tr.end(sp, map[string]int64{"edges": st.InputEdges, "spilled_runs": int64(st.Spills)})

	if spec.encoding != buildEnc {
		sp := tr.begin(0, "graph", "reencode", root)
		t0 := time.Now()
		out := filepath.Join(dir, "graph-"+spec.encoding.String()+".fg")
		if err := reencodeFile(path, out, spec.encoding); err != nil {
			return nil, err
		}
		os.Remove(path)
		path = out
		s.reencodeT = time.Since(t0)
		tr.end(sp, nil)
	}
	s.imagePath = path

	sp = tr.begin(0, "graph", "open", root)
	t0 = time.Now()
	img, err := graph.OpenImageFile(path)
	if err != nil {
		return nil, fmt.Errorf("open image: %w", err)
	}
	s.img = img
	s.openT = time.Since(t0)
	tr.end(sp, nil)

	sp = tr.begin(0, "core", "load", root)
	stores := make([]ssd.Store, ssdDevices)
	for i := range stores {
		fsStore, err := ssd.NewFileStore(filepath.Join(dir, fmt.Sprintf("ssd%d.dat", i)))
		if err != nil {
			s.close()
			return nil, err
		}
		ts := newTimingStore(fsStore, &s.timing)
		s.stores = append(s.stores, ts)
		stores[i] = ts
	}
	s.arr = ssd.NewArrayWithStores(ssd.ArrayParams{StripeSize: stripeBytes, Device: deviceModel(sz.throttle)}, stores)
	s.fs = safs.New(s.arr, safs.Config{CacheBytes: cacheBytes(img.DataSize()), PageSize: pageBytes})
	s.shared, err = core.NewShared(img, core.Config{Threads: engineThreads, RangeShift: rangeShift, FS: s.fs})
	if err != nil {
		s.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	s.loadT = s.shared.LoadTime()
	tr.end(sp, map[string]int64{"bytes": img.DataSize()})

	tr.end(root, nil)
	s.setup = time.Since(start)
	return s, nil
}

// cacheBytes is the SAFS cache size for an image: on-SSD bytes / 12,
// floored at 64 pages.
func cacheBytes(dataSize int64) int64 {
	b := dataSize / cacheDivisor
	if min := int64(cacheFloorPage * pageBytes); b < min {
		b = min
	}
	return b
}

// reencodeFile rewrites the image at in into layout enc at out.
func reencodeFile(in, out string, enc graph.Encoding) error {
	src, err := graph.OpenImageFile(in)
	if err != nil {
		return fmt.Errorf("reencode: %w", err)
	}
	defer src.Close()
	f, err := os.Create(out)
	if err != nil {
		return fmt.Errorf("reencode: %w", err)
	}
	if err := src.EncodeAs(f, enc); err != nil {
		f.Close()
		return fmt.Errorf("reencode: %w", err)
	}
	return f.Close()
}

// close stops the device goroutines, closes the stores and the image.
func (s *substrate) close() {
	if s.arr != nil {
		s.arr.Close()
	} else {
		for _, st := range s.stores {
			st.Close()
		}
	}
	if s.img != nil {
		s.img.Close()
	}
}

// removeFiles deletes the image and the device stores of a closed
// substrate, so the next set-up in the same directory starts from nothing.
func (s *substrate) removeFiles() error {
	if err := os.Remove(s.imagePath); err != nil {
		return err
	}
	for i := range s.stores {
		if err := os.Remove(filepath.Join(s.dir, fmt.Sprintf("ssd%d.dat", i))); err != nil {
			return err
		}
	}
	return nil
}

// storeCounters sums the timing stores' counters.
func (s *substrate) storeCounters() (reads int64, busy time.Duration) {
	for _, st := range s.stores {
		reads += st.reads.Load()
		busy += time.Duration(st.readNS.Load())
	}
	return
}

// ramImage reads the workload's image file into RAM (the in-memory
// comparison run and the decode probes need the bytes in the heap).
func (s *substrate) ramImage() (*graph.Image, error) {
	blob, err := os.ReadFile(s.imagePath)
	if err != nil {
		return nil, err
	}
	return graph.Decode(bytes.NewReader(blob))
}

// reencodeRAM returns img re-encoded into enc, RAM-resident.
func reencodeRAM(img *graph.Image, enc graph.Encoding) (*graph.Image, error) {
	if img.Encoding == enc {
		return img, nil
	}
	var buf bytes.Buffer
	if err := img.EncodeAs(&buf, enc); err != nil {
		return nil, err
	}
	return graph.Decode(&buf)
}

// memShared returns an in-memory Shared over a RAM-resident image with
// the same engine settings as the SEM substrate.
func memShared(img *graph.Image) (*core.Shared, error) {
	return core.NewShared(img, core.Config{Threads: engineThreads, RangeShift: rangeShift, InMemory: true})
}
