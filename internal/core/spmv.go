package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"flashgraph/internal/graph"
)

// SpMVEngine executes dense sweeps in the style of M-Flash and
// FlashMatrix: instead of selective edge-list access with per-vertex
// scheduling and messages, it streams one direction's entire edge data
// through memory in large sequential stripes and folds every edge into
// dense per-vertex state via SpMVProgram.ApplyRow. For full-frontier
// algorithms (PageRank sweeps, connected components, label propagation)
// this trades FlashGraph's selectivity for raw sequential bandwidth:
// no request sorting or merging, no message buffers, no page cache —
// stripes are read with synchronous whole-extent reads while the next
// stripe prefetches.
//
// All three on-SSD layouts serve the sweep. The 2D edge-block layout
// (EncodingBlock) is the one built for it — one stripe is one
// sequential read and decoding touches destination state one column
// stripe at a time — but raw and delta record streams sweep too, chunked
// by the same stripe geometry.
//
// One stripe decodes while the next reads. Each column stripe's state is
// written by one goroutine at a time, in (row stripe, row) order, so
// runs are deterministic and programs mutate dense state without
// atomics: a ColumnLocal program over the block layout has each block
// stripe's column stripes dealt to min(Threads, grid side) goroutines,
// and every other sweep runs on the goroutine that called Run. An
// SpMVEngine is one run context, stamped out per query by
// Shared.NewEngine(EngineSpMV); concurrent runs over one graph each get
// their own.
type SpMVEngine struct {
	runBase

	prog SpMVProgram

	reads     int64 // stripe reads issued
	bytesRead int64
	bufBytes  int64         // largest prefetch buffer grown this run
	wait      time.Duration // Run's goroutine blocked on the prefetcher

	rowScratch   []graph.VertexID
	colScratch   []graph.VertexID
	groupScratch [][]graph.VertexID // block decode scratch, one per column group
}

// newSpMVRun stamps out a per-run SpMV engine over the shared substrate.
func (s *Shared) newSpMVRun() *SpMVEngine {
	return &SpMVEngine{runBase: s.newRunBase()}
}

// Kind reports the execution model: dense streaming sweeps.
func (e *SpMVEngine) Kind() EngineKind { return EngineSpMV }

// ActivateSeed is a no-op: SpMV programs keep dense state and their own
// frontier, so shared Init code may call it unconditionally.
func (e *SpMVEngine) ActivateSeed(v graph.VertexID) {}

// ActivateAllSeeds is a no-op (see ActivateSeed).
func (e *SpMVEngine) ActivateAllSeeds() {}

// PendingActivations returns 0: the engine tracks no frontier.
func (e *SpMVEngine) PendingActivations() int64 { return 0 }

// Run executes a dense-sweep program (core.SpMVProgram) to completion
// and returns its statistics. Iterations follow the program's frontier:
// BeginIteration picks the directions to sweep (empty = converged), the
// engine streams each direction stripe by stripe through ApplyRow, and
// EndIteration commits the iteration (true = done). The program's
// IterationLimiter caps iterations exactly as on the vertex engine.
func (e *SpMVEngine) Run(p Program) (RunStats, error) {
	prog, ok := p.(SpMVProgram)
	if !ok {
		return RunStats{}, fmt.Errorf("core: the SpMV engine runs dense sweeps (core.SpMVProgram); %T has no SpMV form", p)
	}
	e.prog = prog
	e.iteration = 0
	e.reads, e.bytesRead, e.bufBytes, e.wait = 0, 0, 0, 0

	// Stripe reads and bytes are counted per run; device reads and busy
	// time are the substrate's over the run's window.
	chargeDevices := e.deviceWindow()

	start := time.Now()
	prog.Init(e)

	maxIters := iterationCap(p)
	var runErr error
	for {
		if maxIters > 0 && e.iteration >= maxIters {
			break
		}
		if runErr = stopErr(e.ctx, e.iteration); runErr != nil {
			break
		}
		dirs := prog.BeginIteration(e, e.iteration)
		if len(dirs) == 0 {
			break
		}
		for _, dir := range dirs {
			if err := e.sweep(dir); err != nil {
				runErr = fmt.Errorf("core: spmv sweep (iteration %d): %w", e.iteration, err)
				break
			}
		}
		if runErr != nil {
			break
		}
		done := prog.EndIteration(e, e.iteration)
		e.iteration++
		if done {
			break
		}
	}
	elapsed := time.Since(start)

	st := RunStats{
		Engine:         string(EngineSpMV),
		Iterations:     e.iteration,
		Elapsed:        elapsed,
		EdgeRequests:   e.reads,
		MergedRequests: e.reads,
		BytesRead:      e.bytesRead,
		WaitTime:       e.wait,
	}
	if elapsed > 0 {
		st.CPUUtil = float64(elapsed-e.wait) / float64(elapsed)
	}
	chargeDevices(&st)
	st.MemoryBytes = e.memoryFootprint()
	return st, runErr
}

// memoryFootprint estimates resident bytes: index + program state +
// edge data (in-memory) or the double-buffered stripe windows (SEM).
func (e *SpMVEngine) memoryFootprint() int64 {
	m := e.img.IndexMemory()
	if ss, ok := e.prog.(StateSized); ok {
		m += ss.StateBytes()
	}
	if e.cfg.InMemory {
		m += e.img.DataSize()
	} else {
		m += 2 * e.bufBytes
	}
	return m
}

// extent is one stripe's byte range in a direction's edge data.
type extent struct{ off, size int64 }

// sweep streams one direction's edges through prog.ApplyRow.
func (e *SpMVEngine) sweep(dir graph.EdgeDir) error {
	ix := e.index(dir)
	if e.img.Encoding == graph.EncodingBlock {
		return e.sweepBlocks(dir, ix)
	}
	return e.sweepRecords(dir, ix)
}

// sweepBlocks sweeps the 2D edge-block layout: each row stripe is one
// contiguous extent, decoded block by block — by column group on
// several goroutines when the program is ColumnLocal and columnGroups
// splits the grid, in column order on this one otherwise.
func (e *SpMVEngine) sweepBlocks(dir graph.EdgeDir, ix *graph.Index) error {
	bd := ix.Blocks()
	exts := make([]extent, bd.Stripes)
	for r := range exts {
		off, size := bd.StripeExtent(r)
		exts[r] = extent{off, size}
	}
	attrSize := ix.AttrSize()
	apply := func(row graph.VertexID, cols []graph.VertexID, _ []byte) { e.prog.ApplyRow(dir, row, cols) }
	var groups [][]int
	if _, ok := e.prog.(ColumnLocal); ok {
		groups = columnGroups(bd, e.cfg.Threads)
	}
	if groups == nil {
		return e.eachStripe(dir, exts, func(r int, buf []byte) error {
			var err error
			e.colScratch, err = bd.DecodeStripe(buf, r, attrSize, e.colScratch, apply)
			return err
		})
	}
	for len(e.groupScratch) < len(groups) {
		e.groupScratch = append(e.groupScratch, nil)
	}
	return e.eachStripe(dir, exts, func(r int, buf []byte) error {
		return e.applyGroups(bd, groups, r, buf, attrSize, apply)
	})
}

// applyGroups decodes row stripe r's blocks one column group per
// goroutine: this goroutine takes group 0, a helper each of the rest.
// Every helper has returned before applyGroups does, so the stripe
// buffer is free to go back to the prefetcher; a panic on any goroutine
// is re-raised here, on Run's goroutine, where the caller's recover (the
// serving tier's) can contain it.
func (e *SpMVEngine) applyGroups(bd *graph.BlockDir, groups [][]int, r int, buf []byte, attrSize int, apply func(graph.VertexID, []graph.VertexID, []byte)) error {
	errs := make([]error, len(groups))
	panics := make([]any, len(groups))
	decode := func(g int) {
		defer func() { panics[g] = recover() }()
		for _, c := range groups[g] {
			var err error
			if e.groupScratch[g], err = bd.DecodeBlock(buf, r, c, attrSize, e.groupScratch[g], apply); err != nil {
				errs[g] = err
				return
			}
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < len(groups); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			decode(g)
		}()
	}
	decode(0)
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// columnGroups deals the column stripes of bd's grid to
// min(threads, Stripes) groups, balancing the edge bytes each group
// decodes per sweep (column c's bytes are its blocks' extents summed
// over the row stripes). Columns go largest first to the least-loaded
// group, ties to the lower column and the lower group. Largest-first is
// a heuristic — over two groups it splits bytes [2 3 2 3 2] 7 / 6 where
// dealing c ≡ g (mod groups) splits them 6 / 6 — so when c ≡ g leaves
// the heaviest group lighter, that dealing is taken instead. Each group
// lists its columns ascending. With one thread or a one-stripe grid
// there is nothing to split: it returns nil and allocates nothing.
func columnGroups(bd *graph.BlockDir, threads int) [][]int {
	k := min(threads, bd.Stripes)
	if k < 2 {
		return nil
	}
	s := bd.Stripes
	bytes := make([]int64, s)
	for i := 0; i < s*s; i++ {
		bytes[i%s] += bd.Offsets[i+1] - bd.Offsets[i]
	}
	order := make([]int, s)
	for c := range order {
		order[c] = c
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(bytes[b], bytes[a]) })
	owner := make([]int, s)
	load := make([]int64, k)
	for _, c := range order {
		g := 0
		for h := 1; h < k; h++ {
			if load[h] < load[g] {
				g = h
			}
		}
		owner[c] = g
		load[g] += bytes[c]
	}
	modLoad := make([]int64, k)
	for c, b := range bytes {
		modLoad[c%k] += b
	}
	if slices.Max(modLoad) < slices.Max(load) {
		for c := range owner {
			owner[c] = c % k
		}
	}
	groups := make([][]int, k)
	for c, g := range owner {
		groups[g] = append(groups[g], c)
	}
	return groups
}

// sweepRecords sweeps the raw and delta record layouts: the vertex range
// is chunked by the same stripe geometry the block layout uses, each
// chunk's records located via the compact index and decoded in ID order
// with PageVertex. Every row is delivered exactly once with its full
// neighbor list.
func (e *SpMVEngine) sweepRecords(dir graph.EdgeDir, ix *graph.Index) error {
	n := e.img.NumV
	if n == 0 {
		return nil
	}
	shift, stripes := graph.StripeGridFor(n)
	exts := make([]extent, stripes)
	for r := range exts {
		lo := r << shift
		hi := lo + 1<<shift
		if hi > n {
			hi = n
		}
		off, _ := ix.Locate(graph.VertexID(lo))
		end := ix.FileSize()
		if hi < n {
			end, _ = ix.Locate(graph.VertexID(hi))
		}
		exts[r] = extent{off, end - off}
	}
	enc := e.img.Encoding
	attrSize := ix.AttrSize()
	return e.eachStripe(dir, exts, func(r int, buf []byte) error {
		lo := r << shift
		hi := lo + 1<<shift
		if hi > n {
			hi = n
		}
		pos := int64(0)
		for v := lo; v < hi; v++ {
			rec := ix.RecordBytes(graph.VertexID(v))
			if pos+rec > int64(len(buf)) {
				return fmt.Errorf("stripe %d (dir %d) truncated at vertex %d", r, dir, v)
			}
			if ix.Degree(graph.VertexID(v)) > 0 {
				pv := graph.NewPageVertexBytes(graph.VertexID(v), dir, buf[pos:pos+rec], attrSize, enc)
				e.rowScratch = pv.Edges(e.rowScratch[:0], nil)
				e.prog.ApplyRow(dir, graph.VertexID(v), e.rowScratch)
			}
			pos += rec
		}
		if pos != int64(len(buf)) {
			return fmt.Errorf("stripe %d (dir %d): %d trailing bytes", r, dir, int64(len(buf))-pos)
		}
		return nil
	})
}

// eachStripe runs process over every stripe in order. In-memory images
// are processed over direct slices of the edge data; in SEM mode each
// stripe is one synchronous whole-extent SAFS read (bypassing the page
// cache — the sweep never re-reads a byte, so caching would only evict
// sibling runs' pages), double-buffered so stripe r+1 reads from the
// SSD array while stripe r decodes.
func (e *SpMVEngine) eachStripe(dir graph.EdgeDir, exts []extent, process func(r int, buf []byte) error) error {
	if e.cfg.InMemory {
		data := e.data(dir)
		for r, x := range exts {
			if err := stopErr(e.ctx, e.iteration); err != nil {
				return err
			}
			if err := process(r, data[x.off:x.off+x.size]); err != nil {
				return err
			}
		}
		return nil
	}

	f := e.file(dir)
	type filled struct {
		r   int
		buf []byte
		err error
	}
	free := make(chan []byte, 2)
	free <- nil
	free <- nil
	out := make(chan filled, 2)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(out)
		for r, x := range exts {
			var buf []byte
			select {
			case buf = <-free:
			case <-done:
				return
			}
			if int64(cap(buf)) < x.size {
				buf = make([]byte, x.size)
			}
			buf = buf[:x.size]
			var err error
			if x.size > 0 {
				err = f.ReadAt(buf, x.off)
			}
			select {
			case out <- filled{r, buf, err}:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	for {
		t0 := time.Now()
		fl, ok := <-out
		e.wait += time.Since(t0)
		if !ok {
			return nil
		}
		if fl.err != nil {
			return fl.err
		}
		if err := stopErr(e.ctx, e.iteration); err != nil {
			// The deferred close(done) stops the prefetcher.
			return err
		}
		e.reads++
		e.bytesRead += int64(len(fl.buf))
		if b := int64(cap(fl.buf)); b > e.bufBytes {
			e.bufBytes = b
		}
		if err := process(fl.r, fl.buf); err != nil {
			return err
		}
		select {
		case free <- fl.buf:
		default:
		}
	}
}
