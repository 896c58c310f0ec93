package main

import (
	"fmt"
	"runtime"
	"time"

	"flashgraph/internal/core"
	"flashgraph/internal/graph"
	"flashgraph/internal/pagecache"
	"flashgraph/internal/qos"
	"flashgraph/internal/result"
	"flashgraph/internal/safs"
	"flashgraph/internal/ssd"
	"flashgraph/internal/util"
)

// probeResults maps a per-layer metric name to its probed value.
type probeResults map[string]float64

// Isolation probes drive one layer's public functions directly, on an
// unthrottled in-memory array, so a layer has a number of its own that
// no other layer's cost leaks into. They run once per traced
// invocation. ram is the workload's own image, RAM-resident: the decode
// probes walk its records (re-encoded for the two layouts it is not
// in), and the message-path probe runs over its raw form.
func runProbes(ram *graph.Image, sz sizing, seed uint64) (probeResults, error) {
	out := probeResults{}
	n := func(full int) int {
		if k := full / sz.probeIters; k > 16 {
			return k
		}
		return 16
	}
	rng := util.NewRNG(seed + 7)

	probeSSD(out, n, rng)
	if err := probeSAFS(out, n, rng); err != nil {
		return nil, err
	}
	probePageCache(out, n)

	imgs := map[graph.Encoding]*graph.Image{ram.Encoding: ram}
	for _, enc := range []graph.Encoding{graph.EncodingRaw, graph.EncodingDelta, graph.EncodingBlock} {
		if imgs[enc] != nil {
			continue
		}
		img, err := reencodeRAM(ram, enc)
		if err != nil {
			return nil, fmt.Errorf("reencode to %s: %w", enc, err)
		}
		imgs[enc] = img
	}
	probeDecode(out, ram.Encoding, imgs, n, rng)
	if err := probeMessagePath(out, imgs[graph.EncodingRaw]); err != nil {
		return nil, err
	}
	probeResult(out, ram.NumV, n)
	probeQoS(out, n)
	return out, nil
}

func perOp(d time.Duration, ops int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(ops)
}

func memArray() *ssd.Array {
	return ssd.NewArray(ssd.ArrayParams{Devices: ssdDevices, StripeSize: stripeBytes, Device: deviceModel(false)})
}

// probeSSD: Array.ReadAt of single pages and SubmitReadBatch of 256.
func probeSSD(out probeResults, n func(int) int, rng *util.RNG) {
	arr := memArray()
	defer arr.Close()
	pages := n(8192) // 32 MiB at full size
	fill := make([]byte, 64*pageBytes)
	for off := int64(0); off < int64(pages)*pageBytes; off += int64(len(fill)) {
		if err := arr.WriteAt(fill, off); err != nil {
			panic(err)
		}
	}
	buf := make([]byte, pageBytes)
	reads := n(20000)
	t0 := time.Now()
	for i := 0; i < reads; i++ {
		if err := arr.ReadAt(buf, int64(rng.Intn(pages))*pageBytes); err != nil {
			panic(err)
		}
	}
	out["ssd.read4k_us"] = perOp(time.Since(t0), reads, time.Microsecond)

	const batchSize = 256
	bufs := make([][]byte, batchSize)
	for i := range bufs {
		bufs[i] = make([]byte, pageBytes)
	}
	rounds := n(200)
	done := make(chan error, batchSize) // one completion per read of a round
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		batch := make([]ssd.BatchRead, batchSize)
		for i := range batch {
			batch[i] = ssd.BatchRead{
				Off:  int64(rng.Intn(pages)) * pageBytes,
				Vec:  [][]byte{bufs[i]},
				Done: func(err error) { done <- err },
			}
		}
		arr.SubmitReadBatch(batch)
		for range batch {
			if err := <-done; err != nil {
				panic(err)
			}
		}
	}
	out["ssd.batch_kreq_per_s"] = float64(rounds*batchSize) / time.Since(t0).Seconds() / 1e3
}

// probeSAFS: one-page ReadTask round trips, cold then resident, and
// VerifyRange over a checksummed file.
func probeSAFS(out probeResults, n func(int) int, rng *util.RNG) error {
	arr := memArray()
	defer arr.Close()
	pages := n(8192)
	size := int64(pages) * pageBytes
	fs := safs.New(arr, safs.Config{CacheBytes: 2 * size, PageSize: pageBytes})
	f, err := fs.Create("probe", size)
	if err != nil {
		return err
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	if err := f.WriteAt(data, 0); err != nil {
		return err
	}
	f.SetChecksums(graph.ChecksumData(data), graph.ChecksumExtentSize)

	ctx := fs.NewContext()
	var taskErr error
	sweep := func() time.Duration {
		t0 := time.Now()
		for p := 0; p < pages; p++ {
			ctx.ReadTask(f, int64(p)*pageBytes, pageBytes, func(v *safs.View, err error) {
				if err != nil {
					taskErr = err
				}
			})
			ctx.Flush()
			for ctx.Pending() > 0 {
				ctx.WaitAny()
			}
		}
		return time.Since(t0)
	}
	out["safs.readtask_miss_us"] = perOp(sweep(), pages, time.Microsecond)
	out["safs.readtask_hit_ns"] = perOp(sweep(), pages, time.Nanosecond)
	if taskErr != nil {
		return fmt.Errorf("safs probe: %w", taskErr)
	}

	const chunk = 1 << 20
	var verified int64
	t0 := time.Now()
	for off := int64(0); off+chunk <= size; off += chunk {
		if err := f.VerifyRange(data[off:off+chunk], off); err != nil {
			return fmt.Errorf("safs probe: %w", err)
		}
		verified += chunk
	}
	if verified == 0 { // a shrunken probe file: verify it whole
		if err := f.VerifyRange(data, 0); err != nil {
			return fmt.Errorf("safs probe: %w", err)
		}
		verified = size
	}
	out["safs.verify_ns_per_kib"] = float64(time.Since(t0)) / (float64(verified) / 1024)
	return nil
}

// probePageCache: Acquire on a cache a quarter the size of the key
// range (every miss past the first quarter evicts), then on resident keys.
func probePageCache(out probeResults, n func(int) int) {
	frames := n(16384)
	c := pagecache.New(pagecache.Config{TotalBytes: int64(frames) * pageBytes, PageSize: pageBytes})
	keys := 4 * frames
	t0 := time.Now()
	for i := 0; i < keys; i++ {
		p, loader, ok := c.Acquire(pagecache.Key{FileID: 1, PageNo: int64(i)})
		if !ok {
			continue
		}
		if loader {
			p.Complete(nil)
		}
		p.Unpin()
	}
	out["pagecache.acquire_miss_ns"] = perOp(time.Since(t0), keys, time.Nanosecond)

	// The most recently loaded keys are the resident ones.
	tried := 0
	t0 = time.Now()
	for round := 0; round < 4; round++ {
		for i := keys - frames/2; i < keys; i++ {
			p, loader, ok := c.Acquire(pagecache.Key{FileID: 1, PageNo: int64(i)})
			tried++
			if !ok {
				continue
			}
			if loader {
				p.Complete(nil)
			}
			p.Unpin()
		}
	}
	out["pagecache.acquire_hit_ns"] = perOp(time.Since(t0), tried, time.Nanosecond)
}

// probeDecode: Index.Locate on the workload's own index, PageVertex.Edges
// over its raw and delta records, BlockDir.DecodeStripe over its blocks.
func probeDecode(out probeResults, own graph.Encoding, imgs map[graph.Encoding]*graph.Image, n func(int) int, rng *util.RNG) {
	located := imgs[own]
	if own == graph.EncodingBlock {
		located = imgs[graph.EncodingRaw] // block images are addressed by stripe, not by vertex
	}
	lookups := n(2000000)
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		off, size := located.OutIndex.Locate(graph.VertexID(rng.Intn(located.NumV)))
		machineSink += uint64(off + size) // keeps the call from being optimised away
	}
	out["graph.locate_ns"] = perOp(time.Since(t0), lookups, time.Nanosecond)

	for _, enc := range []graph.Encoding{graph.EncodingRaw, graph.EncodingDelta} {
		img := imgs[enc]
		var dst []graph.VertexID
		var edges int64
		t0 := time.Now()
		for v := 0; v < img.NumV; v++ {
			off, size := img.OutIndex.Locate(graph.VertexID(v))
			pv := graph.NewPageVertexBytes(graph.VertexID(v), graph.OutEdges, img.OutData[off:off+size], img.AttrSize, enc)
			dst = pv.Edges(dst[:0], nil)
			edges += int64(len(dst))
		}
		out["graph.decode_"+enc.String()+"_ns_per_edge"] = ratio(float64(time.Since(t0)), float64(edges))
	}

	blk := imgs[graph.EncodingBlock]
	bd := blk.OutIndex.Blocks()
	var cols []graph.VertexID
	var edges int64
	t0 = time.Now()
	for r := 0; r < bd.Stripes; r++ {
		off, size := bd.StripeExtent(r)
		var err error
		cols, err = bd.DecodeStripe(blk.OutData[off:off+size], r, blk.AttrSize, cols, func(row graph.VertexID, c []graph.VertexID, attrs []byte) {
			edges += int64(len(c))
		})
		if err != nil {
			panic(err)
		}
	}
	out["graph.decode_block_ns_per_edge"] = ratio(float64(time.Since(t0)), float64(edges))
}

// multicaster is the message-path probe's program: every vertex, every
// iteration, requests its own out-edge list and multicasts one message
// to all of it; receiving does nothing. What remains is the engine's
// send, buffer, deliver and dispatch path (plus an in-memory raw decode,
// which graph.decode_raw_ns_per_edge prices separately).
type multicaster struct {
	iters   int
	targets [][]graph.VertexID
}

func (m *multicaster) Init(eng core.ExecutionEngine) {
	m.targets = make([][]graph.VertexID, eng.Threads())
	eng.ActivateAllSeeds()
}
func (m *multicaster) Run(ctx *core.Ctx, v graph.VertexID) { ctx.RequestSelf(graph.OutEdges) }
func (m *multicaster) RunOnVertex(ctx *core.Ctx, v graph.VertexID, pv *graph.PageVertex) {
	w := ctx.WorkerID()
	m.targets[w] = pv.Edges(m.targets[w][:0], nil)
	ctx.Multicast(m.targets[w], core.Message{I64: 1})
}
func (m *multicaster) RunOnMessage(ctx *core.Ctx, v graph.VertexID, msg core.Message) {}
func (m *multicaster) MaxIterations() int                                             { return m.iters }
func (m *multicaster) OnIterationEnd(eng *core.Engine)                                { eng.ActivateAllSeeds() }

func probeMessagePath(out probeResults, raw *graph.Image) error {
	shared, err := memShared(raw)
	if err != nil {
		return err
	}
	run := func(iters int) (core.RunStats, uint64, error) {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st, err := shared.NewRun().Run(&multicaster{iters: iters})
		runtime.ReadMemStats(&m1)
		return st, m1.Mallocs - m0.Mallocs, err
	}
	if _, _, err := run(1); err != nil { // warm the heap
		return err
	}
	st, mallocs, err := run(3)
	if err != nil {
		return err
	}
	if st.Messages == 0 {
		return fmt.Errorf("message-path probe sent no messages")
	}
	out["core.msg_path_ns"] = float64(st.Elapsed) * engineThreads / float64(st.Messages)
	out["core.msg_path_allocs_per_kmsg"] = float64(mallocs) / (float64(st.Messages) / 1e3)
	return nil
}

// probeResult: top-10 selection over a float64 vector of the graph's size.
func probeResult(out probeResults, numV int, n func(int) int) {
	xs := make([]float64, numV)
	x := uint64(1)
	for i := range xs {
		x = x*6364136223846793005 + 1442695040888963407
		xs[i] = float64(x>>11) / (1 << 53)
	}
	rs := result.New("probe")
	rs.AddFloat64("score", xs)
	rounds := n(200)
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := rs.TopK("score", 10, 0); err != nil {
			panic(err)
		}
	}
	out["result.topk_us"] = perOp(time.Since(t0), rounds, time.Microsecond)
}

// probeQoS: MultiQueue push/pop/done in QoS mode and result-cache hits.
func probeQoS(out probeResults, n func(int) int) {
	ops := n(500000)
	q := qos.NewMultiQueue[int](qos.Config{Enabled: true}, serveSlots, 16)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if err := q.Push(qos.ClassInteractive, i); err != nil {
			panic(err)
		}
		_, rank, _ := q.Pop()
		q.Done(rank)
	}
	out["qos.queue_pushpop_ns"] = perOp(time.Since(t0), ops, time.Nanosecond)

	c := qos.NewCache[int](1<<20, func(int) int64 { return 64 })
	keys := make([]qos.Key, 1024)
	for i := range keys {
		keys[i] = qos.Key{Graph: "probe", Algo: "bfs", Params: fmt.Sprintf(`{"src":%d}`, i), Engine: "vertex"}
		c.Put(keys[i], i)
	}
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if _, ok := c.Get(keys[i%len(keys)]); !ok {
			panic("qos probe: cache miss on a resident key")
		}
	}
	out["qos.cache_get_ns"] = perOp(time.Since(t0), ops, time.Nanosecond)
}
