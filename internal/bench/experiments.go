package bench

import (
	"fmt"
	"io"
	"time"

	"flashgraph/internal/baseline/galois"
	"flashgraph/internal/baseline/graphchi"
	"flashgraph/internal/baseline/xstream"
	"flashgraph/internal/core"
	"flashgraph/internal/util"
)

// Result is one labeled measurement (experiments return these so tests
// can assert on shapes without parsing table text).
type Result struct {
	Exp     string
	Dataset string
	App     string
	Variant string
	Value   float64 // seconds unless the experiment says otherwise
	Extra   map[string]float64
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// Table1 prints the dataset table (paper Table 1): vertices, edges,
// on-SSD size, estimated diameter.
func Table1(cfg Config, w io.Writer) []Result {
	cfg.setDefaults()
	header(w, "Table 1: graph datasets (synthetic stand-ins)")
	fmt.Fprintf(w, "%-15s %10s %12s %10s %9s   %s\n", "dataset", "vertices", "edges", "size", "diameter", "stands in for")
	var out []Result
	for _, d := range []*Dataset{TwitterSim(cfg), SubdomainSim(cfg), PageSim(cfg)} {
		diam := galois.EstimateDiameter(d.Ref(), bfsSource(d.Img))
		fmt.Fprintf(w, "%-15s %10s %12s %10s %9d   %s\n",
			d.Name,
			util.HumanCount(int64(d.Img.NumV)),
			util.HumanCount(d.Img.NumEdges),
			util.HumanBytes(d.Img.DataSize()),
			diam,
			d.Paper,
		)
		out = append(out, Result{
			Exp: "table1", Dataset: d.Name, Value: float64(diam),
			Extra: map[string]float64{
				"vertices": float64(d.Img.NumV),
				"edges":    float64(d.Img.NumEdges),
				"bytes":    float64(d.Img.DataSize()),
			},
		})
	}
	return out
}

// Fig8 measures semi-external-memory FlashGraph (paper's 1GB-cache
// equivalent) relative to in-memory FlashGraph across all six apps on
// the twitter and subdomain stand-ins. Paper: up to 80% of in-memory,
// worst cases (BFS, TC on subdomain) above 40%.
func Fig8(cfg Config, w io.Writer) []Result {
	cfg.setDefaults()
	header(w, "Figure 8: SEM (1GB-equiv cache) relative to in-memory FlashGraph")
	fmt.Fprintf(w, "%-15s", "dataset")
	for _, app := range Apps {
		fmt.Fprintf(w, " %8s", app)
	}
	fmt.Fprintln(w)
	var out []Result
	for _, d := range []*Dataset{TwitterSim(cfg), SubdomainSim(cfg)} {
		fmt.Fprintf(w, "%-15s", d.Name)
		for _, app := range Apps {
			// Warm-up run absorbs first-touch allocation costs; the
			// ratio uses the steady-state measurement.
			if _, err := runMem(cfg, d, app); err != nil {
				panic(err)
			}
			mem, err := runMem(cfg, d, app)
			if err != nil {
				panic(err)
			}
			sem, err := runSEM(cfg, d, app, d.CacheFrac1G)
			if err != nil {
				panic(err)
			}
			rel := mem.Elapsed.Seconds() / sem.Elapsed.Seconds()
			fmt.Fprintf(w, " %8.2f", rel)
			out = append(out, Result{Exp: "fig8", Dataset: d.Name, App: app, Value: rel,
				Extra: map[string]float64{
					"mem_s": mem.Elapsed.Seconds(),
					"sem_s": sem.Elapsed.Seconds(),
				}})
		}
		fmt.Fprintln(w)
	}
	return out
}

// Fig9 reports CPU and I/O utilization per app on the subdomain
// stand-in (PR split into its first and last 15 iterations). Paper:
// most apps saturate CPU before I/O; BFS is I/O bound; TC stresses
// both.
func Fig9(cfg Config, w io.Writer) []Result {
	cfg.setDefaults()
	header(w, "Figure 9: CPU and I/O utilization (subdomain-sim, SEM)")
	fmt.Fprintf(w, "%-6s %8s %12s %10s %10s\n", "app", "CPU%", "MB/s", "IOPS", "hit-rate")
	d := SubdomainSim(cfg)
	var out []Result
	emit := func(name string, st core.RunStats) {
		mbs := st.IOThroughput() / (1 << 20)
		fmt.Fprintf(w, "%-6s %8.1f %12.1f %10.0f %10.2f\n",
			name, st.CPUUtil*100, mbs, st.IOPS(), st.CacheHitRate())
		out = append(out, Result{Exp: "fig9", Dataset: d.Name, App: name, Value: st.CPUUtil,
			Extra: map[string]float64{
				"mbps": mbs, "iops": st.IOPS(), "hit": st.CacheHitRate(),
			}})
	}
	for _, app := range []string{"BFS", "BC", "WCC"} {
		st, err := runSEM(cfg, d, app, d.CacheFrac1G)
		if err != nil {
			panic(err)
		}
		emit(app, st)
	}
	pr1, pr2, err := prPhases(cfg, d, d.CacheFrac1G)
	if err != nil {
		panic(err)
	}
	emit("PR1", pr1)
	emit("PR2", pr2)
	for _, app := range []string{"TC", "SS"} {
		st, err := runSEM(cfg, d, app, d.CacheFrac1G)
		if err != nil {
			panic(err)
		}
		emit(app, st)
	}
	return out
}

// Fig10 compares FG-mem, FG-1G, PowerGraph, and Galois runtimes on the
// six apps over both small graphs. Paper: FlashGraph (both modes)
// comparable to Galois, significantly faster than PowerGraph.
func Fig10(cfg Config, w io.Writer) []Result {
	cfg.setDefaults()
	header(w, "Figure 10: runtime (s) of graph engines")
	var out []Result
	for _, d := range []*Dataset{TwitterSim(cfg), SubdomainSim(cfg)} {
		fmt.Fprintf(w, "--- %s ---\n", d.Name)
		fmt.Fprintf(w, "%-6s %12s %12s %12s %12s\n", "app", "FG-mem", "FG-1G", "PowerGraph", "Galois")
		for _, app := range Apps {
			mem, err := runMem(cfg, d, app)
			if err != nil {
				panic(err)
			}
			sem, err := runSEM(cfg, d, app, d.CacheFrac1G)
			if err != nil {
				panic(err)
			}
			pg, err := runPowerGraph(cfg, d, app)
			if err != nil {
				panic(err)
			}
			gal, err := runGalois(d, app)
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(w, "%-6s %12.4f %12.4f %12.4f %12.4f\n",
				app, mem.Elapsed.Seconds(), sem.Elapsed.Seconds(), pg.Seconds(), gal.Seconds())
			for _, v := range []struct {
				variant string
				secs    float64
			}{
				{"FG-mem", mem.Elapsed.Seconds()},
				{"FG-1G", sem.Elapsed.Seconds()},
				{"PowerGraph", pg.Seconds()},
				{"Galois", gal.Seconds()},
			} {
				out = append(out, Result{Exp: "fig10", Dataset: d.Name, App: app, Variant: v.variant, Value: v.secs})
			}
		}
	}
	return out
}

// Fig11 compares FlashGraph (SEM) with the external-memory engines
// GraphChi and X-Stream on the twitter stand-in: runtime and memory.
// Paper: FlashGraph wins by 1–2 orders of magnitude; GraphChi has no
// BFS.
func Fig11(cfg Config, w io.Writer) []Result {
	cfg.setDefaults()
	header(w, "Figure 11: FlashGraph vs external-memory engines (twitter-sim)")
	fmt.Fprintf(w, "%-6s %14s %14s %14s   %s\n", "app", "FlashGraph", "GraphChi", "X-Stream", "(runtime s / memory)")
	d := TwitterSim(cfg)
	var out []Result
	type meas struct {
		secs float64
		mem  int64
		na   bool
	}
	row := func(app string) (fg, gc, xs meas) {
		st, err := runSEM(cfg, d, app, d.CacheFrac1G)
		if err != nil {
			panic(err)
		}
		fg = meas{secs: st.Elapsed.Seconds(), mem: st.MemoryBytes}

		// GraphChi.
		if app == "BFS" {
			gc.na = true
		} else {
			fs, arr := newFS(cfg, 1<<20, 0)
			e, err := graphchi.New(d.Img, fs, "gc", cfg.Threads)
			if err != nil {
				panic(err)
			}
			start := time.Now()
			switch app {
			case "WCC":
				_, err = e.WCC()
			case "PR":
				_, err = e.PageRank(30, 0.85, 1e-7)
			case "TC":
				_, err = e.TriangleCount()
			}
			if err != nil {
				panic(err)
			}
			gc = meas{secs: time.Since(start).Seconds(),
				mem: int64(e.ChunkBytes)*2 + int64(d.Img.NumV)*24}
			if app == "TC" {
				gc.mem += e.MemBudget / 4
			}
			arr.Close()
		}

		// X-Stream.
		fs, arr := newFS(cfg, 1<<20, 0)
		e, err := xstream.New(d.Img, fs, "xs", cfg.Threads)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		switch app {
		case "BFS":
			_, err = e.BFS(bfsSource(d.Img))
		case "WCC":
			_, err = e.WCC()
		case "PR":
			_, err = e.PageRank(30, 0.85, 1e-7)
		case "TC":
			_, err = e.TriangleCount()
		}
		if err != nil {
			panic(err)
		}
		xs = meas{secs: time.Since(start).Seconds(),
			mem: int64(e.ChunkBytes) + int64(d.Img.NumV)*40}
		if app == "TC" {
			xs.mem += e.MemBudget / 4
		}
		arr.Close()
		return
	}
	for _, app := range []string{"BFS", "WCC", "PR", "TC"} {
		fg, gc, xs := row(app)
		gcs := fmt.Sprintf("%8.3f/%s", gc.secs, util.HumanBytes(gc.mem))
		if gc.na {
			gcs = "n/a"
		}
		fmt.Fprintf(w, "%-6s %14s %14s %14s\n", app,
			fmt.Sprintf("%8.3f/%s", fg.secs, util.HumanBytes(fg.mem)),
			gcs,
			fmt.Sprintf("%8.3f/%s", xs.secs, util.HumanBytes(xs.mem)))
		out = append(out,
			Result{Exp: "fig11", App: app, Variant: "FlashGraph", Value: fg.secs, Extra: map[string]float64{"mem": float64(fg.mem)}})
		if !gc.na {
			out = append(out, Result{Exp: "fig11", App: app, Variant: "GraphChi", Value: gc.secs, Extra: map[string]float64{"mem": float64(gc.mem)}})
		}
		out = append(out, Result{Exp: "fig11", App: app, Variant: "X-Stream", Value: xs.secs, Extra: map[string]float64{"mem": float64(xs.mem)}})
	}
	return out
}

// Table2 runs all six apps on the page-graph stand-in (clustered,
// largest dataset) with the 4GB-equivalent cache: runtime, image load
// (init) time, memory footprint. Paper: BFS under 5 minutes on 3.4B
// vertices with 22GB of memory.
func Table2(cfg Config, w io.Writer) []Result {
	cfg.setDefaults()
	header(w, "Table 2: page-sim (clustered web stand-in), SEM")
	fmt.Fprintf(w, "%-6s %12s %12s %12s\n", "app", "runtime(s)", "init(s)", "memory")
	d := PageSim(cfg)
	var out []Result
	for _, app := range Apps {
		fs, arr := newFS(cfg, cacheBytesFor(d, d.CacheFrac1G, 0), 0)
		ec := engineConfig(cfg)
		ec.FS = fs
		eng, err := core.NewEngine(d.Img, ec)
		if err != nil {
			panic(err)
		}
		st, err := eng.Run(newAlg(app, d.Img))
		if err != nil {
			panic(err)
		}
		arr.Close()
		fmt.Fprintf(w, "%-6s %12.4f %12.4f %12s\n",
			app, st.Elapsed.Seconds(), eng.LoadTime().Seconds(), util.HumanBytes(st.MemoryBytes))
		out = append(out, Result{Exp: "table2", Dataset: d.Name, App: app, Value: st.Elapsed.Seconds(),
			Extra: map[string]float64{"init_s": eng.LoadTime().Seconds(), "mem": float64(st.MemoryBytes)}})
	}
	return out
}

// Fig12 is the sequential-I/O ablation on BFS and WCC: random execution
// order, ID order without merging, merging in SAFS, merging in
// FlashGraph (all relative to the last). Paper: merging in FlashGraph
// beats SAFS merging by 40% (BFS) and >100% (WCC); random order is far
// behind.
func Fig12(cfg Config, w io.Writer) []Result {
	cfg.setDefaults()
	header(w, "Figure 12: preserving sequential I/O (relative to merge-in-FG)")
	fmt.Fprintf(w, "%-6s %10s %12s %12s %10s\n", "app", "random", "sequential", "merge-SAFS", "merge-FG")
	d := SubdomainSim(cfg)
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"random", func(c *core.Config) { c.Sched = core.SchedRandom; c.Merge = core.MergeNone }},
		{"sequential", func(c *core.Config) { c.Merge = core.MergeNone }},
		{"merge-SAFS", func(c *core.Config) { c.Merge = core.MergeSAFS }},
		{"merge-FG", func(c *core.Config) { c.Merge = core.MergeFG }},
	}
	var out []Result
	for _, app := range []string{"BFS", "WCC"} {
		runs := make([]core.RunStats, len(variants))
		for i, v := range variants {
			st, err := runSEMPage(cfg, d, app, d.CacheFrac1G, 0, v.mutate)
			if err != nil {
				panic(err)
			}
			runs[i] = st
		}
		base := runs[len(runs)-1].Elapsed.Seconds()
		fmt.Fprintf(w, "%-6s", app)
		for i, v := range variants {
			rel := base / runs[i].Elapsed.Seconds()
			fmt.Fprintf(w, " %10.2f", rel)
			out = append(out, Result{Exp: "fig12", Dataset: d.Name, App: app, Variant: v.name, Value: rel,
				Extra: map[string]float64{
					"seconds":      runs[i].Elapsed.Seconds(),
					"device_reads": float64(runs[i].DeviceReads),
				}})
		}
		fmt.Fprintln(w)
	}
	return out
}

// Fig13 sweeps the SAFS page size from 1KB to 1MB on BFS, WCC, and TC.
// Paper: 4KB is the sweet spot; 1MB pages collapse BFS and TC to a
// small fraction of peak.
func Fig13(cfg Config, w io.Writer) []Result {
	cfg.setDefaults()
	header(w, "Figure 13: SAFS page size sweep (relative to 4KB)")
	sizes := []int{1 << 10, 2 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}
	fmt.Fprintf(w, "%-6s", "app")
	for _, ps := range sizes {
		fmt.Fprintf(w, " %9s", util.HumanBytes(int64(ps)))
	}
	fmt.Fprintln(w)
	d := SubdomainSim(cfg)
	// The paper's sweep keeps the cache at 1GB for every page size; the
	// equivalent here is a fixed byte budget independent of page size.
	cacheBytes := int64(d.CacheFrac1G * float64(d.Img.DataSize()))
	var out []Result
	for _, app := range []string{"BFS", "WCC", "TC"} {
		times := make([]float64, len(sizes))
		var base float64
		for i, ps := range sizes {
			st, err := runSEMBytes(cfg, d, app, cacheBytes, ps, nil)
			if err != nil {
				panic(err)
			}
			times[i] = st.Elapsed.Seconds()
			if ps == 4<<10 {
				base = times[i]
			}
		}
		fmt.Fprintf(w, "%-6s", app)
		for i, ps := range sizes {
			rel := base / times[i]
			fmt.Fprintf(w, " %9.2f", rel)
			out = append(out, Result{Exp: "fig13", Dataset: d.Name, App: app,
				Variant: util.HumanBytes(int64(ps)), Value: rel,
				Extra: map[string]float64{"seconds": times[i]}})
		}
		fmt.Fprintln(w)
	}
	return out
}

// Fig14 sweeps the page-cache size from 1/64 of the graph to the full
// graph, all six apps, relative to the largest cache. Paper: with a 1GB
// cache every app keeps >= 65% of its 32GB-cache performance;
// FlashGraph degrades smoothly into an in-memory engine.
func Fig14(cfg Config, w io.Writer) []Result {
	cfg.setDefaults()
	header(w, "Figure 14: page cache size sweep (relative to full-size cache)")
	fracs := []float64{1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1}
	fmt.Fprintf(w, "%-6s", "app")
	for _, f := range fracs {
		fmt.Fprintf(w, " %8.3f", f)
	}
	fmt.Fprintln(w)
	d := SubdomainSim(cfg)
	var out []Result
	for _, app := range Apps {
		times := make([]float64, len(fracs))
		for i, f := range fracs {
			st, err := runSEM(cfg, d, app, f)
			if err != nil {
				panic(err)
			}
			times[i] = st.Elapsed.Seconds()
		}
		base := times[len(times)-1]
		fmt.Fprintf(w, "%-6s", app)
		for i, f := range fracs {
			rel := base / times[i]
			fmt.Fprintf(w, " %8.2f", rel)
			out = append(out, Result{Exp: "fig14", Dataset: d.Name, App: app,
				Variant: fmt.Sprintf("%.3f", f), Value: rel,
				Extra: map[string]float64{"seconds": times[i]}})
		}
		fmt.Fprintln(w)
	}
	return out
}

// Ablations benches the engine's design knobs: the running-vertex cap
// (the paper's 4000), the range-partition granule, vertical partitioning
// for TC, and work stealing.
func Ablations(cfg Config, w io.Writer) []Result {
	cfg.setDefaults()
	header(w, "Ablations: engine design knobs (runtime s)")
	d := SubdomainSim(cfg)
	var out []Result
	record := func(name, variant string, secs float64) {
		fmt.Fprintf(w, "%-24s %-10s %10.4f\n", name, variant, secs)
		out = append(out, Result{Exp: "ablation", App: name, Variant: variant, Value: secs})
	}
	for _, mr := range []int{64, 512, 4000} {
		st, err := runSEMPage(cfg, d, "BFS", d.CacheFrac1G, 0, func(c *core.Config) { c.MaxRunning = mr })
		if err != nil {
			panic(err)
		}
		record("max-running(BFS)", fmt.Sprint(mr), st.Elapsed.Seconds())
	}
	for _, r := range []uint{4, 6, 10} {
		st, err := runSEMPage(cfg, d, "PR", d.CacheFrac1G, 0, func(c *core.Config) { c.RangeShift = r })
		if err != nil {
			panic(err)
		}
		record("range-shift(PR)", fmt.Sprint(r), st.Elapsed.Seconds())
	}
	for _, steal := range []bool{true, false} {
		st, err := runSEMPage(cfg, d, "TC", d.CacheFrac1G, 0, func(c *core.Config) { c.NoWorkStealing = !steal })
		if err != nil {
			panic(err)
		}
		record("work-stealing(TC)", fmt.Sprint(steal), st.Elapsed.Seconds())
	}
	for _, sweep := range []bool{true, false} {
		st, err := runSEMPage(cfg, d, "WCC", d.CacheFrac1G, 0, func(c *core.Config) { c.NoAlternateSweep = !sweep })
		if err != nil {
			panic(err)
		}
		record("alt-sweep(WCC)", fmt.Sprint(sweep), st.Elapsed.Seconds())
	}
	return out
}

// RunAll executes every experiment in paper order.
func RunAll(cfg Config, w io.Writer) {
	Table1(cfg, w)
	Fig8(cfg, w)
	Fig9(cfg, w)
	Fig10(cfg, w)
	Fig11(cfg, w)
	Table2(cfg, w)
	Fig12(cfg, w)
	Fig13(cfg, w)
	Fig14(cfg, w)
	Ablations(cfg, w)
}
