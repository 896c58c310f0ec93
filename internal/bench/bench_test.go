package bench

import (
	"io"
	"strings"
	"testing"
)

// smokeCfg keeps tests fast: tiny graphs, no device throttling.
func smokeCfg() Config {
	return Config{ScaleAdd: -4, NoThrottle: true, Threads: 4}
}

func find(rs []Result, exp, dataset, app, variant string) (Result, bool) {
	for _, r := range rs {
		if r.Exp == exp &&
			(dataset == "" || r.Dataset == dataset) &&
			(app == "" || r.App == app) &&
			(variant == "" || r.Variant == variant) {
			return r, true
		}
	}
	return Result{}, false
}

func TestDatasetsBuild(t *testing.T) {
	cfg := smokeCfg()
	for _, d := range []*Dataset{TwitterSim(cfg), SubdomainSim(cfg), PageSim(cfg)} {
		if d.Img.NumV == 0 || d.Img.NumEdges == 0 {
			t.Fatalf("%s: empty dataset", d.Name)
		}
		if d.Ref().NumEdges() != d.Img.OutIndex.NumEdges() {
			t.Fatalf("%s: CSR/image edge mismatch", d.Name)
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	rs := Table1(smokeCfg(), io.Discard)
	if len(rs) != 3 {
		t.Fatalf("rows = %d", len(rs))
	}
	// The page stand-in must have the largest diameter (the paper's
	// page graph has diameter 650 vs twitter's 23).
	var tw, page float64
	for _, r := range rs {
		switch r.Dataset {
		case "twitter-sim":
			tw = r.Value
		case "page-sim":
			page = r.Value
		}
	}
	// At smoke scale the separation compresses; the full-scale harness
	// asserts the strong "page ≫ twitter" shape (paper: 650 vs 23).
	if page < tw {
		t.Fatalf("page diameter %v should be at least twitter's %v", page, tw)
	}
}

func TestFig8Shapes(t *testing.T) {
	rs := Fig8(smokeCfg(), io.Discard)
	if len(rs) != 12 {
		t.Fatalf("rows = %d, want 12", len(rs))
	}
	for _, r := range rs {
		if r.Value <= 0 {
			t.Fatalf("%s/%s: non-positive relative perf", r.Dataset, r.App)
		}
	}
}

func TestFig9Reports(t *testing.T) {
	rs := Fig9(smokeCfg(), io.Discard)
	// 7 rows: BFS BC WCC PR1 PR2 TC SS.
	if len(rs) != 7 {
		t.Fatalf("rows = %d, want 7", len(rs))
	}
	if _, ok := find(rs, "fig9", "", "PR1", ""); !ok {
		t.Fatal("missing PR1 split")
	}
	if _, ok := find(rs, "fig9", "", "PR2", ""); !ok {
		t.Fatal("missing PR2 split")
	}
}

func TestFig10Shapes(t *testing.T) {
	rs := Fig10(smokeCfg(), io.Discard)
	// 2 datasets x 6 apps x 4 engines.
	if len(rs) != 48 {
		t.Fatalf("rows = %d, want 48", len(rs))
	}
	for _, r := range rs {
		if r.Value <= 0 {
			t.Fatalf("%s/%s/%s: non-positive runtime", r.Dataset, r.App, r.Variant)
		}
	}
}

func TestFig11Shapes(t *testing.T) {
	rs := Fig11(smokeCfg(), io.Discard)
	if _, ok := find(rs, "fig11", "", "BFS", "GraphChi"); ok {
		t.Fatal("GraphChi must not report BFS (paper: no implementation)")
	}
	fg, ok1 := find(rs, "fig11", "", "WCC", "FlashGraph")
	xs, ok2 := find(rs, "fig11", "", "WCC", "X-Stream")
	if !ok1 || !ok2 {
		t.Fatal("missing WCC rows")
	}
	if fg.Value <= 0 || xs.Value <= 0 {
		t.Fatal("non-positive runtimes")
	}
}

func TestTable2Rows(t *testing.T) {
	rs := Table2(smokeCfg(), io.Discard)
	if len(rs) != 6 {
		t.Fatalf("rows = %d, want 6", len(rs))
	}
	for _, r := range rs {
		if r.Extra["mem"] <= 0 {
			t.Fatalf("%s: no memory estimate", r.App)
		}
	}
}

func TestFig12Shapes(t *testing.T) {
	rs := Fig12(smokeCfg(), io.Discard)
	// merge-FG is the baseline: its relative value is exactly 1.
	for _, app := range []string{"BFS", "WCC"} {
		r, ok := find(rs, "fig12", "", app, "merge-FG")
		if !ok || r.Value != 1 {
			t.Fatalf("%s merge-FG = %+v", app, r)
		}
		// merge-SAFS is a bar of its own, not a second copy of
		// "sequential": staging a batch per flush must reach the devices
		// as fewer requests than flushing per edge list.
		seq, _ := find(rs, "fig12", "", app, "sequential")
		sa, _ := find(rs, "fig12", "", app, "merge-SAFS")
		if sa.Extra["device_reads"] >= seq.Extra["device_reads"] {
			t.Fatalf("%s: merge-SAFS issued %v device reads, sequential %v — SAFS merging is not happening",
				app, sa.Extra["device_reads"], seq.Extra["device_reads"])
		}
	}
}

func TestFig13Shapes(t *testing.T) {
	rs := Fig13(smokeCfg(), io.Discard)
	r, ok := find(rs, "fig13", "", "BFS", "4.0KB")
	if !ok || r.Value != 1 {
		t.Fatalf("4KB baseline missing or != 1: %+v", r)
	}
}

func TestFig14Shapes(t *testing.T) {
	rs := Fig14(smokeCfg(), io.Discard)
	// 6 apps x 7 cache sizes.
	if len(rs) != 42 {
		t.Fatalf("rows = %d, want 42", len(rs))
	}
}

func TestAblationsRun(t *testing.T) {
	rs := Ablations(smokeCfg(), io.Discard)
	if len(rs) < 8 {
		t.Fatalf("rows = %d", len(rs))
	}
}

func TestTableOutputIsText(t *testing.T) {
	var sb strings.Builder
	Table1(smokeCfg(), &sb)
	if !strings.Contains(sb.String(), "twitter-sim") {
		t.Fatal("table output missing dataset name")
	}
}
