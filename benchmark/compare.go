package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// compareLedgers prints, per workload × end-to-end metric, both sides'
// medians and quartiles, the change with its base, the bound, and a
// verdict:
//
//	unresolved  the spread (the wider side's quartile distance over the
//	            old median) exceeds the bound, or a side has one sample
//	            and the change exceeds the bound: the data cannot tell
//	worse       the new median is worse by more than the bound
//	better      the new median is better by more than that spread
//	within      anything else
//
// A side's sample is one value per run when the ledger holds at least
// three runs of the workload, otherwise the per-pass samples of its runs.
// It then lists the per-layer rows that moved most, and flags the pair
// when the machine check differs by more than 10%.
func compareLedgers(w io.Writer, oldPath, newPath string) error {
	oldL, err := readLedger(oldPath)
	if err != nil {
		return err
	}
	newL, err := readLedger(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old: %s (%d runs)\nnew: %s (%d runs)\n", oldPath, len(oldL.Runs), newPath, len(newL.Runs))
	verdicts := map[string]int{}
	for _, spec := range workloads {
		o, n := runsOf(oldL, spec.name), runsOf(newL, spec.name)
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s  (old %d runs, new %d runs; failed old %d, new %d)\n", spec.name, len(o), len(n), failedOf(o), failedOf(n))
		fmt.Fprintf(w, "  %-14s %12s %22s %12s %22s %9s %7s  %s\n", "metric", "old median", "[q1, q3]", "new median", "[q1, q3]", "change", "bound", "verdict")
		if failedOf(n) > failedOf(o) {
			fmt.Fprintf(w, "  failed_frac rose: %d → %d failed queries — worse\n", failedOf(o), failedOf(n))
			verdicts["worse"]++
		}
		for _, d := range endToEndDecls {
			olds, news := samplesOf(o, d.Name, false), samplesOf(n, d.Name, false)
			if len(olds) == 0 || len(news) == 0 {
				continue
			}
			om, nm := median(olds), median(news)
			oq1, oq3 := quartiles(olds)
			nq1, nq3 := quartiles(news)
			change := ratio(nm-om, om)
			if d.Better == "higher" {
				change = -change
			}
			spread := ratio(math.Max(oq3-oq1, nq3-nq1), om)
			verdict := "within"
			switch {
			case len(olds) < 2 || len(news) < 2:
				// One sample a side has no spread: a change past the
				// bound either way cannot be told from noise.
				if math.Abs(change) > d.Bound {
					verdict = "unresolved"
				}
			case spread > d.Bound:
				verdict = "unresolved"
			case change > d.Bound:
				verdict = "worse"
			case change < 0 && -change > spread:
				verdict = "better"
			}
			verdicts[verdict]++
			fmt.Fprintf(w, "  %-14s %12.5g %22s %12.5g %22s %+8.1f%% %6.0f%%  %s (base %.5g %s, spread %.1f%%, n=%d/%d)\n",
				d.Name, om, fmt.Sprintf("[%.5g, %.5g]", oq1, oq3), nm, fmt.Sprintf("[%.5g, %.5g]", nq1, nq3),
				100*change, 100*d.Bound, verdict, om, d.Unit, 100*spread, len(olds), len(news))
		}

		// Per-layer rows that moved most, by relative change of the medians.
		type move struct {
			name, unit string
			o, n, rel  float64
		}
		var moves []move
		for _, d := range perLayerDecls {
			olds, news := samplesOf(o, d.Name, true), samplesOf(n, d.Name, true)
			if len(olds) == 0 || len(news) == 0 {
				continue
			}
			om, nm := median(olds), median(news)
			if om == 0 && nm == 0 {
				continue
			}
			rel := math.Inf(1)
			if om != 0 {
				rel = (nm - om) / math.Abs(om)
			}
			moves = append(moves, move{d.Name, d.Unit, om, nm, rel})
		}
		sort.SliceStable(moves, func(i, j int) bool { return math.Abs(moves[i].rel) > math.Abs(moves[j].rel) })
		if len(moves) > 0 {
			fmt.Fprintf(w, "  per-layer rows that moved most:\n")
			for i, m := range moves {
				if i == 10 {
					break
				}
				fmt.Fprintf(w, "    %-34s %12.5g → %-12.5g %-6s %+8.1f%% (base %.5g)\n", m.name, m.o, m.n, m.unit, 100*m.rel, m.o)
			}
			for _, name := range exactRepeat {
				olds, news := samplesOf(o, name, true), samplesOf(n, name, true)
				if spec.serve || len(olds) == 0 || len(news) == 0 {
					continue
				}
				if !sameSeeds(o, n) {
					break
				}
				if median(olds) != median(news) {
					fmt.Fprintf(w, "    exact-repeat counter %s differs: %.0f → %.0f\n", name, median(olds), median(news))
				}
			}
			oc, nc := median(samplesOf(o, "machine.chase_ms", true)), median(samplesOf(n, "machine.chase_ms", true))
			if oc > 0 && math.Abs(nc-oc)/oc > 0.10 {
				fmt.Fprintf(w, "  MACHINE DIFFERS: machine.chase_ms %.1f → %.1f ms (%+.0f%%): the two sides did not run on an equally fast box\n", oc, nc, 100*(nc-oc)/oc)
			}
		}
	}
	fmt.Fprintf(w, "\nverdicts: %d better, %d within, %d worse, %d unresolved\n", verdicts["better"], verdicts["within"], verdicts["worse"], verdicts["unresolved"])
	return nil
}

func runsOf(l *ledger, workload string) []*runResult {
	var out []*runResult
	for _, r := range l.Runs {
		if r.Workload == workload {
			out = append(out, r)
		}
	}
	return out
}

func failedOf(runs []*runResult) int {
	n := 0
	for _, r := range runs {
		n += r.Failed
	}
	return n
}

func sameSeeds(a, b []*runResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seed != b[i].Seed {
			return false
		}
	}
	return true
}

// samplesOf gathers a metric's sample across runs: one value per run
// given three or more runs (or a metric without per-pass samples),
// else the per-pass samples.
func samplesOf(runs []*runResult, name string, layer bool) []float64 {
	var perRun, perPass []float64
	for _, r := range runs {
		vals := r.EndToEnd
		if layer {
			vals = r.PerLayer
		}
		m, ok := vals[name]
		if !ok {
			continue
		}
		perRun = append(perRun, m.Value)
		perPass = append(perPass, m.Samples...)
	}
	if len(perRun) >= 3 || len(perPass) == 0 {
		return perRun
	}
	return perPass
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (exclusive method); a sample
// of one has no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}
