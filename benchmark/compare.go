package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// loadReports reads a -out file: one report per line, the last report of a
// workload winning.
func loadReports(path string) (map[string]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]report{}
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var r report
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[r.Workload] = r
	}
}

// verdict judges b against a for one metric. A metric with a bound is worse
// when it moved the wrong way by more than the bound (and the floor), and
// unresolved when either side's repetitions spread wider than the bound, so
// the medians cannot carry a verdict. A metric without one is same or moved.
func verdict(d metricDef, a, b metricValue) string {
	if d.Bound == 0 {
		if a.Value == b.Value {
			return "same"
		}
		return "moved"
	}
	if a.Spread > d.Bound || b.Spread > d.Bound {
		return "unresolved"
	}
	loss := b.Value - a.Value
	if d.Better == "higher" {
		loss = -loss
	}
	if loss > d.Bound*math.Abs(a.Value) && loss > d.Floor {
		return "worse"
	}
	return "ok"
}

// compareFiles prints, per workload and metric, both values, the change and
// a verdict, and reports whether any metric is worse. Two sets of runs of one
// commit with one seed must agree exactly on every deterministic metric; the
// summary counts those that do not.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	as, err := loadReports(pathA)
	if err != nil {
		return false, err
	}
	bs, err := loadReports(pathB)
	if err != nil {
		return false, err
	}
	counts := map[string]int{}
	for _, wl := range workloads {
		a, okA := as[wl.Name]
		b, okB := bs[wl.Name]
		if !okA || !okB {
			continue
		}
		fmt.Fprintf(w, "\n== %s: failed %d/%d vs %d/%d ==\n", wl.Name, a.Failed, a.Attempted, b.Failed, b.Attempted)
		a.Host.LoadAvg, b.Host.LoadAvg = "", ""
		if a.Host != b.Host {
			fmt.Fprintf(w, "note: hosts differ (%+v vs %+v): compare only the simulated metrics\n", a.Host, b.Host)
		}
		section := func(defs []metricDef, va, vb map[string]metricValue) {
			for _, d := range defs {
				for _, name := range d.names() {
					x, okX := va[name]
					y, okY := vb[name]
					if !okX || !okY {
						continue
					}
					v := verdict(d, x, y)
					counts[v]++
					if d.Exact && x.Value != y.Value {
						counts["inexact"]++
						v += " (deterministic, yet differs)"
					}
					fmt.Fprintf(w, "  %-44s %14.4f %14.4f %-6s %+8.2f%%  %s\n", name, x.Value, y.Value, d.Unit, 100*per(y.Value-x.Value, math.Abs(x.Value)), v)
				}
			}
		}
		section(endToEnd, a.EndToEnd, b.EndToEnd)
		section(perLayer, a.PerLayer, b.PerLayer)
	}
	fmt.Fprintf(w, "\nwith a bound: %d ok, %d worse, %d unresolved; without: %d same, %d moved; deterministic metrics that differ: %d\n",
		counts["ok"], counts["worse"], counts["unresolved"], counts["same"], counts["moved"], counts["inexact"])
	return counts["worse"] > 0, nil
}
