package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// testSize shrinks a workload to a twentieth, so the whole file runs in a
// few seconds and tier-1 stays fast.
func testSize(w workload) int { return w.N / 20 }

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEveryWorkloadEmitsEveryMetric runs each workload at test size with the
// traced pass and checks the contract's output: every defined metric exactly
// once, finite, well named, with its unit, in the right result line.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	probed := measureProbes(1993, 1)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			rep := runWorkload(w, options{Seed: 1993, Traced: true, N: testSize(w)})
			rep.addProbes(probed)
			rep.finish()
			for _, n := range rep.Notes {
				t.Log(n)
			}
			if !rep.Correct {
				t.Errorf("report is not correct")
			}
			if rep.Attempted < 1 || rep.Reps != streams-1 {
				t.Errorf("attempted %d, %d timed reps; want at least 1 and %d", rep.Attempted, rep.Reps, streams-1)
			}
			for _, s := range rep.Systems {
				if s.System != "kernel-lfs" && s.Failed != 0 {
					t.Errorf("%s: %d failed operations", s.System, s.Failed)
				}
			}
			for _, side := range []struct {
				traced bool
				defs   []metricDef
			}{{false, endToEnd}, {true, perLayer}} {
				var line struct {
					Correct   *bool
					Attempted *int64
					Failed    *int64
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				dec := json.NewDecoder(strings.NewReader(rep.resultLine(side.traced)))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatal(err)
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
					t.Fatalf("result line lacks a key: %s", rep.resultLine(side.traced))
				}
				want := 0
				for _, d := range side.defs {
					for _, name := range d.names() {
						want++
						m, ok := line.Metrics[name]
						switch {
						case !ok || m.Value == nil:
							t.Errorf("metric %s missing", name)
						case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
							t.Errorf("metric %s = %v", name, *m.Value)
						case m.Unit != d.Unit:
							t.Errorf("metric %s unit %q, want %q", name, m.Unit, d.Unit)
						case !side.traced && *m.Value == 0:
							t.Errorf("end-to-end metric %s is 0", name)
						}
						if !metricNameRE.MatchString(name) {
							t.Errorf("metric name %q is not a valid name", name)
						}
					}
				}
				if len(line.Metrics) != want {
					t.Errorf("%d metrics in the result line, want %d", len(line.Metrics), want)
				}
			}
			if w.Scanners > 0 && rep.Systems[0].ScanMode != "locking" {
				t.Errorf("user-ffs scans ran %q, want locking", rep.Systems[0].ScanMode)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode fails when BENCHMARK.json and the metric and
// workload definitions drift apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(doc.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command %q", got)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths %v", doc.Paths)
	}
	if float64(doc.RunSeconds) != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %v", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(list string, got []jsonMetric, defs []metricDef, bounded bool) {
		var want []jsonMetric
		for _, d := range defs {
			for _, name := range d.names() {
				m := jsonMetric{Name: name, Unit: d.Unit, Better: d.Better}
				if bounded {
					m.Bound = &d.Bound
				}
				want = append(want, m)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", list, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			same := g.Name == w.Name && g.Unit == w.Unit && g.Better == w.Better && (g.Bound == nil) == (w.Bound == nil)
			if same && w.Bound != nil {
				same = *g.Bound == *w.Bound && *w.Bound > 0 && *w.Bound <= 0.25
			}
			if !same {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, code has %+v", list, i, g, w)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// TestOnlyTheAdapterImportsInternals keeps every import of the program under
// test in rigs.go (and its test).
func TestOnlyTheAdapterImportsInternals(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.Contains(imp.Path.Value, "repro/internal/") && name != "rigs.go" && name != "rigs_test.go" {
				t.Errorf("%s imports %s; only rigs.go may", name, imp.Path.Value)
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	var s []time.Duration
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s = append(s, time.Duration(i))
	}
	// Under 200 samples: the exact nearest-rank quantile.
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile([]time.Duration{7, 3, 5}, 0.5); got != 5 {
		t.Errorf("quantile({7,3,5}, 0.5) = %d, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %d", got)
	}
	// 1000 samples 10, 20, ..., 10000: the window is ranks ±5 around the
	// nearest rank, clipped to the sample.
	s = s[:0]
	for i := 1; i <= 1000; i++ {
		s = append(s, time.Duration(10*i))
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 5000}, {0.99, 9900}, {1, 9975}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(10..10000, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	// Ties at the median no longer hide a shift right beside it.
	a, b := make([]time.Duration, 1000), make([]time.Duration, 1000)
	for i := range a {
		a[i], b[i] = 5, 5
		if i >= 500 {
			a[i], b[i] = 7, 9
		}
	}
	if quantile(a, 0.5) == quantile(b, 0.5) {
		t.Errorf("windowed medians of two samples that differ beside the median agree: %d", quantile(a, 0.5))
	}
}

// TestSpreadMatchesTheDriver checks median and spread against Python's
// statistics.median and statistics.quantiles(xs, n=4).
func TestSpreadMatchesTheDriver(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// quantiles → [2.75, 5.5, 8.25]
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) → [1.5, 4.0, 12.0]
	if got := spread([]float64{16, 1, 4, 2, 8}); math.Abs(got-10.5/4) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 10.5/4)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	tps := metricDef{Better: "higher", Bound: 0.05}
	p99 := metricDef{Better: "lower", Bound: 0.25, Floor: 1}
	layer := metricDef{Better: "lower"}
	for _, c := range []struct {
		d    metricDef
		a, b metricValue
		want string
	}{
		{tps, metricValue{Value: 100}, metricValue{Value: 96}, "ok"},
		{tps, metricValue{Value: 100}, metricValue{Value: 94}, "worse"},
		{tps, metricValue{Value: 100}, metricValue{Value: 120}, "ok"},
		{p99, metricValue{Value: 2}, metricValue{Value: 2.9}, "ok"}, // beyond the bound but under the floor
		{p99, metricValue{Value: 200}, metricValue{Value: 260}, "worse"},
		{p99, metricValue{Value: 200, Spread: 0.3}, metricValue{Value: 260}, "unresolved"},
		{layer, metricValue{Value: 3}, metricValue{Value: 3}, "same"},
		{layer, metricValue{Value: 3}, metricValue{Value: 4}, "moved"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%+v, %v, %v) = %s, want %s", c.d, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

// TestCompareReadsWhatOutWrites round-trips a report through -out and
// -compare.
func TestCompareReadsWhatOutWrites(t *testing.T) {
	rep := report{Workload: workloads[0].Name, EndToEnd: map[string]metricValue{}}
	for _, d := range endToEnd {
		for _, name := range d.names() {
			rep.EndToEnd[name] = metricValue{Value: 2, Unit: d.Unit}
		}
	}
	path := filepath.Join(t.TempDir(), "a.json")
	if err := appendReport(path, report{Workload: rep.Workload}); err != nil {
		t.Fatal(err)
	}
	if err := appendReport(path, rep); err != nil { // -out appends; the last report of a workload wins
		t.Fatal(err)
	}
	var out strings.Builder
	worse, err := compareFiles(&out, path, path)
	if err != nil || worse {
		t.Fatalf("compare a file with itself: worse=%v err=%v\n%s", worse, err, out.String())
	}
	for name := range rep.EndToEnd {
		if !strings.Contains(out.String(), name) {
			t.Errorf("comparison lacks %s:\n%s", name, out.String())
		}
	}
}
