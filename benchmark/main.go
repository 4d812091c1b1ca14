// Command benchmark is this repository's benchmark: four TPC-B workloads,
// each run on the paper's three systems, reporting 10 end-to-end metrics
// (simulated throughput and latency per system, and the host's set-up time)
// and 118 single-layer metrics — counts, simulated-time shares, host time and
// allocation, probes — that say which layer moved them. README.md in this
// directory is the glossary.
//
//	go run ./benchmark                                   all four workloads, every metric
//	go run ./benchmark -workload contended -trace 0      one workload, end-to-end metrics only
//	go run ./benchmark -quick                            smoke size, about 16 s
//	go run ./benchmark -out a.json ; ... -out b.json     record two sets of runs
//	go run ./benchmark -compare a.json b.json            and compare them against the bounds
//
// The driver's contract: with -workload, the last line of standard output is
// one JSON object {correct, attempted, failed, metrics}; the metrics are the
// end-to-end ones under -trace 0 and the per-layer ones under -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is the -seconds default and BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// options are the knobs of one benchmark run.
type options struct {
	Seed     uint64
	Seconds  float64 // wall budget of the timed repetitions (each stream runs once regardless)
	Traced   bool    // add the traced pass and the probes; report per-layer metrics
	N        int     // transaction-count override; 0 = the workload's own
	TraceDir string  // where the traced pass writes Chrome traces; "" = nowhere
}

// report is one workload's result: what -out appends (one JSON object per
// line) and -compare reads.
type report struct {
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Seed      uint64                 `json:"seed"`
	N         int                    `json:"n"`
	MPL       int                    `json:"mpl"`
	Reps      int                    `json:"timed_reps"`
	Host      hostInfo               `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Notes     []string               `json:"notes,omitempty"`
	Systems   []systemReport         `json:"systems"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

// systemReport is the per-system part that is not a metric.
type systemReport struct {
	System    string    `json:"system"`
	Passes    int       `json:"passes"`
	Ops       int64     `json:"ops"`
	Failed    int64     `json:"failed"`
	AuditBad  int64     `json:"audit_bad_rows"`
	ScanMode  string    `json:"scan_mode,omitempty"`
	Signature signature `json:"signature"`
}

// hostInfo fingerprints the machine, so wall numbers are only ever compared
// between runs on the same host.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"load_avg_at_start"`
}

func readHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       os.Getenv("GOGC"),
		GoVersion:  runtime.Version(),
	}
	if h.GOGC == "" {
		h.GOGC = "100"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.Join(strings.Fields(string(b))[:3], " ")
	}
	return h
}

// runWorkload runs every pass of one workload — a warm-up, the timed
// repetitions, and with opt.Traced the traced pass — and turns them into a
// report, which the caller completes with addProbes and finish. The system
// loop is inside the repetition loop, so a noisy burst on a shared host hits
// one repetition of each system instead of every repetition of one.
func runWorkload(w workload, opt options) report {
	if opt.N > 0 {
		w = w.withN(opt.N)
	}
	rep := report{
		Workload: w.Name, Why: w.Why, Seed: opt.Seed, N: w.N, MPL: w.MPL,
		Host: readHost(), Correct: true,
		EndToEnd: map[string]metricValue{},
	}
	runs := make([]systemRuns, len(systems))
	for i, kind := range systems {
		runs[i].system = kind
	}
	pass := func(stream int, traced bool) {
		for i, kind := range systems {
			p := runPass(w, kind, opt.Seed, stream, traced, opt.TraceDir)
			if traced {
				runs[i].traced = &p
			} else {
				runs[i].passes = append(runs[i].passes, p)
			}
		}
	}

	// The warm-up is stream 0, so the timed repetitions start at stream 1
	// and every stream has run once after streams-1 of them.
	pass(0, false)
	budget := time.Duration(opt.Seconds * float64(time.Second))
	start := wallNow()
	for {
		repStart := wallNow()
		rep.Reps++
		pass(rep.Reps%streams, false)
		// Stop before the repetition that would overrun the budget.
		now := wallNow()
		if rep.Reps >= streams-1 && now.Sub(start)+now.Sub(repStart) > budget {
			break
		}
	}
	if opt.Traced {
		pass(0, true)
	}

	var setups []float64
	for r := 1; r <= rep.Reps; r++ {
		var sum time.Duration
		for i := range systems {
			sum += runs[i].passes[r].SetupWall
		}
		setups = append(setups, sum.Seconds())
	}
	rep.EndToEnd["setup_s"] = metricValue{Value: median(setups), Spread: spread(setups)}
	if opt.Traced {
		rep.PerLayer = map[string]metricValue{}
	}
	for i := range systems {
		rep.Systems = append(rep.Systems, selfCheck(&rep, runs[i]))
		runs[i].endToEndValues(rep.EndToEnd)
		if opt.Traced {
			runs[i].perLayerValues(rep.PerLayer)
		}
	}
	if opt.Traced {
		rep.PerLayer["host.peak_rss_mb"] = metricValue{Value: peakRSSMB()}
	}
	return rep
}

// selfCheck folds one system's passes into the report. Operations attempted
// and failed, hard errors and the audit's findings are taken from the first
// pass of each stream, so they do not depend on how many repetitions fitted
// the time budget. Every later pass of the stream, warm-up and traced
// included, must reproduce that first pass exactly; one that does not is no
// measurement, and all its operations are added as attempted and failed.
func selfCheck(rep *report, r systemRuns) systemReport {
	passes := r.passes
	if r.traced != nil {
		passes = append(slices.Clone(passes), *r.traced)
	}
	sr := systemReport{System: r.system, Passes: len(passes), ScanMode: passes[0].ScanMode, Signature: passes[0].signature()}
	first := map[int]passRecord{}
	for i, p := range passes {
		f, seen := first[p.Stream]
		if !seen {
			first[p.Stream] = p
			sr.Ops += int64(p.N)
			sr.Failed += p.Failed
			sr.AuditBad += p.AuditBad
			if p.Err != "" {
				rep.note("%s stream %d: %d of %d transactions committed, then: %s", r.system, p.Stream, p.Committed, p.N, p.Err)
			}
			if p.AuditBad > 0 {
				rep.note("%s stream %d audit: %d wrong rows, first: %s", r.system, p.Stream, p.AuditBad, p.AuditFirst)
			}
		} else if d := f.signature().diff(p.signature()); d != "" || f.Err != p.Err {
			rep.Correct = false
			sr.Ops += int64(p.N)
			sr.Failed += int64(p.N)
			rep.note("%s pass %d (stream %d, traced=%v) does not reproduce the stream's first pass:%s %s", r.system, i, p.Stream, p.Traced, d, p.Err)
		}
	}
	rep.Attempted += sr.Ops
	rep.Failed += sr.Failed
	return sr
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// finish completes the report: it stamps units onto the computed values and
// checks that exactly the defined metrics came out, each finite and each
// end-to-end one above zero. Anything else means no pass measured it, and
// makes the report incorrect (the value is zeroed so the JSON stays valid).
func (r *report) finish() {
	r.finishList(endToEnd, r.EndToEnd, true)
	if r.PerLayer != nil {
		r.finishList(perLayer, r.PerLayer, false)
	}
}

func (r *report) finishList(defs []metricDef, values map[string]metricValue, nonZero bool) {
	want := 0
	for _, d := range defs {
		for _, name := range d.names() {
			want++
			v, ok := values[name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (nonZero && v.Value == 0) {
				r.Correct = false
				r.note("metric %s: missing, not finite, or an end-to-end metric that is 0", name)
				v.Value = 0
			}
			v.Unit = d.Unit
			values[name] = v
		}
	}
	if len(values) != want {
		r.Correct = false
		r.note("%d metrics computed, %d defined", len(values), want)
	}
}

// probe is one single-layer micro-measurement; run returns the number of
// operations it performed.
type probe struct {
	name string
	run  func() int
}

// probeRounds is how often each probe runs; the median is reported.
const probeRounds = 3

// measureProbes runs every single-layer probe rounds times and returns the
// median wall nanoseconds and heap allocations per operation of each.
func measureProbes(seed uint64, rounds int) map[string]metricValue {
	out := map[string]metricValue{}
	var m0, m1 runtime.MemStats
	for _, pr := range probes(seed) {
		var ns, allocs []float64
		for i := 0; i < rounds; i++ {
			runtime.GC()
			runtime.ReadMemStats(&m0)
			start := wallNow()
			ops := pr.run()
			wall := wallNow().Sub(start)
			runtime.ReadMemStats(&m1)
			ns = append(ns, per(wall.Nanoseconds(), ops))
			allocs = append(allocs, per(int64(m1.Mallocs-m0.Mallocs), ops))
		}
		out[pr.name+"_ns"] = metricValue{Value: median(ns), Spread: spread(ns)}
		out[pr.name+"_allocs"] = metricValue{Value: median(allocs)}
	}
	return out
}

// addProbes adds the probes' results to a traced report's per-layer metrics.
func (r *report) addProbes(values map[string]metricValue) { maps.Copy(r.PerLayer, values) }

// peakRSSMB is the process's high-water resident set. Each workload runs in
// its own process, so this is one workload's peak.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// print writes the human-readable table: every metric by name with its unit.
func (r report) print() {
	fmt.Printf("\n== %s (seed %d, N=%d, MPL %d, %d timed reps) ==\n%s\n", r.Workload, r.Seed, r.N, r.MPL, r.Reps, r.Why)
	for _, s := range r.Systems {
		mode := ""
		if s.ScanMode != "" {
			mode = ", scans ran " + s.ScanMode
		}
		fmt.Printf("  %-10s ops %d failed %d (audit: %d wrong rows)%s; sim %d ns, %d dispatches, %d retries\n",
			s.System, s.Ops, s.Failed, s.AuditBad, mode, s.Signature.SimNS, s.Signature.Dispatches, s.Signature.Retries)
	}
	table := func(title string, defs []metricDef, values map[string]metricValue) {
		fmt.Printf("%s:\n", title)
		for _, d := range defs {
			for _, name := range d.names() {
				v := values[name]
				line := fmt.Sprintf("  %-44s %14.4f %s", name, v.Value, v.Unit)
				if v.Spread > 0 {
					line += fmt.Sprintf("  (spread %.1f%%)", 100*v.Spread)
				}
				fmt.Println(line)
			}
		}
	}
	table("end to end", endToEnd, r.EndToEnd)
	if r.PerLayer != nil {
		table("per layer", perLayer, r.PerLayer)
	}
	for _, n := range r.Notes {
		fmt.Printf("note: %s\n", n)
	}
	fmt.Printf("ops %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
}

// resultLine is the driver's one-line summary.
func (r report) resultLine(traced bool) string {
	values := r.EndToEnd
	if traced {
		values = r.PerLayer
	}
	type unitValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]unitValue{}
	for name, v := range values {
		metrics[name] = unitValue{v.Value, v.Unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		fatal(err)
	}
	return string(b)
}

// appendReport appends the report to path as one line of JSON.
func appendReport(path string, r report) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// describe prints BENCHMARK.json from the definitions in this package, so
// the file is generated, not hand-kept; a test fails when the two differ.
func describe() {
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type jsonWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []jsonWorkload `json:"workloads"`
		EndToEnd   []jsonMetric   `json:"end_to_end"`
		PerLayer   []jsonMetric   `json:"per_layer"`
	}{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, jsonWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		for _, name := range d.names() {
			doc.EndToEnd = append(doc.EndToEnd, jsonMetric{name, d.Unit, d.Better, &d.Bound})
		}
	}
	for _, d := range perLayer {
		for _, name := range d.names() {
			doc.PerLayer = append(doc.PerLayer, jsonMetric{name, d.Unit, d.Better, nil})
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: serial, contended, cleaning, mixed-scan; empty = all four, each in its own process")
		seed     = flag.Uint64("seed", 1993, "workload seed (tpcb.Config.Seed): the same seed gives the same transactions")
		seconds  = flag.Float64("seconds", defaultSeconds, "wall seconds of timed repetitions per workload")
		trace    = flag.Int("trace", 1, "1 = add the traced pass and the probes and report per-layer metrics; 0 = end-to-end metrics only")
		out      = flag.String("out", "", "append each workload's full report to this file, one JSON object per line")
		quick    = flag.Bool("quick", false, "smoke size: a tenth of the transactions, one pass per stream, one round per probe")
		n        = flag.Int("n", 0, "override the workload's transaction count")
		traceDir = flag.String("trace-dir", "", "write the traced pass's Chrome traces (the program's and the benchmark's own spans) here")
		desc     = flag.Bool("describe", false, "print BENCHMARK.json as this package defines it, instead of running")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments against the bounds, instead of running")
	)
	flag.Parse()
	if *desc {
		describe()
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	if *name == "" {
		// One process per workload, so host.peak_rss_mb is one workload's
		// peak and one workload's garbage is not the next one's GC cost.
		exe, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		for _, w := range workloads {
			cmd := exec.Command(exe, append(slices.Clone(os.Args[1:]), "-workload", w.Name)...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fatal(fmt.Errorf("workload %s: %w", w.Name, err))
			}
		}
		return
	}

	i := slices.IndexFunc(workloads, func(w workload) bool { return w.Name == *name })
	if i < 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	w := workloads[i]
	opt := options{Seed: *seed, Seconds: *seconds, Traced: *trace != 0, N: *n, TraceDir: *traceDir}
	rounds := probeRounds
	if *quick {
		opt.Seconds, rounds = 0, 1
		if opt.N == 0 {
			opt.N = w.N / 10
		}
	}
	rep := runWorkload(w, opt)
	if opt.Traced {
		rep.addProbes(measureProbes(opt.Seed, rounds))
	}
	rep.finish()
	rep.print()
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			fatal(err)
		}
	}
	fmt.Println(rep.resultLine(opt.Traced))
}
