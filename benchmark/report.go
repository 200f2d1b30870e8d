package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// header makes a result file self-describing: what was run, on what.
type header struct {
	Benchmark  string  `json:"benchmark"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Reps       int     `json:"reps"`
	GoVersion  string  `json:"go"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Caches     string  `json:"caches"`
}

// document is what a full run prints and what -compare reads.
type document struct {
	Header header    `json:"header"`
	Runs   []*result `json:"runs"`
}

// cpuModel reads the host CPU's name (Linux only; empty elsewhere).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// fullRun runs every selected workload reps times untraced and once
// traced, prints a table for people and the document for tools, and
// fails if any operation of any run failed verification.
func fullRun(sel []*workloadDef, seed uint64, seconds float64, reps int, out, spans string, stdout, stderr io.Writer) int {
	doc := document{Header: header{
		Benchmark: "repro/benchmark", Seed: seed, Seconds: seconds, Reps: reps,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		Caches: "modelled caches and LTLBs start empty in every operation",
	}}
	ok := true
	for _, w := range sel {
		cfg := runConfig{workload: w.Name, seed: seed, seconds: seconds, scale: fullScale}
		var untraced []*result
		for i := 0; i < reps; i++ {
			fmt.Fprintf(stderr, "%s: untraced run %d/%d\n", w.Name, i+1, reps)
			untraced = append(untraced, w.run(cfg))
		}
		fmt.Fprintf(stderr, "%s: traced run\n", w.Name)
		cfg.trace = true
		if spans != "" {
			cfg.spans = fmt.Sprintf("%s.%s.csv", strings.TrimSuffix(spans, ".csv"), w.Name)
		}
		traced := w.run(cfg)
		doc.Runs = append(doc.Runs, untraced...)
		doc.Runs = append(doc.Runs, traced)
		ok = printWorkload(stderr, w, untraced, traced) && ok
	}
	enc, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if out != "" {
		if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: FAILED: some operations failed verification")
		return 1
	}
	return 0
}

// values collects one metric across runs.
func values(runs []*result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// printWorkload prints one workload's block of the human table.
func printWorkload(w io.Writer, def *workloadDef, untraced []*result, traced *result) bool {
	ok := true
	ops, failed := 0, 0
	for _, r := range append(append([]*result(nil), untraced...), traced) {
		ops += r.Attempted
		failed += r.Failed
		ok = ok && r.Correct
		for _, e := range r.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
	}
	fmt.Fprintf(w, "\n== %s: ops %d, failed %d ==\n   %s\n", def.Name, ops, failed, def.Why)
	fmt.Fprintf(w, "  %-32s %16s %16s %16s  %s\n", "end-to-end (untraced)", "median", "q1", "q3", "unit")
	for _, m := range endToEndMetrics {
		xs := values(untraced, m.Name)
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "  %-32s %16.6g %16.6g %16.6g  %s\n", m.Name, median(xs), q1, q3, m.Unit)
	}
	fmt.Fprintf(w, "  %-32s %16s\n", "per-layer (traced)", "value")
	for _, m := range perLayerMetrics {
		fmt.Fprintf(w, "  %-32s %16.6g  %s\n", m.Name, traced.Metrics[m.Name].Value, m.Unit)
	}
	return ok
}

// benchmarkSpec is the part of BENCHMARK.json -compare needs: the bounds.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactMetrics must be identical between two result sets of one seed: a
// difference means the simulation changed, not its speed.
var exactMetrics = []string{"sim_cycles", "chip.insts", "digest", "core.table1_max_rel_err"}

func readDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// compareFiles applies the small-sandbox rule to two result sets, A the
// parent and B the change: per workload and end-to-end metric it prints
// both medians and quartiles and one verdict —
//
//	REGRESSION  B's median is worse than A's by more than the metric's bound
//	unresolved  A's own spread (q3-q1 over its median) is wider than the bound
//	better      B wins at least 9 of 10 index-paired runs and the medians
//	            differ by more than A's spread
//	unchanged   otherwise
//
// and checks that the exact simulated statistics of equal seeds are
// equal. It exits 1 on a regression or a changed exact statistic.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	load := func() (a, b *document, spec *benchmarkSpec, err error) {
		if a, err = readDocument(pathA); err != nil {
			return
		}
		if b, err = readDocument(pathB); err != nil {
			return
		}
		raw, err := os.ReadFile("BENCHMARK.json") // the bounds; run from the repository root
		if err != nil {
			return
		}
		spec = &benchmarkSpec{}
		err = json.Unmarshal(raw, spec)
		return
	}
	a, b, spec, err := load()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: compare:", err)
		return 2
	}
	return compareDocs(a, b, spec, stdout)
}

func compareDocs(a, b *document, spec *benchmarkSpec, w io.Writer) int {
	pick := func(d *document, name string, traced bool) []*result {
		var rs []*result
		for _, r := range d.Runs {
			if r.Workload == name && r.Trace == traced {
				rs = append(rs, r)
			}
		}
		return rs
	}
	bad := false
	fmt.Fprintf(w, "%-15s %-18s %14s %24s %14s %24s  %s\n", "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "verdict")
	for _, def := range workloads {
		ra, rb := pick(a, def.Name, false), pick(b, def.Name, false)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			xa, xb := values(ra, m.Name), values(rb, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			qa1, qa3 := quartiles(xa)
			qb1, qb3 := quartiles(xb)
			// worse > 0 when B is worse than A, as a share of A's median.
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			spread := (qa3 - qa1) / ma
			wins, pairs := 0, min(len(xa), len(xb))
			for i := 0; i < pairs; i++ {
				if (m.Better == "higher" && xb[i] > xa[i]) || (m.Better != "higher" && xb[i] < xa[i]) {
					wins++
				}
			}
			verdict := "unchanged"
			switch {
			case worse > m.Bound:
				verdict = fmt.Sprintf("REGRESSION: worse by %.1f%%, bound %.0f%%", 100*worse, 100*m.Bound)
				bad = true
			case spread > m.Bound:
				verdict = fmt.Sprintf("unresolved: spread %.1f%% wider than bound %.0f%%", 100*spread, 100*m.Bound)
			case pairs >= 10 && 10*wins >= 9*pairs && -worse > spread:
				verdict = fmt.Sprintf("better by %.1f%% (wins %d/%d)", -100*worse, wins, pairs)
			}
			fmt.Fprintf(w, "%-15s %-18s %14.6g %24s %14.6g %24s  %s\n", def.Name, m.Name,
				ma, fmt.Sprintf("%.6g..%.6g", qa1, qa3), mb, fmt.Sprintf("%.6g..%.6g", qb1, qb3), verdict)
		}
		// Exact statistics: compare traced runs of equal seeds.
		for _, ta := range pick(a, def.Name, true) {
			for _, tb := range pick(b, def.Name, true) {
				if ta.Seed != tb.Seed {
					continue
				}
				for _, name := range exactMetrics {
					if va, vb := ta.Metrics[name].Value, tb.Metrics[name].Value; va != vb {
						fmt.Fprintf(w, "%-15s %-18s seed %d: A %.17g, B %.17g  SIMULATION CHANGED\n", def.Name, name, ta.Seed, va, vb)
						bad = true
					}
				}
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}
