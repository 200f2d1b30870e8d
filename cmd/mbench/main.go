// Command mbench regenerates every quantitative result of the M-Machine
// paper on the simulator: Table 1 (access latencies), Figure 9 (remote
// access timelines), the Figure 5 stencil schedules, the Figure 6 loop
// synchronization protocol, the Section 1/5 area model, the mechanism
// experiments (V-Thread latency tolerance, SEND throttling, GTLB
// interleaving, guarded pointers, synchronization bits, block caching),
// and the scaling extensions (network sweep, grid smoothing, large-mesh
// scaling). The experiments are core.Experiments, E1–E14; mbench prints
// each one's table, or records its metrics with -json, and knows nothing
// of any single experiment. `mbench -exp nope` lists the names.
//
// The experiments run one after another, in table order, on the calling
// goroutine. mbench does not time anything: every number it prints or
// records is a simulated result, and host-time measurement is
// benchmark/'s job alone.
//
// Checked-in declarative workload scenarios (testdata/workloads/*.wl,
// see docs/wdsl.md) are picked up as additional experiments named
// wl-<file>; their per-phase simulated cycle counts are metrics like any
// other. -wl overrides the glob ("" disables the pickup).
//
// testdata/mbench.json pins every metric of the default run (-json with
// no -exp and the default -wl): TestRecordMatches reruns the table and
// fails on any drift, so a change that moves a simulated result fails
// `go test`. A deliberate change of simulated behaviour re-pins the
// record with `go run ./cmd/mbench -json > testdata/mbench.json`.
//
// Usage:
//
//	mbench                # run everything
//	mbench -exp table1    # one experiment by name
//	mbench -json          # machine-readable per-experiment metrics
//	                      # (cycles etc.): the testdata/mbench.json record
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
)

// Result is one experiment's outcome in -json mode.
type Result struct {
	Name    string        `json:"name"`
	Title   string        `json:"title"`
	Metrics []core.Metric `json:"metrics,omitempty"`

	out string // formatted table for text mode
}

// report is the top-level -json document.
type report struct {
	Schema  string   `json:"schema"`
	Results []Result `json:"results"`
}

func cyc(name string, v int64) core.Metric {
	return core.Metric{Name: name, Value: float64(v), Unit: "cycles"}
}

// defaultWLGlob is the -wl default: every checked-in workload scenario.
// Named so the tests (main_test.go) can pin the pickup set against the
// directory contents and rerun the default table.
const defaultWLGlob = "testdata/workloads/*.wl"

// table returns every experiment mbench knows: the paper's, in order,
// then one per .wl file matching glob, whose metrics are one per phase
// plus the total cycle count — all simulated results and therefore
// pinned by the record.
func table(glob string) ([]core.Experiment, error) {
	out := core.Experiments()
	if glob == "" {
		return out, nil
	}
	files, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	for _, path := range files {
		path := path
		base := strings.TrimSuffix(filepath.Base(path), ".wl")
		sc, err := core.ScenarioFromFile(path)
		if err != nil {
			return nil, err
		}
		out = append(out, core.Experiment{
			Name:  "wl-" + base,
			Title: fmt.Sprintf("W. workload scenario %s: %s", path, sc.Title()),
			Run: func() (string, []core.Metric, error) {
				res, err := sc.Run(core.Options{})
				if err != nil {
					return "", nil, err
				}
				var b strings.Builder
				var ms []core.Metric
				fmt.Fprintf(&b, "%-16s %10s\n", "phase", "cycles")
				for _, ph := range res.Phases {
					fmt.Fprintf(&b, "%-16s %10d\n", ph.Name, ph.Cycles)
					ms = append(ms, cyc(ph.Name+"_cycles", ph.Cycles))
				}
				fmt.Fprintf(&b, "%-16s %10d   (%d expectation(s) verified)\n",
					"total", res.TotalCycles, res.Checks)
				ms = append(ms, cyc("total_cycles", res.TotalCycles))
				return b.String(), ms, nil
			},
		})
	}
	return out, nil
}

// run runs es one after another and returns their results in order.
func run(es []core.Experiment) ([]Result, error) {
	results := make([]Result, len(es))
	for i, e := range es {
		out, ms, err := e.Run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		results[i] = Result{Name: e.Name, Title: e.Title, Metrics: ms, out: out}
	}
	return results, nil
}

func main() {
	exp := flag.String("exp", "", "run a single experiment by name")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (the metrics of every experiment)")
	wlGlob := flag.String("wl", defaultWLGlob, "glob of workload scenarios to run as experiments (\"\" disables)")
	flag.Parse()

	all, err := table(*wlGlob)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mbench: %v\n", err)
		os.Exit(1)
	}

	selected := all
	if *exp != "" {
		selected = nil
		for _, e := range all {
			if e.Name == *exp {
				selected = []core.Experiment{e}
				break
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "mbench: unknown experiment %q; valid names:\n", *exp)
			for _, e := range all {
				fmt.Fprintf(os.Stderr, "  %-12s %s\n", e.Name, e.Title)
			}
			os.Exit(2)
		}
	}

	results, err := run(selected)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mbench: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{Schema: "mbench/v1", Results: results}); err != nil {
			fmt.Fprintf(os.Stderr, "mbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, r := range results {
		fmt.Printf("=== %s ===\n%s\n", r.Title, r.out)
	}
}
