// Command mbench regenerates every quantitative result of the M-Machine
// paper on the simulator: Table 1 (access latencies), Figure 9 (remote
// access timelines), the Figure 5 stencil schedules, the Figure 6 loop
// synchronization protocol, the Section 1/5 area model, the mechanism
// experiments (V-Thread latency tolerance, SEND throttling, GTLB
// interleaving, guarded pointers, synchronization bits, block caching),
// and the scaling extensions (network sweep, grid smoothing, large-mesh
// scaling).
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
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/area"
	"repro/internal/core"
)

// Metric is one machine-readable quantity of an experiment's result.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
}

type experiment struct {
	name  string
	title string
	run   func() (string, []Metric, error)
}

// Result is one experiment's outcome in -json mode.
type Result struct {
	Name    string   `json:"name"`
	Title   string   `json:"title"`
	Metrics []Metric `json:"metrics,omitempty"`

	out string // formatted table for text mode
}

// report is the top-level -json document.
type report struct {
	Schema  string   `json:"schema"`
	Results []Result `json:"results"`
}

func cyc(name string, v int64) Metric { return Metric{Name: name, Value: float64(v), Unit: "cycles"} }

// defaultWLGlob is the -wl default: every checked-in workload scenario.
// Named so the tests (main_test.go) can pin the pickup set against the
// directory contents and rerun the default table.
const defaultWLGlob = "testdata/workloads/*.wl"

var experiments = []experiment{
	{"table1", "E1. Table 1: local and remote access times", func() (string, []Metric, error) {
		rows, err := core.Table1()
		if err != nil {
			return "", nil, err
		}
		var ms []Metric
		for _, r := range rows {
			base := strings.ReplaceAll(strings.ToLower(r.Class.String()), " ", "_")
			ms = append(ms, cyc(base+"_read", r.Read), cyc(base+"_write", r.Write))
		}
		return core.FormatTable1(rows), ms, nil
	}},
	{"fig9", "E2. Figure 9: remote read and write timelines", func() (string, []Metric, error) {
		r, w, err := core.Figure9()
		if err != nil {
			return "", nil, err
		}
		return r.Format() + "\n" + w.Format(),
			[]Metric{cyc("remote_read", r.Total), cyc("remote_write", w.Total)}, nil
	}},
	{"stencil", "E3. Figure 5 / Section 3.1: stencil schedule depths", func() (string, []Metric, error) {
		rs, err := core.StencilExperiment()
		if err != nil {
			return "", nil, err
		}
		var ms []Metric
		for _, r := range rs {
			base := fmt.Sprintf("%s_x%d", strings.Fields(r.Name)[0], r.HThreads)
			ms = append(ms,
				Metric{Name: base + "_depth", Value: float64(r.Depth), Unit: "insts"},
				cyc(base, r.Cycles))
		}
		return core.FormatStencil(rs), ms, nil
	}},
	{"loopsync", "E4. Figure 6: H-Thread loop synchronization via global CCs", func() (string, []Metric, error) {
		rs, err := core.LoopSyncExperiment(100)
		if err != nil {
			return "", nil, err
		}
		var ms []Metric
		for _, r := range rs {
			ms = append(ms, Metric{
				Name:  fmt.Sprintf("overhead_per_iter_x%d", r.HThreads),
				Value: r.PerIter - r.BaselinePerIter, Unit: "cycles/iter",
			})
		}
		return core.FormatLoopSync(rs), ms, nil
	}},
	{"area", "E5. Sections 1/5: area and peak-performance model", func() (string, []Metric, error) {
		in := area.PaperInputs()
		r := area.Evaluate(in)
		return area.Format(in, r), []Metric{
			{Name: "perf_per_area_gain", Value: r.PerfPerAreaGain},
			{Name: "area_ratio", Value: r.AreaRatio},
		}, nil
	}},
	{"vthreads", "E6. Section 3.2: V-Thread latency tolerance", func() (string, []Metric, error) {
		rs, err := core.VThreadExperiment(200)
		if err != nil {
			return "", nil, err
		}
		var ms []Metric
		for _, r := range rs {
			ms = append(ms, Metric{
				Name:  fmt.Sprintf("loads_per_kcycle_x%d", r.VThreads),
				Value: math.Round(r.LoadsPerKCycle*10) / 10,
			})
		}
		return core.FormatVThreads(rs), ms, nil
	}},
	{"throttle", "E7. Section 4.1: return-to-sender throttling", func() (string, []Metric, error) {
		r, err := core.ThrottleExperiment(24, 2)
		if err != nil {
			return "", nil, err
		}
		return r.Format(), []Metric{
			{Name: "send_stalls", Value: float64(r.SendsBlocked)},
			{Name: "messages_returned", Value: float64(r.Returned)},
			cyc("flood", r.Cycles),
		}, nil
	}},
	{"gtlb", "E8. Figure 8: GTLB block/cyclic interleaving", func() (string, []Metric, error) {
		return core.FormatGTLB(core.GTLBExperiment()), nil, nil
	}},
	{"gp", "E9. Section 2: guarded-pointer overhead", func() (string, []Metric, error) {
		r, err := core.GuardedPtrExperiment(500)
		if err != nil {
			return "", nil, err
		}
		return r.Format(), []Metric{
			cyc("guarded", r.GuardedCycles), cyc("raw", r.RawCycles),
		}, nil
	}},
	{"syncbits", "E10. Section 2: synchronization bits", func() (string, []Metric, error) {
		r, err := core.SyncBitsExperiment()
		if err != nil {
			return "", nil, err
		}
		return r.Format(), []Metric{
			cyc("handoff", r.Cycles),
			{Name: "sync_faults", Value: float64(r.SyncFaults)},
		}, nil
	}},
	{"blockcache", "E11. Section 4.3: caching remote data in local DRAM", func() (string, []Metric, error) {
		r, err := core.BlockCacheExperiment()
		if err != nil {
			return "", nil, err
		}
		return r.Format(), []Metric{
			cyc("cached_pass1", r.CachedPass1), cyc("cached_pass2", r.CachedPass2),
			cyc("uncached_pass1", r.UncachedPass1), cyc("uncached_pass2", r.UncachedPass2),
		}, nil
	}},
	{"netsweep", "E12 (extension). Remote read latency vs. mesh distance", func() (string, []Metric, error) {
		rows, err := core.NetworkSweepExperiment()
		if err != nil {
			return "", nil, err
		}
		var ms []Metric
		for _, r := range rows {
			ms = append(ms, cyc(fmt.Sprintf("read_hops%d", r.Hops), r.ReadCycles))
		}
		return core.FormatNetSweep(rows), ms, nil
	}},
	{"gridsmooth", "E13 (extension). Distributed grid smoothing: node scaling", func() (string, []Metric, error) {
		rows, err := core.GridSmoothExperiment()
		if err != nil {
			return "", nil, err
		}
		var ms []Metric
		for _, r := range rows {
			ms = append(ms, cyc(fmt.Sprintf("smooth_nodes%d", r.Nodes), r.Cycles))
		}
		return core.FormatGridSmooth(rows), ms, nil
	}},
	{"meshscale", "E14 (extension). Large-mesh scaling", func() (string, []Metric, error) {
		rows, err := core.MeshScaleExperiment()
		if err != nil {
			return "", nil, err
		}
		var ms []Metric
		for _, r := range rows {
			ms = append(ms, cyc(fmt.Sprintf("smooth_mesh%dx%dx%d", r.Dims.X, r.Dims.Y, r.Dims.Z), r.Cycles))
		}
		return core.FormatMeshScale(rows), ms, nil
	}},
}

// table returns every experiment mbench knows: the paper's, in order,
// then one per .wl file matching glob, whose metrics are one per phase
// plus the total cycle count — all simulated results and therefore
// pinned by the record.
func table(glob string) ([]experiment, error) {
	out := slices.Clone(experiments)
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
		out = append(out, experiment{
			name:  "wl-" + base,
			title: fmt.Sprintf("W. workload scenario %s: %s", path, sc.Title()),
			run: func() (string, []Metric, error) {
				res, err := sc.Run(core.Options{})
				if err != nil {
					return "", nil, err
				}
				var b strings.Builder
				var ms []Metric
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
func run(es []experiment) ([]Result, error) {
	results := make([]Result, len(es))
	for i, e := range es {
		out, ms, err := e.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		results[i] = Result{Name: e.name, Title: e.title, Metrics: ms, out: out}
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
			if e.name == *exp {
				selected = []experiment{e}
				break
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "mbench: unknown experiment %q; valid names:\n", *exp)
			for _, e := range all {
				fmt.Fprintf(os.Stderr, "  %-12s %s\n", e.name, e.title)
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
