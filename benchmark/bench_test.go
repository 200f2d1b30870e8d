package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tiny shrinks every workload to a few thousand simulated cycles.
const tiny scale = 40

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "benchmark-test")
	if err != nil {
		panic(err)
	}
	scratchDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// spec is BENCHMARK.json as the driver reads it.
type spec struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) *spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// TestDeclarationsMatchBenchmarkJSON: the Go-side lists and BENCHMARK.json
// name the same workloads and metrics with the same units and directions.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.Name || s.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, s.Workloads[i].Name, s.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(s.EndToEnd) != len(endToEndMetrics) || len(s.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("metric counts differ: end-to-end %d vs %d, per-layer %d vs %d",
			len(s.EndToEnd), len(endToEndMetrics), len(s.PerLayer), len(perLayerMetrics))
	}
	for i, m := range endToEndMetrics {
		if j := s.EndToEnd[i]; j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, the benchmark %+v", i, j, m)
		} else if j.Bound <= 0 || j.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", j.Name, j.Bound)
		}
	}
	for i, m := range perLayerMetrics {
		if j := s.PerLayer[i]; j.Name != m.Name || j.Unit != m.Unit || j.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, the benchmark %+v", i, j, m)
		}
	}
}

// checkNames fails unless res reports exactly the declared metrics.
func checkNames(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, %d declared", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s is not printed", res.Workload, d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s: %s printed in %q, declared in %q", res.Workload, d.Name, m.Unit, d.Unit)
		}
	}
}

// TestEveryWorkload runs each workload at a tiny size: the same seed twice
// gives identical simulated statistics and digest, another seed gives
// other inputs, every operation verifies, and the runs print exactly the
// declared metrics. Each traced run covers an untraced and a traced
// repetition, which must agree on the digest.
func TestEveryWorkload(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			run := func(seed uint64, trace bool) *result {
				res := w.run(runConfig{workload: w.Name, seed: seed, seconds: 0.02, trace: trace, scale: tiny, minReps: 2})
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("seed %d trace %v: correct %v, attempted %d, failed %d: %v",
						seed, trace, res.Correct, res.Attempted, res.Failed, res.Errors)
				}
				return res
			}
			a, b, other := run(1, true), run(1, true), run(2, true)
			checkNames(t, a, perLayerMetrics)
			checkNames(t, run(1, false), endToEndMetrics)
			for _, name := range exactMetrics {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s differs between two runs of seed 1: %v vs %v", name, a.Metrics[name], b.Metrics[name])
				}
			}
			if a.Metrics["digest"].Value == 0 || a.Metrics["sim_cycles"].Value == 0 {
				t.Errorf("no digest or cycle count reported: %v", a.Metrics)
			}
			if a.Metrics["digest"] == other.Metrics["digest"] {
				t.Errorf("seeds 1 and 2 end on the same digest: the seed does not reach the inputs")
			}
			if c := a.Metrics["trace.coverage"].Value; c <= 0 || c > 1 {
				t.Errorf("trace.coverage = %v", c)
			}
		})
	}
}

// TestTracedDriverMatchesRun: the traced driver, which advances the
// machine from outside through public calls, ends on the same state and
// digest as Sim.Run.
func TestTracedDriverMatchesRun(t *testing.T) {
	inputs := map[string]func(uint64, scale) *simInput{"msg-storm": msgStormInput, "idle-remote": idleRemoteInput}
	for name, gen := range inputs {
		for seed := uint64(1); seed <= 2; seed++ {
			in := gen(seed, tiny)
			finish := func(traced bool) simState {
				s, err := in.build(&buildTimes{})
				if err != nil {
					t.Fatal(err)
				}
				defer s.M.Close()
				var counts driveCounts
				if traced {
					tr := &tracer{}
					tr.begin(spRun)
					_, err = drive(s.M, in.maxCycles, tr, &counts)
					tr.end()
					if counts.chipSteps == 0 || counts.nocSteps == 0 || counts.busyCycles == 0 {
						t.Errorf("%s: traced driver counted nothing: %+v", name, counts)
					}
					if tr.coverage() < 0.5 {
						t.Errorf("%s: spans cover %.2f of the traced run", name, tr.coverage())
					}
				} else {
					_, err = s.Run(in.maxCycles)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := in.check(s); err != nil {
					t.Fatal(err)
				}
				st, err := stateOf(s)
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			if want, got := finish(false), finish(true); got != want {
				t.Errorf("%s seed %d: traced driver ends on %+v, Sim.Run on %+v", name, seed, got, want)
			}
		}
	}
}

// TestContractLine: with -trace the last line of standard output is one
// JSON object with exactly the four keys of the builder's contract.
func TestContractLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "dist-shards", "-seed", "3", "-seconds", "0.05", "-trace", "0"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := obj[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(obj) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(obj), lines[len(lines)-1])
	}
	var metrics map[string]metric
	if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEndMetrics {
		if m := metrics[d.Name]; m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("%s = %+v", d.Name, m)
		}
	}
	if code := run([]string{"-workload", "no-such", "-trace", "0"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exits 0")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v, %v; Python gives 1, 3", q1, q3)
	}
}

// TestCompare: -compare's verdicts and exit status on synthetic result sets.
func TestCompare(t *testing.T) {
	s := readSpec(t)
	bounds := &benchmarkSpec{}
	raw, _ := json.Marshal(s)
	if err := json.Unmarshal(raw, bounds); err != nil {
		t.Fatal(err)
	}
	doc := func(rate float64, jitter float64, digest float64) *document {
		d := &document{}
		for i := 0; i < 10; i++ {
			v := rate * (1 + jitter*float64(i%5-2)/2)
			d.Runs = append(d.Runs, &result{Workload: "busy-alu", Seed: 1, Metrics: map[string]metric{
				"node_cycles_per_s": {v, "1/s"}, "setup_s": {0.005, "s"}}})
		}
		d.Runs = append(d.Runs, &result{Workload: "busy-alu", Seed: 1, Trace: true, Metrics: map[string]metric{
			"digest": {digest, "hash48"}, "sim_cycles": {1000, "cycles"}, "chip.insts": {5, "count"}}})
		return d
	}
	cases := []struct {
		name string
		a, b *document
		exit int
		want string
	}{
		{"same", doc(3e6, 0.01, 7), doc(3e6, 0.01, 7), 0, "unchanged"},
		{"slower", doc(3e6, 0.01, 7), doc(2e6, 0.01, 7), 1, "REGRESSION"},
		{"faster", doc(3e6, 0.01, 7), doc(4e6, 0.01, 7), 0, "better"},
		{"noisy", doc(3e6, 0.9, 7), doc(3e6, 0.9, 7), 0, "unresolved"},
		{"changed", doc(3e6, 0.01, 7), doc(3e6, 0.01, 8), 1, "SIMULATION CHANGED"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := compareDocs(c.a, c.b, bounds, &out); got != c.exit || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s", c.name, got, c.exit, c.want, out.String())
		}
	}
}
