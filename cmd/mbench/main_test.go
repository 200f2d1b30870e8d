package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// recordPath is the pinned -json output of the default run, relative to
// the repository root.
const recordPath = "testdata/mbench.json"

const workloadDir = "../../testdata/workloads"

// TestRecordMatches reruns what `mbench -json` runs — the experiment
// table plus the default -wl pickup — and compares every (experiment,
// metric) → (value, unit) with the record. Every metric is a simulated
// result, so any difference is a change of simulated behaviour: a
// drifted or vanished metric, a dropped experiment, or a new metric or
// experiment the record does not pin yet. Each prints one BREAK line. A
// deliberate change re-pins with `go run ./cmd/mbench -json >
// testdata/mbench.json`.
func TestRecordMatches(t *testing.T) {
	t.Chdir("../..")
	data, err := os.ReadFile(recordPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec report
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("%s: %v", recordPath, err)
	}
	if rec.Schema != "mbench/v1" {
		t.Fatalf("%s: schema %q, want mbench/v1", recordPath, rec.Schema)
	}
	es, err := table(defaultWLGlob)
	if err != nil {
		t.Fatal(err)
	}
	live, err := run(es)
	if err != nil {
		t.Fatal(err)
	}
	if bs := breaks(rec.Results, live); len(bs) > 0 {
		t.Errorf("%d simulated metrics differ from %s (re-pin only for a declared semantics change):\n%s",
			len(bs), recordPath, strings.Join(bs, "\n"))
	}
}

// breaks lists every difference between the recorded and the live
// results, one "BREAK exp metric old -> new" line each: live order first,
// then what only the record holds. An experiment present on one side only
// shows as each of its metrics missing on the other.
func breaks(rec, live []Result) []string {
	oldKeys, old := points(rec)
	newKeys, cur := points(live)
	var out []string
	for _, k := range newKeys {
		if o, ok := old[k]; !ok {
			out = append(out, fmt.Sprintf("BREAK %s missing -> %s", k, cur[k]))
		} else if o != cur[k] {
			out = append(out, fmt.Sprintf("BREAK %s %s -> %s", k, o, cur[k]))
		}
	}
	for _, k := range oldKeys {
		if _, ok := cur[k]; !ok {
			out = append(out, fmt.Sprintf("BREAK %s %s -> missing", k, old[k]))
		}
	}
	return out
}

// points flattens results into "exp metric" keys, in order, and their
// "value unit" texts; an experiment without metrics is the key "exp -".
// FormatFloat's shortest form is exact, so equal texts are equal values.
func points(rs []Result) ([]string, map[string]string) {
	var keys []string
	at := make(map[string]string)
	add := func(k, v string) { keys, at[k] = append(keys, k), v }
	for _, r := range rs {
		if len(r.Metrics) == 0 {
			add(r.Name+" -", "no metrics")
		}
		for _, m := range r.Metrics {
			add(r.Name+" "+m.Name, strings.TrimSpace(strconv.FormatFloat(m.Value, 'f', -1, 64)+" "+m.Unit))
		}
	}
	return keys, at
}

// TestBreaksNamesEveryDifference pins the comparison itself on a small
// hand-made record: one drift, one unit change, one vanished and one new
// metric, one dropped and one new experiment.
func TestBreaksNamesEveryDifference(t *testing.T) {
	rec := []Result{
		{Name: "a", Metrics: []core.Metric{cyc("x", 1), cyc("y", 2), cyc("gone", 3), {Name: "u", Value: 4, Unit: "insts"}}},
		{Name: "b", Metrics: []core.Metric{cyc("z", 5)}},
		{Name: "same", Metrics: []core.Metric{cyc("w", 6)}},
	}
	live := []Result{
		{Name: "a", Metrics: []core.Metric{cyc("x", 1), {Name: "y", Value: 2.5, Unit: "cycles"}, {Name: "u", Value: 4}, cyc("added", 7)}},
		{Name: "same", Metrics: []core.Metric{cyc("w", 6)}},
		{Name: "c"},
	}
	want := []string{
		"BREAK a y 2 cycles -> 2.5 cycles",
		"BREAK a u 4 insts -> 4",
		"BREAK a added missing -> 7 cycles",
		"BREAK c - missing -> no metrics",
		"BREAK a gone 3 cycles -> missing",
		"BREAK b z 5 cycles -> missing",
	}
	got := breaks(rec, live)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("breaks:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if bs := breaks(rec, rec); len(bs) != 0 {
		t.Errorf("a record differs from itself: %v", bs)
	}
}

// TestScenarioPickup is the drift guard for the workload-scenario
// corpus: every file checked in under testdata/workloads/ must be picked
// up by the default -wl glob (and therefore run by `make wl`, pinned by
// the record, and run by the glob-driven core.TestScenarioFiles). A
// scenario that falls out of the pickup — a typo'd extension, a glob
// edit, a moved directory — stops being tested without any test knowing
// its name; this test knows the directory instead.
func TestScenarioPickup(t *testing.T) {
	entries, err := os.ReadDir(workloadDir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("unexpected directory %s under %s", e.Name(), workloadDir)
			continue
		}
		// Anything that is not a .wl file silently escapes both the
		// glob here and the core test suite's pickup.
		if !strings.HasSuffix(e.Name(), ".wl") {
			t.Errorf("%s/%s is not a .wl file: it will never be run by any test or bench leg", workloadDir, e.Name())
			continue
		}
		files = append(files, e.Name())
	}
	if len(files) < 9 {
		t.Fatalf("expected at least 9 checked-in scenarios, found %d", len(files))
	}

	exps, err := table(filepath.Join("../..", defaultWLGlob))
	if err != nil {
		t.Fatal(err)
	}
	paper := len(core.Experiments())
	picked := make(map[string]bool, len(exps))
	for _, e := range exps[paper:] {
		picked[e.Name] = true
	}
	for _, f := range files {
		if want := "wl-" + strings.TrimSuffix(f, ".wl"); !picked[want] {
			t.Errorf("scenario %s is not picked up as experiment %s by the default -wl glob", f, want)
		}
	}
	if n := len(exps) - paper; n != len(files) {
		t.Errorf("pickup count %d != scenario file count %d", n, len(files))
	}

	// The DSL v2 anchors must stay in the corpus by name: sweepexchange
	// is the sweep bit-identity fixture (core.TestSweepMatchesStandalone)
	// and gpwalk the user-mode grant fixture (core.TestGrantProtection).
	for _, name := range []string{"wl-sweepexchange", "wl-gpwalk"} {
		if !picked[name] {
			t.Errorf("anchor scenario %s missing from the pickup", name)
		}
	}
}
