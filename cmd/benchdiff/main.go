// Command benchdiff compares two mbench -json records (BENCH_<n>.json, the
// per-PR simulated-metrics drift record). Every metric mbench records is a
// simulated result (cycle counts and derived figures), so any change
// between records is a determinism break — the engines are contractually
// bit-identical across versions unless a PR deliberately changes simulated
// behavior. A metric that drifted, a metric that disappeared and an
// experiment that was dropped all fail the comparison (exit 1).
//
// Host time is not in the record (records up to BENCH_16 carry a
// single-shot wall time per experiment, which is ignored): wall-time
// evidence comes from benchmark/run.sh pairs only.
//
// Usage:
//
//	benchdiff old.json new.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metric mirrors mbench's Metric.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
}

// result mirrors mbench's Result.
type result struct {
	Name    string   `json:"name"`
	Title   string   `json:"title"`
	Metrics []metric `json:"metrics,omitempty"`
}

// report mirrors mbench's top-level -json document.
type report struct {
	Schema  string   `json:"schema"`
	Results []result `json:"results"`
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != "mbench/v1" {
		return nil, fmt.Errorf("%s: unknown schema %q (want mbench/v1)", path, r.Schema)
	}
	return &r, nil
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff old.json new.json")
		os.Exit(2)
	}
	oldRep, err := load(os.Args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	newRep, err := load(os.Args[2])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	oldBy := make(map[string]*result, len(oldRep.Results))
	for i := range oldRep.Results {
		oldBy[oldRep.Results[i].Name] = &oldRep.Results[i]
	}

	var breaks, compared int
	seen := make(map[string]bool)
	for i := range newRep.Results {
		nr := &newRep.Results[i]
		seen[nr.Name] = true
		or, ok := oldBy[nr.Name]
		if !ok {
			fmt.Printf("NEW        %-12s (no baseline)\n", nr.Name)
			continue
		}
		compared++
		oldM := make(map[string]metric, len(or.Metrics))
		for _, m := range or.Metrics {
			oldM[m.Name] = m
		}
		for _, m := range nr.Metrics {
			om, ok := oldM[m.Name]
			if !ok {
				fmt.Printf("NEW METRIC %-12s %s\n", nr.Name, m.Name)
				continue
			}
			delete(oldM, m.Name)
			if om.Value != m.Value {
				breaks++
				fmt.Printf("BREAK      %-12s %-28s %v -> %v %s (determinism: simulated results must not drift)\n",
					nr.Name, m.Name, om.Value, m.Value, m.Unit)
			}
		}
		// A metric that vanished is as much a break as one that drifted:
		// a silently dropped result must not evade the determinism gate.
		for name := range oldM {
			breaks++
			fmt.Printf("BREAK      %-12s %-28s missing from new record\n", nr.Name, name)
		}
	}
	for name := range oldBy {
		if !seen[name] {
			breaks++
			fmt.Printf("BREAK      %-12s experiment dropped (present in old record only)\n", name)
		}
	}

	fmt.Printf("benchdiff: %d experiments compared, %d metric breaks\n", compared, breaks)
	if breaks > 0 {
		os.Exit(1)
	}
}
