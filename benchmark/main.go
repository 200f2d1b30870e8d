// Command benchmark is the repository's one benchmark: seven workloads
// that each load different layers of the simulator, end-to-end metrics
// from untraced runs, per-layer metrics from a traced run, and output
// verification on every operation. See README.md in this directory.
//
//	go run ./benchmark -seed 1                    # every workload, untraced then traced
//	go run ./benchmark -workload msg-storm -reps 2
//	go run ./benchmark -workload busy-alu -seed 7 -seconds 10 -trace 0   # one run, one JSON line
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// defaultSeed is the seed of the official run.
const defaultSeed = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "", "comma-separated workloads to run (default: all)")
		seed    = fs.Uint64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 2, "host seconds each run measures for")
		trace   = fs.String("trace", "", "0 or 1: make one run of one workload, untraced or traced, and print one JSON line")
		reps    = fs.Int("reps", 5, "untraced runs per workload in a full run (one traced run follows)")
		out     = fs.String("out", "", "full run: also write the JSON document to this file")
		spans   = fs.String("spans", "", "traced run: write the raw spans to this CSV file")
		compare = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || *reps < 1 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; see -h")
		return 2
	}
	var selected []*workloadDef
	if *names == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	}
	for _, n := range strings.Split(*names, ",") {
		if n == "" {
			continue
		}
		w := findWorkload(n)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", n)
			return 2
		}
		selected = append(selected, w)
	}
	runtime.GOMAXPROCS(gomaxprocs())

	if *trace != "" {
		// Contract mode: one run, the last line of standard output is the
		// result object.
		if (*trace != "0" && *trace != "1") || len(selected) != 1 {
			fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1 and exactly one -workload")
			return 2
		}
		res := selected[0].run(runConfig{workload: selected[0].Name, seed: *seed, seconds: *seconds,
			trace: *trace == "1", scale: fullScale, spans: *spans})
		for _, e := range res.Errors {
			fmt.Fprintln(stderr, "benchmark:", e)
		}
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		// The result line carries the verdict ("correct", "failed"); the
		// exit status only says whether a result could be produced.
		fmt.Fprintln(stdout, string(line))
		return 0
	}
	return fullRun(selected, *seed, *seconds, *reps, *out, *spans, stdout, stderr)
}
