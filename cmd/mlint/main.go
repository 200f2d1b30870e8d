// Command mlint runs the repo's determinism-invariant analyzer suite
// (internal/lint; DESIGN.md "Static analysis") over the whole module:
// the four repo-specific analyzers — detrange, wallclock, gocheck,
// snapfields — plus the stock shadow and nilness passes (go vet, which
// CI also runs, owns copylocks).
//
// Exit status: 0 when every finding is suppressed or none exist, 1 when
// unsuppressed diagnostics remain (the CI lint leg fails), 2 on usage
// or load errors.
//
//	mlint                 # analyze the module rooted in the working dir
//	mlint -list           # list analyzers and their invariants
//	mlint -run detrange,snapfields
//	mlint -suppressions   # audit every //mlint:allow and snap:"derived"
//
// Suppressions are per-line and must carry a reason:
//
//	//mlint:allow gocheck worker pool goroutines block on their start channel
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mlint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	supps := fs.Bool("suppressions", false, "list every suppression directive and derived tag, then exit")
	runNames := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	dir := fs.String("dir", ".", "module directory to analyze")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n%-10s   invariant: %s (DESIGN.md %q)\n", a.Name, a.Doc, "", a.Invariant, a.Section)
		}
		return 0
	}

	analyzers := lint.Analyzers()
	if *runNames != "" {
		analyzers = nil
		for _, name := range strings.Split(*runNames, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "mlint: unknown analyzer %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	m, err := lint.Load(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlint: %v\n", err)
		return 2
	}
	res := lint.RunAnalyzers(m, analyzers)

	if *supps {
		for _, s := range res.Suppressions {
			status := ""
			if !s.Used {
				status = " [unused]"
			}
			fmt.Printf("%s: //mlint:allow %s — %s%s\n", s.Pos, s.Analyzer, s.Reason, status)
		}
		for _, d := range res.Derived {
			fmt.Printf("%s: snap:\"derived\" %s.%s\n", d.Pos, d.Struct, d.Field)
		}
		fmt.Printf("mlint: %d suppressions, %d derived tags\n", len(res.Suppressions), len(res.Derived))
		return 0
	}

	for _, d := range res.Diags {
		fmt.Println(d)
	}
	if n := len(res.Diags); n > 0 {
		fmt.Fprintf(os.Stderr, "mlint: %d unsuppressed diagnostic(s)\n", n)
		return 1
	}
	fmt.Printf("mlint: ok (%d analyzers, %d packages, %d suppressed findings, %d derived tags)\n",
		len(analyzers), len(m.Pkgs), len(res.Suppressed), len(res.Derived))
	return 0
}
