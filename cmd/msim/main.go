// Command msim runs programs on a simulated M-Machine: either a single
// MAP assembly file loaded on one H-Thread slot, or a declarative
// workload scenario (a .wl file, see docs/wdsl.md) describing a whole
// multi-node, multi-phase experiment.
//
// Usage:
//
//	msim [flags] prog.masm                  assemble and run one program
//	msim [-shards N] -workload scenario.wl  run a DSL scenario
//	msim -gen-seed N                        replay one generated-fuzzer seed
//
// Flags are grouped:
//
//	run control:  -nodes -node -vthread -cluster -cycles -trace
//	engine:       -naive -caching
//	snapshot:     -save -restore
//	supervision:  -timeout -crash-dump
//	workload:     -workload
//	distributed:  -shards -checkpoint-every -window-timeout -max-recoveries
//	              -drill-{kill,panic,hang}
//	generator:    -gen-seed -gen-dump
//
// In single-program mode the program runs privileged (raw addressing) on
// the selected H-Thread slot; the software runtime (LTLB miss, message,
// and fault handlers) is installed on every node, and node i homes
// virtual words [i*4096, (i+1)*4096). -restore loads a machine snapshot
// (written by a previous -save) before the program is loaded; -save
// writes the post-run state. A snapshot only restores into a machine
// with the same mesh and chip configuration.
//
// In workload mode the mesh shape, caching mode, cycle budgets, and
// placement all come from the scenario file, so -nodes/-node/-vthread/
// -cluster/-cycles and the snapshot flags do not combine with -workload;
// the engine flag -naive, -trace, and the supervision flags (-timeout,
// -crash-dump) do. The report includes the final machine digest, so two
// runs compare directly.
//
// -shards N runs the scenario on N supervised shard worker processes that
// re-execute this binary (docs/mdist.md), bit-identical to an in-process
// run. The workers run the event engine, so -naive does not combine with
// it; the other distributed flags require it. Their numbers are
// literal: -max-recoveries 0 recovers nothing, -checkpoint-every 0
// checkpoints at phase entry only, and a -window-timeout (a shard's only
// liveness bound) must be positive. A negative -max-recoveries, a
// -window-timeout of 0 or less and a -drill-* that can never fire are
// usage errors.
//
// -gen-seed N replays seed N of the scenario fuzzer (internal/wgen):
// the seed's generated scenario runs under every engine of the
// determinism matrix, exactly what wgen's TestVerifySeeds did when it
// printed N as a failing seed. -gen-dump prints the generated source
// instead of running it.
//
// Every run is supervised (internal/guard): panics are contained,
// -timeout (or a scenario's deadline/budget directives) cuts off runaway
// runs between cycles, and -crash-dump names a file that receives a
// regular machine snapshot on any crash or cutoff — load it back with
// -restore to replay the failure (a mid-cycle crash writes none and says
// so). The exit code classifies the outcome (guard.ExitCode):
//
//	0  success
//	1  scenario fault (failed expectation, program fault, bad input file)
//	2  usage error (bad flags or arguments)
//	3  a cutoff: wall-clock timeout, hang, or a cycle bound (-cycles, a
//	   run step's bound, a budget) reached with threads still running,
//	   or a stalled shard past the recovery cap
//	4  internal crash (contained panic; a bug in the simulator), or a
//	   shard crashed or lost past the recovery cap
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/guard"
	"repro/internal/machine"
	"repro/internal/snap"
	"repro/internal/wgen"
)

// flagGroups drives the grouped -h output: every flag msim defines is
// listed here under the group it belongs to.
var flagGroups = []struct {
	name  string
	flags []string
}{
	{"run control", []string{"nodes", "node", "vthread", "cluster", "cycles", "trace"}},
	{"engine", []string{"naive", "caching"}},
	{"snapshot", []string{"save", "restore"}},
	{"supervision", []string{"timeout", "crash-dump"}},
	{"workload", []string{"workload"}},
	{"distributed", distributedFlags},
	{"generator", []string{"gen-seed", "gen-dump"}},
}

// distributedFlags configure a sharded run (-shards) and nothing else.
var distributedFlags = []string{"shards", "checkpoint-every", "window-timeout", "max-recoveries",
	"drill-kill", "drill-panic", "drill-hang"}

func main() {
	dist.MaybeWorker() // a coordinator's shard worker never returns from here

	// Run control.
	nodes := flag.Int("nodes", 2, "number of nodes (x-axis mesh)")
	node := flag.Int("node", 0, "node to load the program on")
	vthread := flag.Int("vthread", 0, "V-Thread slot (0-3)")
	clusterID := flag.Int("cluster", 0, "cluster (0-3)")
	cycles := flag.Int64("cycles", 1_000_000, "cycle budget")
	showTrace := flag.Bool("trace", false, "print the event trace")
	// Engine.
	naive := flag.Bool("naive", false, "use the reference per-cycle loop instead of the event engine")
	caching := flag.Bool("caching", false, "cache remote data in local DRAM")
	// Snapshot.
	restorePath := flag.String("restore", "", "restore machine state from this snapshot before running")
	savePath := flag.String("save", "", "write a machine snapshot to this file after the run")
	// Supervision.
	timeout := flag.Duration("timeout", 0, "wall-clock watchdog; 0 disables (a scenario's deadline directive still applies)")
	crashDump := flag.String("crash-dump", "", "write a machine snapshot here on a crash or a cutoff (timeout, cycle bound, budget)")
	// Workload.
	workloadPath := flag.String("workload", "", "run a declarative workload scenario (.wl file)")
	// Distributed.
	var cfg dist.Config
	flag.IntVar(&cfg.Shards, "shards", 0, "run the -workload scenario on this many shard worker processes (clamped to 1..mesh size)")
	flag.Int64Var(&cfg.CheckpointEvery, "checkpoint-every", 4096, "coordinated checkpoint cadence in cycles (0: at phase entry only)")
	flag.DurationVar(&cfg.WindowTimeout, "window-timeout", 30*time.Second, "per-exchange (one window of cycles) wall deadline, the only liveness bound: a shard that has not answered within it counts as stalled (stall-timeout)")
	flag.IntVar(&cfg.MaxRecoveries, "max-recoveries", 8, "checkpoint recoveries before giving up (0: none)")
	flag.Func("drill-kill", "kill worker shard@cycle, at the first exchange whose window reaches the cycle (repeatable)", func(v string) error {
		n, cycle, err := parseDrill(v)
		cfg.Kill = append(cfg.Kill, dist.KillSpec{Shard: n, Cycle: cycle})
		return err
	})
	for _, kind := range []string{"panic", "hang"} {
		flag.Func("drill-"+kind, "inject worker "+kind+" node@cycle (repeatable)", func(v string) error {
			n, cycle, err := parseDrill(v)
			cfg.Chaos = append(cfg.Chaos, dist.ChaosSpec{Node: n, Cycle: cycle, Kind: kind})
			return err
		})
	}
	// Generator.
	genSeed := flag.Int64("gen-seed", -1, "run the wgen scenario for this seed through the engine determinism matrix (repro for a seed wgen's TestVerifySeeds reports)")
	genDump := flag.Bool("gen-dump", false, "with -gen-seed, print the generated scenario source instead of running it")

	flag.Usage = usage
	flag.Parse()

	if *genSeed >= 0 {
		if flag.NArg() != 0 {
			usageErr("-gen-seed generates its own scenario; the positional program argument does not apply")
		}
		if name := genFlagConflict(flag.Visit); name != "" {
			usageErr("-%s does not combine with -gen-seed (the generated scenario and the verification matrix define it)", name)
		}
		runGenSeed(uint64(*genSeed), *genDump)
		return
	}
	if *genDump {
		usageErr("-gen-dump requires -gen-seed")
	}

	supervise := guard.Options{Timeout: *timeout, DumpPath: *crashDump}
	engine := core.Options{NaiveEngine: *naive, Supervise: supervise}
	if *workloadPath != "" {
		if flag.NArg() != 0 {
			usageErr("-workload runs a scenario file; the positional program argument does not apply")
		}
		if name, why := workloadFlagConflict(flag.Visit); name != "" {
			usageErr("-%s %s", name, why)
		}
		if isSet(flag.Visit, "shards") {
			if cfg.MaxRecoveries < 0 {
				usageErr("-max-recoveries %d is not a count (0 recovers nothing)", cfg.MaxRecoveries)
			}
			if cfg.WindowTimeout <= 0 {
				usageErr("-window-timeout %v is not a deadline (it is a shard's only liveness bound)", cfg.WindowTimeout)
			}
			// dist.Config reads a zero as its default; a 0 given here
			// means none: no recovery, no mid-phase checkpoint.
			if cfg.MaxRecoveries == 0 {
				cfg.MaxRecoveries = -1
			}
			if cfg.CheckpointEvery == 0 {
				cfg.CheckpointEvery = -1
			}
			exe, err := os.Executable()
			if err != nil {
				fatal(err)
			}
			cfg.Launcher = &dist.ProcLauncher{Exe: exe}
		}
		runWorkload(*workloadPath, engine, cfg, *showTrace)
		return
	}
	if name := firstSet(flag.Visit, func(n string) bool { return slices.Contains(distributedFlags, n) }); name != "" {
		usageErr("-%s runs a -workload scenario distributed; it does not apply to a program", name)
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: msim [flags] prog.masm | msim -workload scenario.wl")
		flag.Usage()
		os.Exit(2)
	}
	// Validate flag ranges up front: out-of-range slots used to reach
	// machine construction and panic or index out of bounds.
	if *nodes < 1 || *nodes > machine.MaxAxis {
		usageErr("-nodes %d outside the x-axis mesh range (valid: 1-%d)", *nodes, machine.MaxAxis)
	}
	if *node < 0 || *node >= *nodes {
		usageErr("-node %d outside the %d-node mesh (valid: 0-%d)", *node, *nodes, *nodes-1)
	}
	if *vthread < 0 || *vthread > 3 {
		usageErr("-vthread %d outside the user V-Thread slots (valid: 0-3)", *vthread)
	}
	if *clusterID < 0 || *clusterID > 3 {
		usageErr("-cluster %d outside the chip's clusters (valid: 0-3)", *clusterID)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	o := engine
	o.Nodes = *nodes
	o.Caching = *caching
	s, err := core.NewSim(o)
	if err != nil {
		fatal(err)
	}
	defer s.M.Close()
	if *restorePath != "" {
		b, rerr := os.ReadFile(*restorePath)
		if rerr != nil {
			fatal(rerr)
		}
		if rerr = s.M.Restore(b); rerr != nil {
			fatal(rerr)
		}
	}
	if err := s.LoadASM(*node, *vthread, *clusterID, string(src)); err != nil {
		fatal(err)
	}
	ran, err := s.RunSupervised(*cycles, supervise)
	if err != nil {
		reportFailure(err)
		// Exit before touching the machine again (no register dump, no
		// -save): after a hang a wedged run goroutine still owns it.
		os.Exit(guard.ExitCode(err))
	}

	fmt.Printf("completed in %d cycles\n\ninteger registers (node %d, vthread %d, cluster %d):\n",
		ran, *node, *vthread, *clusterID)
	for i := 0; i < 16; i++ {
		v := s.Reg(*node, *vthread, *clusterID, i)
		if v != 0 {
			fmt.Printf("  i%-2d = %-20d %#x\n", i, int64(v), v)
		}
	}
	printStats(s.Stats())
	printConsoles(s)

	if *showTrace {
		fmt.Println("\ntrace:")
		fmt.Print(s.Recorder.Timeline(s.Recorder.Events))
	}
	if *savePath != "" {
		if err := saveSnapshot(s, *savePath); err != nil {
			fatal(err)
		}
		fmt.Printf("\nsnapshot written to %s\n", *savePath)
	}
}

// runWorkload compiles and runs a .wl scenario, in process or, given a
// cfg.Launcher, distributed, and prints one report for both: phases,
// checks, statistics, digest, a sharded run's supervision, consoles.
func runWorkload(path string, engine core.Options, cfg dist.Config, showTrace bool) {
	sc, err := core.ScenarioFromFile(path)
	if err != nil {
		// Compile errors are positional wdsl errors ("file:line:col: msg");
		// print them verbatim, they already point at the offending token.
		fatal(err)
	}
	var res *core.ScenarioResult
	var sharded *dist.RunResult
	var s *core.Sim
	if cfg.Launcher == nil {
		res, s, err = sc.RunSim(engine)
	} else if sharded, s, err = dist.RunScenario(sc, engine, cfg); sharded != nil {
		res = sharded.ScenarioResult
	}
	if errors.Is(err, dist.ErrDeadDrill) {
		usageErr("%v", err)
	}
	if err != nil {
		reportFailure(err)
		os.Exit(guard.ExitCode(err))
	}
	fmt.Printf("workload: %s\n", sc.Title())
	fmt.Printf("mesh:     %dx%dx%d", sc.Plan.Dims[0], sc.Plan.Dims[1], sc.Plan.Dims[2])
	if sc.Plan.Caching {
		fmt.Print(", caching on")
	}
	if sharded != nil {
		fmt.Printf(", %d shard worker(s)", sharded.Shards)
	}
	fmt.Print("\n\n")
	for _, ph := range res.Phases {
		fmt.Printf("  phase %-12s %10d cycles\n", ph.Name, ph.Cycles)
	}
	fmt.Printf("  %-18s %10d cycles\n", "total", res.TotalCycles)
	fmt.Printf("\n%d expectation(s) verified\n", res.Checks)
	printStats(res.Stats)
	fmt.Printf("digest: %s\n", res.Digest)
	if sharded != nil {
		fmt.Printf("\nsupervision: %d checkpoint(s), %d recover(ies)\n", sharded.Checkpoints, sharded.Recoveries)
		for _, f := range sharded.Failures {
			detail, _, _ := strings.Cut(f.Err.Error(), "\n")
			fmt.Printf("  shard %d %-13s at cycle %-8d %s\n", f.Shard, f.Class, f.Cycle, detail)
		}
	}
	printConsoles(s)
	if showTrace {
		fmt.Println("\ntrace:")
		fmt.Print(s.Recorder.Timeline(s.Recorder.Events))
	}
}

// runGenSeed reproduces one seed of the generated-scenario determinism
// fuzzer: with dump, print the seed's scenario source (pipe it to a file
// and run it with -workload to poke at it manually); otherwise run the
// full engine matrix, exactly what wgen's TestVerifySeeds ran when it
// printed this seed as failing.
func runGenSeed(seed uint64, dump bool) {
	name, src := wgen.Source(seed)
	if dump {
		fmt.Print(src)
		return
	}
	if err := wgen.Verify(seed); err != nil {
		fmt.Fprintf(os.Stderr, "msim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("seed %d (%s.wl): determinism matrix verified\n", seed, name)
}

// printStats renders the machine statistics line shared by both modes.
func printStats(st core.Stats) {
	fmt.Printf("\nstats: %d instructions, %d ops, %d messages, %d LTLB faults, %d status faults, %d sync faults\n",
		st.Instructions, st.Operations, st.MsgsInjected, st.LTLBFaults, st.StatusFaults, st.SyncFaults)
}

// printConsoles prints every node's console device output.
func printConsoles(s *core.Sim) {
	for i := 0; i < s.M.NumNodes(); i++ {
		if out := s.M.Chip(i).Console.String(); out != "" {
			fmt.Printf("\nconsole (node %d):\n%s", i, out)
		}
	}
}

// usage prints the grouped flag reference.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintf(w, "usage: msim [flags] prog.masm\n")
	fmt.Fprintf(w, "       msim [engine flags] [supervision flags] [-trace] -workload scenario.wl\n")
	fmt.Fprintf(w, "       msim -shards N [distributed flags] [supervision flags] [-trace] -workload scenario.wl\n")
	fmt.Fprintf(w, "       msim -gen-seed N [-gen-dump]\n")
	for _, g := range flagGroups {
		fmt.Fprintf(w, "\n%s:\n", g.name)
		for _, name := range g.flags {
			f := flag.Lookup(name)
			if f == nil {
				continue
			}
			def := ""
			if f.DefValue != "" && f.DefValue != "false" {
				def = fmt.Sprintf(" (default %s)", f.DefValue)
			}
			fmt.Fprintf(w, "  -%-16s %s%s\n", f.Name, f.Usage, def)
		}
	}
	fmt.Fprintf(w, "\nSee docs/wdsl.md for the workload scenario language.\n")
}

// saveSnapshot writes the machine state to path with the shared atomic
// temp-file-and-rename discipline (snap.WriteFileAtomic), so an
// interrupted save never leaves a torn snapshot at path.
func saveSnapshot(s *core.Sim, path string) error {
	return snap.WriteFileAtomic(path, s.Save)
}

// reportFailure prints a run failure the way a user should see it: the
// one-line classification, the supervisor's livelock/deadlock diagnostic
// when there is one, and where the crash dump went — never a raw Go
// stack trace (those stay in guard.Failure.Stack for bug reports).
func reportFailure(err error) {
	fmt.Fprintf(os.Stderr, "msim: %v\n", err)
	diag, dump := guard.Forensics(err)
	if diag != "" {
		fmt.Fprintf(os.Stderr, "\nmachine state at cutoff:\n%s\n", diag)
	}
	if dump != "" {
		fmt.Fprintf(os.Stderr, "\ncrash dump written to %s (replay with msim -restore %s)\n", dump, dump)
	}
}

// workloadFlagConflict scans the explicitly-set flags (via a
// flag.Visit-shaped walker, so tests can drive it with their own
// FlagSet) and returns the first one a scenario run does not combine
// with and why, or "". The scenario file owns the mesh, placement,
// caching, cycle budgets and machine state, -shards owns the engine, and
// the distributed flags need -shards: reject, never silently ignore.
func workloadFlagConflict(visit func(func(*flag.Flag))) (name, why string) {
	scenarioOwned := map[string]bool{
		"nodes": true, "node": true, "vthread": true, "cluster": true,
		"cycles": true, "caching": true, "save": true, "restore": true,
	}
	sharded := isSet(visit, "shards")
	visit(func(f *flag.Flag) {
		switch {
		case name != "":
		case scenarioOwned[f.Name]:
			name, why = f.Name, "does not combine with -workload (the scenario file defines it)"
		case sharded && f.Name == "naive":
			name, why = f.Name, "does not combine with -shards (the shard workers run the event engine)"
		case !sharded && slices.Contains(distributedFlags, f.Name):
			name, why = f.Name, "requires -shards"
		}
	})
	return name, why
}

// genFlagConflict returns the first explicitly-set flag that -gen-seed
// does not combine with. The generated scenario owns the mesh and
// placement, and the verification matrix owns the engines and
// supervision, so only -gen-dump rides along.
func genFlagConflict(visit func(func(*flag.Flag))) string {
	return firstSet(visit, func(name string) bool { return name != "gen-seed" && name != "gen-dump" })
}

// firstSet returns the first explicitly-set flag whose name matches, or "".
func firstSet(visit func(func(*flag.Flag)), match func(name string) bool) string {
	found := ""
	visit(func(f *flag.Flag) {
		if found == "" && match(f.Name) {
			found = f.Name
		}
	})
	return found
}

func isSet(visit func(func(*flag.Flag)), name string) bool {
	return firstSet(visit, func(n string) bool { return n == name }) != ""
}

// usageErr reports a flag validation error on one line and exits 2, the
// conventional usage-error status.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "msim: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run 'msim -h' for the full flag reference")
	os.Exit(2)
}

// parseDrill parses a drill flag's "<n>@<cycle>": a shard (-drill-kill)
// or a node (-drill-panic, -drill-hang) and a cycle.
func parseDrill(v string) (int, int64, error) {
	a, c, _ := strings.Cut(v, "@")
	n, err := strconv.Atoi(a)
	cycle, cerr := strconv.ParseInt(c, 10, 64)
	if err != nil || cerr != nil {
		return 0, 0, fmt.Errorf("want <n>@<cycle>, got %q", v)
	}
	return n, cycle, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "msim: %v\n", err)
	os.Exit(1)
}
