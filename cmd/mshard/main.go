// Command mshard runs a workload scenario on the distributed
// multi-process engine (internal/dist, DESIGN.md "The distributed
// engine"): a coordinator partitions the mesh across shard worker
// processes on this host — each a re-execution of this binary — and
// supervises them with heartbeats, window deadlines, and checkpoint-
// based recovery. Results are bit-identical to msim's in-process
// engines, including runs that lost and recovered workers.
//
// Usage:
//
//	mshard -shards 2 scenario.wl
//
// Fault drills (deterministic, for demos and soak tests):
//
//	-drill-kill shard@cycle    SIGKILL a worker mid-run (lost connection)
//	-drill-panic node@cycle    inject a contained worker panic (crash)
//	-drill-hang node@cycle     wedge a worker mid-step (stall-timeout)
//
// A drilled run must end with the same cycle counts, checks, and machine
// digest as an undisturbed one — mshard prints the digest so two runs
// can be compared directly. Exit codes are msim's (guard.ExitCode): 0
// success, 1 scenario fault, 2 usage, 3 watchdog cutoff (cycle budget or
// bound, or a stalled shard past the recovery cap), 4 a shard crashed or
// lost past the recovery cap.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/guard"
)

func main() {
	// When launched by a coordinator, this process is a shard worker and
	// never returns from here.
	dist.MaybeWorker()

	shards := flag.Int("shards", 2, "shard worker process count (clamped to the mesh size)")
	ckEvery := flag.Int64("checkpoint-every", 4096, "coordinated checkpoint cadence in cycles")
	windowTimeout := flag.Duration("window-timeout", 30*time.Second, "per-exchange wall deadline before a shard counts as stalled (stall-timeout)")
	heartbeat := flag.Duration("heartbeat", 250*time.Millisecond, "worker heartbeat cadence")
	silence := flag.Duration("silence-timeout", 3*time.Second, "heartbeat silence before a shard counts as lost")
	maxRecoveries := flag.Int("max-recoveries", 8, "checkpoint recoveries before giving up")
	showTrace := flag.Bool("trace", false, "print the event trace")
	var kills, panics, hangs drillList
	flag.Var(&kills, "drill-kill", "kill worker shard@cycle (repeatable)")
	flag.Var(&panics, "drill-panic", "inject worker panic node@cycle (repeatable)")
	flag.Var(&hangs, "drill-hang", "wedge worker node@cycle (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mshard [flags] scenario.wl")
		flag.PrintDefaults()
		os.Exit(2)
	}
	sc, err := core.ScenarioFromFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	cfg := dist.Config{
		Shards:          *shards,
		Launcher:        &dist.ProcLauncher{Exe: exe},
		CheckpointEvery: *ckEvery,
		WindowTimeout:   *windowTimeout,
		HeartbeatEvery:  *heartbeat,
		SilenceTimeout:  *silence,
		MaxRecoveries:   *maxRecoveries,
	}
	for _, d := range kills {
		cfg.Kill = append(cfg.Kill, dist.KillSpec{Shard: d.a, Cycle: d.cycle})
	}
	for _, d := range panics {
		cfg.Chaos = append(cfg.Chaos, dist.ChaosSpec{Node: d.a, Cycle: d.cycle, Kind: "panic"})
	}
	for _, d := range hangs {
		cfg.Chaos = append(cfg.Chaos, dist.ChaosSpec{Node: d.a, Cycle: d.cycle, Kind: "hang"})
	}

	res, s, err := dist.RunScenario(sc, core.Options{}, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mshard: %v\n", err)
		os.Exit(guard.ExitCode(err))
	}

	fmt.Printf("workload: %s\n", sc.Title())
	fmt.Printf("mesh:     %dx%dx%d, %d shard worker(s)\n\n",
		sc.Plan.Dims[0], sc.Plan.Dims[1], sc.Plan.Dims[2], res.Shards)
	for _, ph := range res.Phases {
		fmt.Printf("  phase %-12s %10d cycles\n", ph.Name, ph.Cycles)
	}
	fmt.Printf("  %-18s %10d cycles\n", "total", res.TotalCycles)
	fmt.Printf("\n%d expectation(s) verified\n", res.Checks)
	st := res.Stats
	fmt.Printf("\nstats: %d instructions, %d ops, %d messages, %d LTLB faults, %d status faults, %d sync faults\n",
		st.Instructions, st.Operations, st.MsgsInjected, st.LTLBFaults, st.StatusFaults, st.SyncFaults)
	fmt.Printf("digest: %s\n", res.Digest)
	fmt.Printf("\nsupervision: %d checkpoint(s), %d recover(ies)\n", res.Checkpoints, res.Recoveries)
	for _, f := range res.Failures {
		detail, _, _ := strings.Cut(f.Detail, "\n")
		fmt.Printf("  shard %d %-13s at cycle %-8d %s\n", f.Shard, f.Class, f.Cycle, detail)
	}
	if *showTrace {
		fmt.Println("\ntrace:")
		fmt.Print(s.Recorder.Timeline(s.Recorder.Events))
	}
}

// drill is one parsed a@cycle drill directive.
type drill struct {
	a     int
	cycle int64
}

// drillList parses repeatable "<int>@<cycle>" flags.
type drillList []drill

func (l *drillList) String() string {
	parts := make([]string, len(*l))
	for i, d := range *l {
		parts[i] = fmt.Sprintf("%d@%d", d.a, d.cycle)
	}
	return strings.Join(parts, ",")
}

func (l *drillList) Set(v string) error {
	a, c, ok := strings.Cut(v, "@")
	if !ok {
		return fmt.Errorf("want <n>@<cycle>, got %q", v)
	}
	n, err := strconv.Atoi(a)
	if err != nil {
		return err
	}
	cy, err := strconv.ParseInt(c, 10, 64)
	if err != nil {
		return err
	}
	*l = append(*l, drill{a: n, cycle: cy})
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "mshard: %v\n", err)
	os.Exit(1)
}
