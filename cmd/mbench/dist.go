package main

// The distributed-engine soak (-dist): the determinism matrix and the
// supervised-recovery drills from internal/dist's tests, run end to end
// as a CI gate. Every checked scenario must finish bit-identical to the
// in-process event engine — same total cycles, same check count, same
// final-state digest — across shard counts, across local-pipe and real
// OS-process workers, and across runs where the coordinator loses
// workers to injected panics, wedges, and SIGKILL mid-flight.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/guard"
)

// distSoakScenarios are the workloads exercised by the soak; they cover
// multi-phase runs, cross-shard message traffic, and barrier patterns.
var distSoakScenarios = []string{"meshsmooth4.wl", "stencil7x2.wl", "redblack.wl"}

func runDistSoak(w io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "distributed-engine soak: %d scenario(s)\n\n", len(distSoakScenarios))

	type ref struct {
		sc  *core.Scenario
		res *core.ScenarioResult
	}
	refs := map[string]ref{}
	for _, name := range distSoakScenarios {
		sc, err := core.ScenarioFromFile(filepath.Join("testdata", "workloads", name))
		if err != nil {
			return err
		}
		res, err := sc.Run(core.Options{})
		if err != nil {
			return fmt.Errorf("%s: in-process reference: %v", name, err)
		}
		refs[name] = ref{sc: sc, res: res}
	}

	check := func(name, leg string, r *dist.RunResult, err error) error {
		if err != nil {
			return fmt.Errorf("%s [%s]: %v", name, leg, err)
		}
		want := refs[name]
		if r.TotalCycles != want.res.TotalCycles || r.Checks != want.res.Checks || r.Digest != want.res.Digest {
			return fmt.Errorf("%s [%s]: diverged: %d cycles / %d checks / %s, want %d / %d / %s",
				name, leg, r.TotalCycles, r.Checks, r.Digest,
				want.res.TotalCycles, want.res.Checks, want.res.Digest)
		}
		fmt.Fprintf(w, "  %-16s %-24s %8d cycles  %d ckpt  %d recoveries  OK\n",
			name, leg, r.TotalCycles, r.Checkpoints, r.Recoveries)
		return nil
	}

	// Leg 1: the shard-count determinism matrix over local pipe workers,
	// with mid-phase checkpoints exercising the skip/pull/adopt path.
	for _, name := range distSoakScenarios {
		for _, shards := range []int{2, 3} {
			r, _, err := dist.RunScenario(refs[name].sc, core.Options{}, dist.Config{
				Shards: shards, Launcher: dist.LocalLauncher{}, CheckpointEvery: 256,
			})
			if err := check(name, fmt.Sprintf("local x%d", shards), r, err); err != nil {
				return err
			}
		}
	}

	// Leg 2: recovery drills. Each injected failure class must be
	// classified, recovered from the latest checkpoint, and still land on
	// the reference digest.
	type drillCase struct {
		name, leg string
		cfg       dist.Config
		wantClass guard.Class
		minRecov  int
	}
	drills := []drillCase{
		{"meshsmooth4.wl", "crash drill", dist.Config{
			Shards: 2, Launcher: dist.LocalLauncher{}, CheckpointEvery: 200,
			Chaos: []dist.ChaosSpec{
				{Node: 1, Cycle: 600, Kind: "panic"},
				{Node: 3, Cycle: 2000, Kind: "panic"},
			},
		}, guard.ClassCrash, 2},
		{"meshsmooth4.wl", "stall drill", dist.Config{
			Shards: 2, Launcher: dist.LocalLauncher{}, CheckpointEvery: 200,
			WindowTimeout: 400 * time.Millisecond, HeartbeatEvery: 50 * time.Millisecond,
			SilenceTimeout: 2 * time.Second,
			Chaos:          []dist.ChaosSpec{{Node: 2, Cycle: 900, Kind: "hang"}},
		}, guard.ClassStallTimeout, 1},
		{"redblack.wl", "lost drill", dist.Config{
			Shards: 2, Launcher: dist.LocalLauncher{}, CheckpointEvery: 128,
			Kill: []dist.KillSpec{{Shard: 1, Cycle: 500}},
		}, guard.ClassLost, 1},
		{"meshsmooth4.wl", "sigkill drill (procs)", dist.Config{
			Shards: 2, Launcher: &dist.ProcLauncher{Exe: exe},
			CheckpointEvery: 256,
			Kill:            []dist.KillSpec{{Shard: 0, Cycle: 700}, {Shard: 1, Cycle: 1900}},
		}, guard.ClassLost, 2},
	}
	fmt.Fprintln(w)
	for _, d := range drills {
		r, _, err := dist.RunScenario(refs[d.name].sc, core.Options{}, d.cfg)
		if err := check(d.name, d.leg, r, err); err != nil {
			return err
		}
		if r.Recoveries < d.minRecov {
			return fmt.Errorf("%s [%s]: %d recoveries, want >= %d", d.name, d.leg, r.Recoveries, d.minRecov)
		}
		classed := 0
		for _, f := range r.Failures {
			if f.Class == d.wantClass {
				classed++
			}
		}
		if classed < d.minRecov {
			return fmt.Errorf("%s [%s]: %d %s-class failures (%+v), want >= %d",
				d.name, d.leg, classed, d.wantClass, r.Failures, d.minRecov)
		}
	}

	// Leg 3: real-process determinism without drills — the everyday
	// mshard configuration.
	fmt.Fprintln(w)
	for _, name := range []string{"meshsmooth4.wl", "stencil7x2.wl"} {
		r, _, err := dist.RunScenario(refs[name].sc, core.Options{}, dist.Config{
			Shards:   2,
			Launcher: &dist.ProcLauncher{Exe: exe},
		})
		if err := check(name, "procs x2", r, err); err != nil {
			return err
		}
	}

	fmt.Fprintln(w, "\ndistributed-engine soak: all legs bit-identical to the in-process engines")
	return nil
}
