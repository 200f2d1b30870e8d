// The determinism-matrix verifier: one generated scenario, every
// engine, bit-identical results or a named seed.

package wgen

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/guard"
	"repro/internal/machine"
	"repro/internal/trace"
)

// mode is one engine configuration of the verification matrix. The
// options are explicit (not the package defaults the engine_test helpers
// mutate), so Verify is safe to call from anywhere — tests, msim —
// without touching global state.
type mode struct {
	name string
	opts core.Options
}

// matrixModes spans the in-process engines: the reference per-cycle
// loop and the event engine.
var matrixModes = [...]mode{
	{"naive", core.Options{NaiveEngine: true}},
	{"event", core.Options{}},
}

// fingerprint renders everything the determinism contract covers: phase
// cycle counts, check counts, machine statistics, the final machine
// digest (per sweep point too), and the full trace timeline. Two
// engines agree iff their fingerprints are equal strings.
func fingerprint(res *core.ScenarioResult, rec *trace.Recorder) string {
	var b strings.Builder
	for _, ph := range res.Phases {
		fmt.Fprintf(&b, "phase %s=%d\n", ph.Name, ph.Cycles)
	}
	fmt.Fprintf(&b, "total=%d checks=%d\n", res.TotalCycles, res.Checks)
	fmt.Fprintf(&b, "stats=%+v\n", res.Stats)
	fmt.Fprintf(&b, "digest=%s\n", res.Digest)
	for _, pt := range res.Points {
		fmt.Fprintf(&b, "point %s cycles=%d checks=%d digest=%s\n",
			pt.Name, pt.TotalCycles, pt.Checks, pt.Digest)
	}
	b.WriteString(rec.Timeline(rec.Events))
	return b.String()
}

// seedErr wraps a failure with the reproduction recipe. Every Verify
// failure path goes through this, so a red CI line always names the
// seed and the one command that replays it.
func seedErr(seed uint64, format string, args ...interface{}) error {
	return fmt.Errorf("seed %d (repro: msim -gen-seed %d): %s",
		seed, seed, fmt.Sprintf(format, args...))
}

// Verify generates seed's scenario and runs it under every in-process
// engine, requiring bit-identical fingerprints (digests, stats, phase
// cycles, trace timelines). Scenarios without a sweep also run twice
// through core.ScenarioRun.Drive in slices of seed-derived lengths — one
// below the quiet window, so that slice boundaries land inside the
// phases' final quiet windows, one in 256…599, around the service's
// default — and, for one seed in eight, on the distributed engine: dist
// is an order of magnitude slower per scenario, and a subsample is enough
// to keep the cross-process leg honest. Any failure names the seed and
// the `msim -gen-seed` invocation that reproduces it.
func Verify(seed uint64) error {
	name, src := Source(seed)
	sc, err := core.ScenarioFromDSL(name+".wl", src)
	if err != nil {
		// The generator must only emit compilable scenarios; a compile
		// error is a wgen bug, not an engine bug.
		return seedErr(seed, "generated scenario does not compile (wgen bug): %v\n--- source ---\n%s", err, src)
	}

	// same holds a run to the first one's fingerprint.
	var ref string
	same := func(what string, res *core.ScenarioResult, s *core.Sim, err error) error {
		if err != nil {
			return seedErr(seed, "%s: %v", what, err)
		}
		fp := fingerprint(res, s.Recorder)
		if ref == "" {
			ref = fp
		} else if fp != ref {
			return seedErr(seed, "%s diverged from %s:\n%s", what, matrixModes[0].name, diffLines(ref, fp))
		}
		return nil
	}
	for _, m := range matrixModes {
		res, s, err := sc.RunSim(m.opts)
		if err := same(m.name+" engine", res, s, err); err != nil {
			return err
		}
	}
	if sc.Plan.Sweep != nil {
		return nil // the dist hub cannot follow sweep forks, nor Drive a sweep
	}
	for _, slice := range [2]int64{1 + int64(seed%(machine.QuietWindow-1)), 256 + int64(seed*97%344)} {
		s, err := sc.NewSim(core.Options{})
		if err != nil {
			return seedErr(seed, "%v", err)
		}
		res, err := sc.NewRun(s).Drive(guard.New(s.M, sc.Supervision(core.Options{})), slice, nil)
		s.M.Close()
		if err := same(fmt.Sprintf("run in %d-cycle slices", slice), res, s, err); err != nil {
			return err
		}
	}

	// Distributed subsample: the dist hub forces its own engine, so only
	// multi-node scenarios qualify. Compare through the same fingerprint —
	// the dist digest is the same sha256 over the same snapshot stream.
	if sc.Plan.Dims[0]*sc.Plan.Dims[1]*sc.Plan.Dims[2] >= 2 && seed%8 == 0 {
		rr, s, err := dist.RunScenario(sc, core.Options{}, dist.Config{
			Shards:   2,
			Launcher: dist.LocalLauncher{},
		})
		if err != nil {
			return seedErr(seed, "dist engine: %v", err)
		}
		return same("dist engine", rr.ScenarioResult, s, nil)
	}
	return nil
}

// diffLines renders the first divergent line of two fingerprints, with
// enough context to see what kind of state went different — digests
// alone say "something", the first differing line says "what".
func diffLines(ref, got string) string {
	rl, gl := strings.Split(ref, "\n"), strings.Split(got, "\n")
	n := len(rl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if rl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  ref: %s\n  got: %s", i+1, rl[i], gl[i])
		}
	}
	return fmt.Sprintf("lengths differ: ref %d lines, got %d lines", len(rl), len(gl))
}
