package machine_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/rt"
	"repro/internal/trace"
)

// runWorkload boots a fresh machine, runs a mixed multi-node workload, and
// returns a fingerprint of its observable state.
func runWorkload(t *testing.T) string {
	t.Helper()
	m, _ := newMachine(t, 2, rt.Options{Caching: true})
	loadUser(t, m, 0, 0, 0, `
    movi i1, #4096
    movi i2, #0
    movi i3, #20
loop:
    st [i1], i2
    ld i4, [i1]
    add i5, i5, i4
    add i1, i1, #3
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop
    halt
`)
	loadUser(t, m, 1, 0, 0, `
    movi i1, #64
    movi i2, #0
    movi i3, #30
loop:
    st [i1], i2
    add i1, i1, #9
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop
    halt
`)
	cycles, err := m.Run(500000)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("cycles=%d i5=%d insts=%d/%d msgs=%d hops=%d ltlb=%d/%d status=%d/%d",
		cycles, reg(m, 0, 0, 0, 5),
		m.Chip(0).InstsIssued, m.Chip(1).InstsIssued,
		m.Net.Injected, m.Net.TotalHops,
		m.Chip(0).Mem.LTLBFaults, m.Chip(1).Mem.LTLBFaults,
		m.Chip(0).Mem.StatusFaults, m.Chip(1).Mem.StatusFaults)
}

// TestDeterminism: the simulator must be bit-reproducible — identical runs
// produce identical cycle counts and statistics (DESIGN.md: deterministic,
// single-goroutine cycle loop with fixed arbitration order).
func TestDeterminism(t *testing.T) {
	first := runWorkload(t)
	for i := 0; i < 3; i++ {
		if got := runWorkload(t); got != first {
			t.Fatalf("run %d diverged:\n  %s\nvs\n  %s", i+2, got, first)
		}
	}
}

// migratingNodes is the mesh size of the migrating workload.
const migratingNodes = 8

// buildMigrating boots an n-node machine under the given engine
// configuration and loads a workload whose busy region migrates across the
// mesh: node i first serializes through i*4 dependent remote loads from
// its successor's home range (mostly stall cycles), then runs a hot
// arithmetic burst, so activity sweeps from node 0 towards node n-1 over
// time — the pattern that defeats static contiguous shards. The machine's
// trace stream is collected in the returned recorder.
func buildMigrating(t *testing.T, workers int, naive bool) (*machine.Machine, *trace.Recorder) {
	t.Helper()
	const nodes = migratingNodes
	cfg := machine.DefaultConfig()
	cfg.Dims = noc.Coord{X: nodes, Y: 1, Z: 1}
	cfg.Workers = workers
	m := machine.New(cfg)
	m.Naive = naive
	t.Cleanup(m.Close)
	if _, err := rt.Install(m, rt.Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if err := m.MapNodeRange(uint64(i)*4096, 4, i); err != nil {
			t.Fatal(err)
		}
	}
	rec := &trace.Recorder{}
	m.SetTrace(rec)
	for i := 0; i < nodes; i++ {
		succ := (i + 1) % nodes
		loadUser(t, m, i, 0, 0, fmt.Sprintf(`
    movi i1, #%d            ; successor home range (remote loads)
    movi i2, #0
    movi i3, #%d            ; staggered delay: i*4 dependent remote loads
dly:
    lt i7, i2, i3
    brf i7, burst
    ld i4, [i1]
    add i2, i2, #1
    add i1, i1, #1
    add i6, i6, i4          ; depend on the load so the thread stalls
    br dly
burst:
    movi i5, #0
    movi i6, #%d            ; hot burst length
spin:
    add i5, i5, #1
    lt i7, i5, i6
    brt i7, spin
    halt
`, succ*4096+256, i*4, 300+40*i))
	}
	return m, rec
}

// traceText renders a recorded stream with absolute cycles, one record per
// line.
func traceText(r *trace.Recorder) string {
	var b strings.Builder
	for _, e := range r.Events {
		fmt.Fprintf(&b, "%d %d %s %s\n", e.Cycle, e.Node, e.Name(), r.Detail(e))
	}
	return b.String()
}

// runMigrating runs the migrating workload to completion and returns a
// fingerprint of the complete observable state (cycle count, the full
// trace stream, per-chip issue and stall statistics — the numbers the
// deferred SkipCycles batching must replay exactly).
func runMigrating(t *testing.T, workers int, naive bool) string {
	t.Helper()
	const nodes = migratingNodes
	m, rec := buildMigrating(t, workers, naive)
	cycles, err := m.Run(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d end=%d net=%d/%d/%d\n",
		cycles, m.Cycle, m.Net.Injected, m.Net.Delivered, m.Net.TotalHops)
	for i := 0; i < nodes; i++ {
		c := m.Chip(i)
		th := c.Thread(0, 0)
		fmt.Fprintf(&b, "node%d insts=%d ops=%d stalls=%d i5=%d i6=%d\n",
			i, c.InstsIssued, c.OpsIssued, th.StallCycles,
			reg(m, i, 0, 0, 5), reg(m, i, 0, 0, 6))
	}
	b.WriteString(traceText(rec))
	return b.String()
}

// TestDeterminismMigrating holds the event engine — inline and on every
// worker count — to the naive reference's bit-identical standard while the
// busy region migrates across the mesh and the static shards: each must
// reproduce the naive trace stream, statistics (including the stall
// counters the deferred SkipCycles batching replays), and cycle count
// exactly.
func TestDeterminismMigrating(t *testing.T) {
	ref := runMigrating(t, 0, true) // naive reference: every chip steps every cycle
	for _, workers := range []int{0, 2, 3, 4, 8} {
		if got := runMigrating(t, workers, false); got != ref {
			t.Errorf("workers%d diverged from the naive engine:\n--- naive ---\n%.2000s\n--- workers%d ---\n%.2000s",
				workers, ref, workers, got)
		}
	}
}

// chipStats renders the per-chip numbers the chip phase's deferred idle
// accounting replays: the chip's cycle, issue count, throttle-blocked SEND
// evaluations and every thread's stall count.
func chipStats(m *machine.Machine, n int) string {
	var b strings.Builder
	c := m.Chip(n)
	fmt.Fprintf(&b, "node%d cycle=%d insts=%d blocked=%d stalls=", n, c.Cycle, c.InstsIssued, c.SendsBlocked)
	for vt := 0; vt < isa.NumVThreads; vt++ {
		for cl := 0; cl < isa.NumClusters; cl++ {
			fmt.Fprintf(&b, "%d,", c.Thread(vt, cl).StallCycles)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// TestDeterminismMixedEngines drives one machine through every way of
// advancing it — Run, a RunLoop stopped short of its leg's end, StepAll,
// public Step, Steps until a predicate holds, flipping Naive every few
// Steps — with a Save+Restore and a Fork in between, inline
// and on 2 and 3 workers, and holds it to a pure naive run at every boundary:
// trace stream, Digest, and (read before Digest's own sync) every thread's
// StallCycles and every chip's SendsBlocked. Each boundary is a sync point
// of the chip phase's deferred idle accounting. It also pins StepAll's cache
// repair: naive cycles deliver messages behind the event engine's back, so
// StepAll must ingest them into the arrival set (whose wake-ups lower the
// due-set), or the next event-engine step leaves a runnable chip asleep.
func TestDeterminismMixedEngines(t *testing.T) {
	const nodes = 4
	build := func(workers int) (*machine.Machine, *trace.Recorder) {
		cfg := machine.DefaultConfig()
		cfg.Dims = noc.Coord{X: nodes, Y: 1, Z: 1}
		cfg.Workers = workers
		m := machine.New(cfg)
		if _, err := rt.Install(m, rt.Options{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nodes; i++ {
			if err := m.MapNodeRange(uint64(i)*4096, 4, i); err != nil {
				t.Fatal(err)
			}
		}
		rec := &trace.Recorder{}
		m.SetTrace(rec)
		// Node 0 streams remote stores into the other nodes' home ranges, so
		// deliveries and handler dispatches land on otherwise-idle chips
		// throughout the run; node 1 serializes through dependent remote
		// loads, so it sits idle with a stalled thread most of the time —
		// the cycles the deferred catch-up must account for.
		loadUser(t, m, 0, 0, 0, `
    movi i1, #4096
    movi i2, #0
    movi i3, #36
loop:
    st [i1], i2
    add i1, i1, #341
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop
    halt
`)
		loadUser(t, m, 1, 0, 0, `
    movi i1, #8192
    movi i2, #0
    movi i3, #24
loop:
    ld i4, [i1]
    add i5, i5, i4
    add i1, i1, #97
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop
    halt
`)
		return m, rec
	}
	// state reads the deferred statistics first: the operation that just
	// returned must have been a sync point on its own.
	state := func(m *machine.Machine) string {
		var b strings.Builder
		fmt.Fprintf(&b, "cycle=%d\n", m.Cycle)
		for n := 0; n < nodes; n++ {
			b.WriteString(chipStats(m, n))
		}
		d, err := m.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return b.String() + d
	}
	// One op advances a machine and reports what the call returned.
	stalled := func(m *machine.Machine, by uint64) func() bool {
		th := m.Chip(1).Thread(0, 0)
		goal := th.StallCycles + by
		return func() bool { return th.StallCycles >= goal }
	}
	// The order matters: a public event-engine Step is the one entry point
	// that does not WakeAll first, so the steps that directly follow StepAll
	// and the naive stretches inside Flip see nothing but StepAll's own
	// cache repair. Run and RunLoop would mask a missing one.
	ops := []struct {
		name string
		do   func(m *machine.Machine) string
	}{
		{"Run", func(m *machine.Machine) string { n, err := m.Run(150); return fmt.Sprint(n, err) }},
		{"StepAll", func(m *machine.Machine) string {
			for i := 0; i < 5; i++ {
				m.StepAll()
			}
			return ""
		}},
		{"Step", func(m *machine.Machine) string {
			for i := 0; i < 7; i++ {
				m.Step()
			}
			return ""
		}},
		{"StepUntil", func(m *machine.Machine) string {
			// The predicate reads a statistic of a mostly idle chip after
			// every Step: it sees the naive per-cycle sequence only if every
			// Step is a sync point.
			done, n := stalled(m, 40), 0
			for ; n < 300 && !done(); n++ {
				m.Step()
			}
			return fmt.Sprint(n)
		}},
		{"Flip", func(m *machine.Machine) string {
			// Naive flips every 5 cycles under the public Step.
			pure := m.Naive
			for i := 0; i < 40; i++ {
				m.Naive = pure || (i/5)%2 == 0
				m.Step()
			}
			m.Naive = pure
			return ""
		}},
		{"RunLoop", func(m *machine.Machine) string {
			// A leg cut at an exact cycle: the fast-forward must stop there.
			loop := machine.NewLeg(1 << 20)
			ended, err := m.RunLoop(&loop, m.Cycle+23)
			return fmt.Sprint(ended, err, loop.Ran(m.Cycle))
		}},
	}
	for _, workers := range []int{0, 2, 3} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			ref, refTrace := build(0)
			ref.Naive = true
			mix, mixTrace := build(workers)
			defer func() { mix.Close() }()
			for round := 0; ref.Cycle < 6000; round++ {
				op := ops[round%len(ops)]
				want, got := op.do(ref), op.do(mix)
				switch round {
				case 7: // mid-run: the machine restores its own snapshot
					var snap bytes.Buffer
					if err := mix.Save(&snap); err != nil {
						t.Fatal(err)
					}
					if err := mix.Restore(&snap); err != nil {
						t.Fatal(err)
					}
				case 16: // mid-run: a fork carries on, the original is closed
					f, err := mix.Fork()
					if err != nil {
						t.Fatal(err)
					}
					f.SetTrace(mixTrace)
					mix.Close()
					mix = f
				}
				if got != want {
					t.Fatalf("round %d %s: returned %q, naive %q", round, op.name, got, want)
				}
				if got, want := state(mix), state(ref); got != want {
					t.Fatalf("round %d %s: state diverged from the naive run:\n--- naive ---\n%s\n--- mixed ---\n%s",
						round, op.name, want, got)
				}
				if !slices.Equal(mixTrace.Events, refTrace.Events) {
					t.Fatalf("round %d %s: trace streams diverged from the naive run", round, op.name)
				}
			}
			if got, want := reg(mix, 0, 0, 0, 2), reg(ref, 0, 0, 0, 2); got != want || got != 36 {
				t.Errorf("final i2: mixed %d vs naive %d, want 36", got, want)
			}
			if th := ref.Chip(1).Thread(0, 0); th.StallCycles == 0 {
				t.Error("node 1 never stalled: the workload no longer exercises deferred idle accounting")
			}
		})
	}
}

// TestCrashStateMatchesNaive: a panic out of the chip phase unwinds through
// Run's sync point, and what forensics (guard's Diagnose and crash dump) then
// read must be the naive loop's state. The crashed chip stopped before its
// Cycle advanced, so the sync leaves it alone; chips the phase had not
// reached and idle chips are caught up to the crash cycle; chips that had
// already stepped the crash cycle are one cycle on.
func TestCrashStateMatchesNaive(t *testing.T) {
	const node, at = 5, 333
	naiveAt := func(cycle int64) *machine.Machine {
		m, _ := buildMigrating(t, 0, true)
		loop := machine.NewLeg(cycle)
		if ended, err := m.RunLoop(&loop, cycle); ended || err != nil {
			t.Fatalf("run to cycle %d: ended %v, %v", cycle, ended, err)
		}
		return m
	}
	before, after := naiveAt(at), naiveAt(at+1)
	for _, workers := range []int{0, 2, 3} {
		m, _ := buildMigrating(t, workers, false)
		m.SetFaultProbe(func(n int, cycle int64) {
			if n == node && cycle >= at {
				panic("injected")
			}
		})
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers%d: Run returned without the injected panic", workers)
				}
			}()
			m.Run(2_000_000)
		}()
		if m.Cycle != at || m.Chip(node).Cycle != at {
			t.Fatalf("workers%d: crash left machine at cycle %d, chip %d at %d, want %d",
				workers, m.Cycle, node, m.Chip(node).Cycle, at)
		}
		for n := 0; n < migratingNodes; n++ {
			ref := before
			if m.Chip(n).Cycle == at+1 {
				ref = after
			}
			if got, want := chipStats(m, n), chipStats(ref, n); got != want {
				t.Errorf("workers%d: after the crash %swant the naive %s", workers, got, want)
			}
		}
	}
}

// TestStepAfterClosePanics: stepping the parallel engine after Close used
// to deadlock silently on the stopped worker pool; it must panic with a
// clear message instead — whether or not the pool had ever started (a
// Close before the first parallel step must not let the lazy pool path
// resurrect worker goroutines on a closed machine).
func TestStepAfterClosePanics(t *testing.T) {
	for _, stepsBeforeClose := range []int{4, 0} {
		t.Run(fmt.Sprintf("steps%d", stepsBeforeClose), func(t *testing.T) {
			cfg := machine.DefaultConfig()
			cfg.Dims = noc.Coord{X: 4, Y: 1, Z: 1}
			cfg.Workers = 2
			m := machine.New(cfg)
			loadUser(t, m, 0, 0, 0, "movi i1, #1\nhalt")
			for i := 0; i < stepsBeforeClose; i++ {
				m.Step()
			}
			m.Close()
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("Step after Close did not panic")
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "after Close") {
					t.Fatalf("unexpected panic message: %v", msg)
				}
			}()
			m.Step()
		})
	}
}
