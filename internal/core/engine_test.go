package core

// Determinism regression for the cycle engines: every experiment must
// produce bit-identical results — cycle counts, register state,
// statistics, and trace event streams — whether the machine runs the
// naive per-cycle loop (Machine.StepAll) or the fast-forwarding event
// engine. See DESIGN.md, "The NextEvent contract" and "The cycle engine".

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/workload"
)

// engineMode names one engine.
type engineMode struct {
	name  string
	naive bool
}

// engineModes is the cross-engine matrix: the naive reference and the
// event engine.
var engineModes = []engineMode{
	{"naive", true},
	{"event", false},
}

// underMode runs f with the package-default engine forced to the mode,
// restoring the default afterwards.
func underMode(m engineMode, f func() (string, error)) (string, error) {
	defaultNaiveEngine = m.naive
	defer func() { defaultNaiveEngine = false }()
	return f()
}

// allEngines runs f under every engine mode and fails the test on any
// fingerprint difference from the naive reference.
func allEngines(t *testing.T, name string, f func() (string, error)) {
	t.Helper()
	ref, err := underMode(engineModes[0], f)
	if err != nil {
		t.Fatalf("%s (%s engine): %v", name, engineModes[0].name, err)
	}
	for _, m := range engineModes[1:] {
		got, err := underMode(m, f)
		if err != nil {
			t.Fatalf("%s (%s engine): %v", name, m.name, err)
		}
		if got != ref {
			t.Errorf("%s diverged between engines:\n--- %s ---\n%s\n--- %s ---\n%s",
				name, engineModes[0].name, ref, m.name, got)
		}
	}
}

// TestDeterminismEngines re-runs each core experiment under every engine.
func TestDeterminismEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	for _, c := range []struct{ sub, exp string }{
		{"Table1", "table1"}, {"Figure9", "fig9"}, {"GridSmooth", "gridsmooth"}, {"NetSweep", "netsweep"},
	} {
		e := experimentNamed(t, c.exp)
		t.Run(c.sub, func(t *testing.T) {
			allEngines(t, c.exp, func() (string, error) {
				out, ms, err := e.Run()
				return fmt.Sprintf("%s%+v", out, ms), err
			})
		})
	}
}

// meshWorkload is one scenario of the cross-engine mesh matrix: load
// installs programs (and may run staging phases); post appends
// workload-specific correctness state to the fingerprint.
type meshWorkload struct {
	name string
	load func(s *Sim) error
	post func(s *Sim, b *strings.Builder) error
}

// fingerprint boots a sim with the given options, runs the workload, and
// renders the complete observable machine state: run cycle counts, every
// register (value, tag, and scoreboard bit), thread status and PCs,
// per-chip and network statistics including the stall counters the
// fast-forward path replays, and the full trace event stream.
func fingerprint(o Options, w meshWorkload) (string, error) {
	s, err := NewSim(o)
	if err != nil {
		return "", err
	}
	defer s.M.Close()
	if err := w.load(s); err != nil {
		return "", err
	}
	cycles, err := s.Run(3_000_000)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d end=%d\n", cycles, s.M.Cycle)
	fmt.Fprintf(&b, "net injected=%d delivered=%d hops=%d\n",
		s.M.Net.Injected, s.M.Net.Delivered, s.M.Net.TotalHops)
	for n := 0; n < s.M.NumNodes(); n++ {
		c := s.M.Chip(n)
		fmt.Fprintf(&b, "node%d insts=%d ops=%d blocked=%d returned=%d ltlb=%d status=%d sync=%d\n",
			n, c.InstsIssued, c.OpsIssued, c.SendsBlocked, c.MsgsReturned,
			c.Mem.LTLBFaults, c.Mem.StatusFaults, c.Mem.SyncFaults)
		for vt := 0; vt < isa.NumVThreads; vt++ {
			for cl := 0; cl < isa.NumClusters; cl++ {
				th := c.Thread(vt, cl)
				fmt.Fprintf(&b, "  t%d.%d st=%v pc=%d issued=%d stalls=%d",
					vt, cl, th.Status, th.PC, th.Issued, th.StallCycles)
				for i := 0; i < th.Ints.Len(); i++ {
					w := th.Ints.Get(i)
					fmt.Fprintf(&b, " i%d=%x/%v/%v", i, w.Bits, w.Ptr, th.Ints.Full(i))
				}
				for i := 0; i < th.FPs.Len(); i++ {
					w := th.FPs.Get(i)
					fmt.Fprintf(&b, " f%d=%x/%v", i, w.Bits, th.FPs.Full(i))
				}
				b.WriteString("\n")
			}
		}
	}
	if w.post != nil {
		if err := w.post(s, &b); err != nil {
			return "", err
		}
	}
	for _, e := range s.Recorder.Events {
		fmt.Fprintf(&b, "trace %d %d %s %s\n", e.Cycle, e.Node, e.Name(), s.Recorder.Detail(e))
	}
	return b.String(), nil
}

// meshWorkloads builds the scenario list for an n-node machine.
func meshWorkloads(n int) []meshWorkload {
	return []meshWorkload{
		{
			// Remote stores/loads from node 0 against the last node's home
			// range, a local LTLB-missing loop on another node, the rest
			// idle — the engine must skip idle nodes while replaying their
			// handler threads' stall accounting.
			name: "mixed",
			load: func(s *Sim) error {
				if err := s.LoadASM(0, 0, 0, fmt.Sprintf(`
    movi i1, #%d
    movi i2, #0
    movi i3, #12
loop:
    st [i1], i2
    ld i4, [i1]
    add i5, i5, i4
    add i1, i1, #5
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop
    halt
`, s.HomeBase(n-1))); err != nil {
					return err
				}
				local := 1 % n
				return s.LoadASM(local, 1, 0, `
    movi i1, #64
    movi i2, #0
    movi i3, #20
loop:
    st [i1], i2
    add i1, i1, #9
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop
    halt
`)
			},
		},
		{
			// Every node busy: the block-distributed smoothing pass with
			// remote halo reads (staged in a first phase).
			name: "meshsmooth",
			load: func(s *Sim) error {
				g, err := meshSmoothFor(n)
				if err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if err := s.LoadASM(i, 3, 3, g.StageSrc(i, s.HomeBase)); err != nil {
						return err
					}
				}
				if _, err := s.Run(3_000_000); err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if err := s.LoadASM(i, 0, 0, g.WorkerSrc(i, s.HomeBase)); err != nil {
						return err
					}
				}
				return nil
			},
			post: func(s *Sim, b *strings.Builder) error {
				g, err := meshSmoothFor(n)
				if err != nil {
					return err
				}
				for j := 1; j < g.Total()-1; j++ {
					got, err := s.Peek(j/g.Chunk, g.VAddr(s.HomeBase, j))
					if err != nil {
						return fmt.Errorf("v[%d]: %w", j, err)
					}
					if got != g.Want(j) {
						return fmt.Errorf("v[%d] = %d, want %d", j, got, g.Want(j))
					}
					fmt.Fprintf(b, "v%d=%d ", j, got)
				}
				b.WriteString("\n")
				return nil
			},
		},
		{
			// Every node flooding its successor with remote stores: full
			// SEND/ack/throttle traffic on all nodes simultaneously.
			name: "neighbor",
			load: func(s *Sim) error {
				for i := 0; i < n; i++ {
					src := neighborSrc(s, i, n, 16)
					if err := s.LoadASM(i, 0, 0, src); err != nil {
						return err
					}
				}
				return nil
			},
			post: func(s *Sim, b *strings.Builder) error {
				for i := 0; i < n; i++ {
					for w := 0; w < 16; w++ {
						addr := neighborAddr(s, i, w)
						got, err := s.Peek(i, addr)
						if err != nil {
							return fmt.Errorf("mailbox %d.%d: %w", i, w, err)
						}
						if got != addr {
							return fmt.Errorf("mailbox %d.%d = %d, want %d", i, w, got, addr)
						}
					}
					fmt.Fprintf(b, "mbox%d=ok ", i)
				}
				b.WriteString("\n")
				return nil
			},
		},
	}
}

// TestDeterminismThreeWay is the cross-engine matrix over multiple mesh
// sizes and workloads: naive vs event, comparing complete state
// fingerprints including the trace stream. (Its third engine was the
// deleted worker pool.)
func TestDeterminismThreeWay(t *testing.T) {
	meshes := []noc.Coord{
		{X: 2, Y: 1, Z: 1},
		{X: 2, Y: 2, Z: 1},
		{X: 4, Y: 2, Z: 2},
	}
	for _, dims := range meshes {
		n := dims.X * dims.Y * dims.Z
		for _, w := range meshWorkloads(n) {
			name := fmt.Sprintf("%dx%dx%d/%s", dims.X, dims.Y, dims.Z, w.name)
			if testing.Short() && n > 4 {
				continue
			}
			t.Run(name, func(t *testing.T) {
				allEngines(t, name, func() (string, error) {
					return fingerprint(Options{Dims: dims}, w)
				})
			})
		}
	}
}

// TestDeterminismTraceAndState drives a mixed multi-node workload under
// every engine and compares the complete observable machine state (the
// single-scenario ancestor of TestDeterminismThreeWay, kept for its
// 4-node caching configuration).
func TestDeterminismTraceAndState(t *testing.T) {
	workload := func() (string, error) {
		return fingerprint(Options{Nodes: 4, Caching: true}, meshWorkloads(4)[0])
	}
	allEngines(t, "trace+state", workload)
}

// TestDeterminismLockstep steps naive and event-engine machines in strict
// lockstep (via Machine.Step, no fast-forward jumps)
// and asserts identical per-cycle trace streams — the cycle-for-cycle form
// of the equivalence the fast-forward path then builds on.
func TestDeterminismLockstep(t *testing.T) {
	build := func(naive bool) (*Sim, error) {
		s, err := NewSim(Options{Nodes: 2, NaiveEngine: naive})
		if err != nil {
			return nil, err
		}
		err = s.LoadASM(0, 0, 0, `
    movi i1, #4100
    movi i2, #777
    st [i1], i2
    ld i3, [i1]
    add i4, i3, #1
    halt
`)
		return s, err
	}
	a, err := build(true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := build(false)
	if err != nil {
		t.Fatal(err)
	}
	tr := func(s *Sim) string { return s.Recorder.Timeline(s.Recorder.Events) }
	for i := 0; i < 2000; i++ {
		a.M.Step()
		b.M.Step()
		if a.M.Cycle != b.M.Cycle {
			t.Fatalf("cycle skew at step %d: %d vs %d", i, a.M.Cycle, b.M.Cycle)
		}
	}
	if tr(a) != tr(b) {
		t.Fatalf("trace streams diverged:\n--- naive ---\n%s\n--- event ---\n%s", tr(a), tr(b))
	}
	if got, want := b.Reg(0, 0, 0, 4), a.Reg(0, 0, 0, 4); got != want {
		t.Fatalf("final i4: event %d vs naive %d", got, want)
	}
}

// TestEngineStartsNoGoroutines: every machine steps its chips on the
// calling goroutine. A 4x4x2 mesh built with the deprecated Workers option
// runs 200 cycles with every chip busy and starts no goroutine. (The count
// may fall while it runs: a goroutine an earlier test left may exit.)
func TestEngineStartsNoGoroutines(t *testing.T) {
	s, err := NewSim(Options{Dims: noc.Coord{X: 4, Y: 4, Z: 2}, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.M.Close()
	for n := 0; n < s.M.NumNodes(); n++ {
		if err := s.LoadASM(n, 0, 0, `
    movi i1, #0
    movi i2, #1000
spin:
    add i1, i1, #1
    lt i3, i1, i2
    brt i3, spin
    halt
`); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	for s.M.Cycle < 200 {
		s.M.Step()
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("stepping started %d goroutines, want 0", got-before)
	}
	for n := 0; n < s.M.NumNodes(); n++ {
		if c := s.M.Chip(n); c.InstsIssued < 100 {
			t.Fatalf("node %d issued %d instructions in 200 cycles: the mesh was not busy", n, c.InstsIssued)
		}
	}
}

// meshSmoothFor sizes the determinism-test smoothing grid: 32 elements
// per node keeps the matrix fast while still crossing page boundaries.
func meshSmoothFor(nodes int) (*workload.MeshSmooth, error) {
	return workload.NewMeshSmooth(nodes, nodes*32)
}

// neighborSrc / neighborAddr adapt the workload generator to a Sim.
func neighborSrc(s *Sim, node, nodes, msgs int) string {
	return workload.NeighborExchangeSrc(node, nodes, msgs, s.RT.DIPRemoteWrite, s.HomeBase)
}

func neighborAddr(s *Sim, n, w int) uint64 {
	return workload.NeighborExchangeAddr(s.HomeBase, n, w)
}
