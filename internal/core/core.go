// Package core is the public facade of the M-Machine reproduction: it wires
// the MAP chips, mesh network, global translation, and software runtime
// into a ready-to-use simulator, and provides the experiment harness that
// regenerates every quantitative result in the paper (see the functions in
// table1.go, figure9.go, stencil.go, and experiments.go).
//
// Quick start:
//
//	sim, _ := core.NewSim(core.Options{Nodes: 2})
//	sim.LoadASM(0, 0, 0, "movi i1, #6\nmul i2, i1, #7\nhalt")
//	sim.Run(10000)
//	fmt.Println(sim.Reg(0, 0, 0, 2)) // 42
//
// Beyond building and driving machines (LoadASM/LoadUserASM/LoadProgram,
// Run/RunUntil, Poke/Peek, Stats), the facade exposes the checkpoint
// subsystem — Sim.Save writes a versioned snapshot of the complete
// simulation state, Sim.Restore replaces a compatible machine's state
// all-or-nothing, and Sim.Fork clones a simulator for what-if runs from
// a common prefix (see snapshot.go and DESIGN.md, "Checkpoint/restore")
// — and the declarative workload scenarios: ScenarioFromDSL /
// ScenarioFromFile compile .wl files (docs/wdsl.md) and Scenario.Run
// executes them with per-phase cycle accounting (wdsl.go).
package core

import (
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/chip"
	"repro/internal/cluster"
	"repro/internal/gp"
	"repro/internal/guard"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/rt"
	"repro/internal/trace"
)

// Options configures a simulator instance.
type Options struct {
	// Nodes is the machine size; the mesh is X-major: Nodes = X unless
	// Dims is set explicitly.
	Nodes int
	// Dims overrides the mesh shape (X*Y*Z nodes).
	Dims noc.Coord
	// Caching enables software caching of remote data in local DRAM
	// (Section 4.3); off, remote accesses are non-cached messages.
	Caching bool
	// Chip overrides the default chip configuration when non-nil.
	Chip *chip.Config
	// HomePages maps the first HomePages GTLB pages per node: node i homes
	// virtual words [i*1024*HomePages, (i+1)*1024*HomePages). Default 4
	// (4096 words per node). Set -1 to skip automatic mapping.
	HomePages int
	// NaiveEngine selects the reference per-cycle loop (Machine.StepAll,
	// no idle fast-forward) instead of the event-driven engine. The two
	// are bit-identical (see TestDeterminismEngines); the naive loop is
	// the debug baseline the engine is validated against.
	NaiveEngine bool
	// Workers selects the parallel chip engine: busy cycles shard the chip
	// phase across this many goroutines (machine.Config.Workers). 0 and 1
	// are serial, -1 uses GOMAXPROCS. Bit-identical to the serial engines
	// on any mesh (TestDeterminismThreeWay); it pays off once the mesh is
	// large and busy — use it for ≥ 16-node scenarios.
	Workers int
	// Timeout is the wall-clock watchdog for supervised execution
	// (Scenario.Run/RunSim): exceeding it stops the run between cycles
	// and reports a *guard.StallError. 0 defers to the scenario file's
	// deadline directive (and disables the watchdog if the file has
	// none). Supervision never alters simulated state — supervised runs
	// are bit-identical to unsupervised ones.
	Timeout time.Duration
	// CycleBudget caps the total machine cycles a supervised scenario
	// may advance, across all its run phases; exhaustion is reported as
	// a *guard.StallError at a deterministic cycle. 0 defers to the
	// scenario file's budget directive.
	CycleBudget int64
	// CrashDump, when non-empty, is where supervised execution writes a
	// crash-dump snapshot (a regular `msim -restore`-loadable snapshot)
	// on a panic, timeout, or budget exhaustion.
	CrashDump string
}

// defaultNaiveEngine and defaultWorkers are test hooks: the determinism
// regression (engine_test.go, underMode) sets them so that every Sim built
// afterwards — including the ones experiment harnesses construct
// internally — runs under the engine being compared. Nothing outside this
// package's tests writes them.
var (
	defaultNaiveEngine bool // force the naive reference loop
	defaultWorkers     int  // worker count applied when Options.Workers is zero
)

// Sim is a booted M-Machine with its runtime installed.
type Sim struct {
	M        *machine.Machine
	RT       *rt.Runtime
	Recorder *trace.Recorder

	// HomeBase(i) = first virtual word homed on node i when automatic
	// mapping is active.
	homeSpan uint64
}

// NewSim builds and boots a machine.
func NewSim(o Options) (*Sim, error) {
	cfg := machine.DefaultConfig()
	if o.Chip != nil {
		cfg.Chip = *o.Chip
	}
	switch {
	case o.Dims != (noc.Coord{}):
		cfg.Dims = o.Dims
	case o.Nodes > 0:
		cfg.Dims = noc.Coord{X: o.Nodes, Y: 1, Z: 1}
	}
	cfg.Workers = o.Workers
	if cfg.Workers == 0 {
		cfg.Workers = defaultWorkers
	}
	m := machine.New(cfg)
	m.Naive = o.NaiveEngine || defaultNaiveEngine
	r, err := rt.Install(m, rt.Options{Caching: o.Caching})
	if err != nil {
		return nil, err
	}
	s := &Sim{M: m, RT: r, Recorder: &trace.Recorder{}}
	m.SetTrace(s.Recorder)

	pages := o.HomePages
	if pages == 0 {
		pages = 4
	}
	if pages > 0 {
		s.homeSpan = uint64(pages) * 1024
		for i := 0; i < m.NumNodes(); i++ {
			if err := m.MapNodeRange(uint64(i)*s.homeSpan, uint64(pages), i); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// HomeBase returns the first virtual word address homed on node i under the
// automatic mapping.
func (s *Sim) HomeBase(i int) uint64 { return uint64(i) * s.homeSpan }

// LoadASM assembles src and loads it on (node, vthread, cluster) as a
// privileged system thread (raw addressing allowed).
func (s *Sim) LoadASM(node, vthread, cl int, src string) error {
	p, err := asm.Assemble(fmt.Sprintf("n%dv%dc%d", node, vthread, cl), src)
	if err != nil {
		return err
	}
	s.M.Chip(node).LoadProgram(vthread, cl, p, true)
	return nil
}

// LoadUserASM is LoadASM for an unprivileged thread: memory and SEND
// operands must be guarded pointers (use GrantPointer).
func (s *Sim) LoadUserASM(node, vthread, cl int, src string) error {
	p, err := asm.Assemble(fmt.Sprintf("n%dv%dc%d", node, vthread, cl), src)
	if err != nil {
		return err
	}
	s.M.Chip(node).LoadProgram(vthread, cl, p, false)
	return nil
}

// LoadProgram installs an already-assembled program.
func (s *Sim) LoadProgram(node, vthread, cl int, p *isa.Program, privileged bool) {
	s.M.Chip(node).LoadProgram(vthread, cl, p, privileged)
}

// GrantPointer places a guarded pointer in a thread's integer register, the
// way system software provisions a user thread's capabilities.
func (s *Sim) GrantPointer(node, vthread, cl, reg int, perms gp.Perm, segLen uint8, addr uint64) error {
	p, err := gp.Make(perms, segLen, addr)
	if err != nil {
		return err
	}
	s.M.Chip(node).Thread(vthread, cl).Ints.Set(reg, isa.Word{Bits: uint64(p), Ptr: true})
	return nil
}

// SetReg writes an integer register before a run.
func (s *Sim) SetReg(node, vthread, cl, reg int, v uint64) {
	s.M.Chip(node).Thread(vthread, cl).Ints.Set(reg, isa.W(v))
}

// Reg reads an integer register.
func (s *Sim) Reg(node, vthread, cl, reg int) uint64 {
	return s.M.Chip(node).Thread(vthread, cl).Ints.Get(reg).Bits
}

// FReg reads a floating-point register's bits.
func (s *Sim) FReg(node, vthread, cl, reg int) uint64 {
	return s.M.Chip(node).Thread(vthread, cl).FPs.Get(reg).Bits
}

// Run executes until completion (see machine.Run) or maxCycles.
func (s *Sim) Run(maxCycles int64) (int64, error) { return s.M.Run(maxCycles) }

// RunSupervised is Run under a guard.Supervisor: panics are contained as
// *guard.CrashError, opt's wall-clock and cycle watchdogs are enforced,
// and on failure a diagnostic (and, when opt.DumpPath is set, a
// restorable crash-dump snapshot) is attached. Simulated state is
// bit-identical to an unsupervised Run. If the returned error satisfies
// guard.IsHang, the machine is wedged and must be abandoned without
// calling Close.
func (s *Sim) RunSupervised(maxCycles int64, opt guard.Options) (int64, error) {
	return guard.New(s.M, opt).Run(maxCycles)
}

// RunUntil steps until pred holds.
func (s *Sim) RunUntil(pred func() bool, maxCycles int64) (int64, error) {
	return s.M.RunUntil(pred, maxCycles)
}

// Poke/Peek access a node's memory through the boot path.
func (s *Sim) Poke(node int, vaddr, w uint64) error { return s.M.Poke(node, vaddr, w) }

// Peek reads a word of a node's memory.
func (s *Sim) Peek(node int, vaddr uint64) (uint64, error) { return s.M.Peek(node, vaddr) }

// MapLocal creates a local page mapping on a node (see machine.MapLocal).
func (s *Sim) MapLocal(node int, vpn uint64, st mem.BlockStatus, prime bool) uint64 {
	return s.M.MapLocal(node, vpn, st, prime)
}

// ThreadStatus reports an H-Thread's lifecycle state.
func (s *Sim) ThreadStatus(node, vthread, cl int) cluster.ThreadStatus {
	return s.M.Chip(node).Thread(vthread, cl).Status
}

// Stats summarizes machine counters for reports.
type Stats struct {
	Cycles        int64
	Instructions  uint64
	Operations    uint64
	MsgsInjected  uint64
	MsgsDelivered uint64
	LTLBFaults    uint64
	StatusFaults  uint64
	SyncFaults    uint64
}

// Stats gathers counters across all nodes.
func (s *Sim) Stats() Stats {
	st := Stats{Cycles: s.M.Cycle}
	st.MsgsInjected = s.M.Net.Injected
	st.MsgsDelivered = s.M.Net.Delivered
	for _, c := range s.M.Chips {
		st.Instructions += c.InstsIssued
		st.Operations += c.OpsIssued
		st.LTLBFaults += c.Mem.LTLBFaults
		st.StatusFaults += c.Mem.StatusFaults
		st.SyncFaults += c.Mem.SyncFaults
	}
	return st
}
