package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
)

// program is one generated assembly program and the H-Thread slot it
// loads on.
type program struct {
	node, vthread, cluster int
	src                    string
}

// poke is one word of staged memory (the page is mapped first).
type poke struct {
	node       int
	addr, word uint64
}

// simInput is everything the simulator receives for one repetition of a
// machine workload: generated by a workload's generator from the seed,
// never by the simulator.
type simInput struct {
	opts  core.Options
	pokes []poke    // staged through the boot path before any program loads
	stage []program // loaded and run to completion during set-up
	work  []program // the timed region runs these to completion
	// sliceCycles is the length of one operation in machine cycles: the
	// timed region advances the machine slice by slice until it finishes.
	sliceCycles int64
	maxCycles   int64                   // bound on the whole repetition
	check       func(s *core.Sim) error // workload outputs against the host-side model
	sizes       map[string]int64        // recorded in the result so a file is self-describing
}

// buildTimes accumulates the set-up work attributable to single layers.
type buildTimes struct {
	assemble  time.Duration
	assembles int64
	compile   time.Duration
	compiles  int64
}

// build boots a machine and brings it to the start of the timed region:
// boot, staging pokes, assemble + load + run of the staging programs,
// assemble + load of the work programs.
func (in *simInput) build(bt *buildTimes) (*core.Sim, error) {
	s, err := core.NewSim(in.opts)
	if err != nil {
		return nil, err
	}
	mapped := map[[2]uint64]bool{}
	for _, p := range in.pokes {
		key := [2]uint64{uint64(p.node), p.addr / mem.PageWords}
		if !mapped[key] {
			s.MapLocal(p.node, key[1], mem.BSReadWrite, true)
			mapped[key] = true
		}
		if err := s.Poke(p.node, p.addr, p.word); err != nil {
			s.M.Close()
			return nil, err
		}
	}
	load := func(ps []program) error {
		for _, p := range ps {
			t0 := now()
			prog, err := asm.Assemble(fmt.Sprintf("n%dv%dc%d", p.node, p.vthread, p.cluster), p.src)
			bt.assemble += now() - t0
			bt.assembles++
			if err != nil {
				return err
			}
			s.LoadProgram(p.node, p.vthread, p.cluster, prog, true)
		}
		return nil
	}
	if len(in.stage) > 0 {
		err := load(in.stage)
		if err == nil {
			_, err = s.Run(in.maxCycles)
		}
		if err != nil {
			s.M.Close()
			return nil, fmt.Errorf("staging: %w", err)
		}
	}
	if err := load(in.work); err != nil {
		s.M.Close()
		return nil, err
	}
	return s, nil
}

// simState is the exact simulated outcome of one repetition; every
// repetition of one input must reproduce it bit for bit.
type simState struct {
	stats  core.Stats
	events int    // len(Sim.Recorder.Events)
	hops   uint64 // Network.TotalHops
	digest string // hex sha256 of Sim.Save
}

// stateOf reads a machine's outcome; the digest costs a full snapshot.
func stateOf(s *core.Sim) (simState, error) {
	h := sha256.New()
	err := s.Save(h)
	return simState{stats: s.Stats(), events: len(s.Recorder.Events), hops: s.M.Net.TotalHops,
		digest: hex.EncodeToString(h.Sum(nil))}, err
}

// digest48 folds a hex digest into a number a JSON metric can carry
// exactly: its first 48 bits.
func digest48(hexDigest string) float64 {
	raw, err := hex.DecodeString(hexDigest)
	if err != nil || len(raw) < 8 {
		return 0
	}
	return float64(binary.BigEndian.Uint64(raw[:8]) >> 16)
}

// checkState compares one repetition's exact simulated outcome with the
// first one's (which it records).
func checkState(ref **simState, st simState) error {
	if *ref == nil {
		*ref = &st
		return nil
	}
	if st != **ref {
		return fmt.Errorf("simulated outcome differs from the first repetition's: %+v vs %+v", st, **ref)
	}
	return nil
}

// allocDelta is the heap allocation of timed regions, from runtime.MemStats.
type allocDelta struct {
	bytes, mallocs uint64
	cycles         int64
}

// machineLoop is the looper shared by the four machine workloads. A
// repetition builds a fresh machine (a set-up sample) and advances it to
// completion in slices of in.sliceCycles machine cycles; one slice is one
// operation. All slices of a repetition run on the same machine, the way
// a long simulation does, and every repetition must end on the same
// state, outputs and digest.
type machineLoop struct {
	in *simInput
	// parProbe adds, at the end of a traced run, one repetition of the
	// identical input on the parallel engine (machine.par_* metrics).
	parProbe bool
	ref      *simState
	sim      *core.Sim
	finished bool      // the slice just run completed the machine
	rates    []float64 // node-cycles/s of untraced full-load slices
}

func (l *machineLoop) sizes() map[string]int64 { return l.in.sizes }
func (l *machineLoop) state() simState         { return *l.ref }

// setup builds the next machine, on the serial event engine (which the
// traced driver is, taken apart).
func (l *machineLoop) setup(c *collect) error {
	if l.sim != nil {
		l.sim.M.Close() // abandoned by a failed operation
	}
	s, err := l.in.build(&c.build)
	l.sim = s
	return err
}

// op advances the machine one slice: through the traced driver when
// traced, through Sim.Run otherwise. Machine.Run pads its bound by the
// quiet window, so the slice passes the bound less that padding.
func (l *machineLoop) op(c *collect, traced, measureAlloc bool) (opSample, error) {
	s := l.sim
	l.finished = false
	bound := l.in.sliceCycles - machine.QuietWindow
	var before runtime.MemStats
	if measureAlloc {
		runtime.ReadMemStats(&before)
	}
	advance := func(cycles int64) error {
		var err error
		if traced {
			_, err = drive(s.M, cycles, c.t, &c.drive)
		} else {
			_, err = s.Run(cycles)
		}
		return err
	}
	start := s.M.Cycle
	t0 := now()
	if traced {
		c.t.begin(spRun)
	}
	err := advance(bound)
	switch {
	case err == nil:
		// Run also returns once every user thread has halted, even with
		// messages still in flight at the slice's end: drain them (inside
		// this partial, unsampled operation) so that the outputs are final.
		l.finished = true
		err = advance(l.in.maxCycles)
	case errors.Is(err, machine.ErrCycleLimit) && s.M.Cycle <= l.in.maxCycles:
		// The slice ended; the machine has not finished.
		l.finished = false
		err = nil
	}
	if traced {
		c.t.end()
	}
	wall := now() - t0
	cycles := s.M.Cycle - start
	if measureAlloc {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		c.allocs.bytes += after.TotalAlloc - before.TotalAlloc
		c.allocs.mallocs += after.Mallocs - before.Mallocs
		c.allocs.cycles += cycles
	}
	// A slice is a sample only under full load: every work thread still
	// running when it ends. The slices after the first thread halts do
	// less work per cycle, and the fastest-slice statistics would pick
	// them.
	running := 0
	for _, ch := range s.M.Chips {
		running += runningUserOf(ch)
	}
	sample := opSample{nodeCycles: cycles * int64(s.M.NumNodes()), wall: wall, done: l.finished,
		partial: l.finished || running < len(l.in.work)}
	if !traced && !sample.partial && err == nil {
		l.rates = append(l.rates, float64(sample.nodeCycles)/wall.Seconds())
	}
	return sample, err
}

// verify checks a finished machine against the host-side model and
// against the first repetition, then releases it. Unfinished machines
// have nothing to check yet.
func (l *machineLoop) verify() error {
	if !l.finished {
		return nil
	}
	s := l.sim
	l.sim = nil
	defer s.M.Close()
	if err := l.in.check(s); err != nil {
		return err
	}
	st, err := stateOf(s)
	if err != nil {
		return err
	}
	return checkState(&l.ref, st)
}

// finish adds the layer probes that need this workload's own machine: one
// more repetition — on the parallel engine (core.Options.Workers =
// GOMAXPROCS) when parProbe is set — which must end on the digest of all
// the others, then the snapshot costs of that finished machine. The
// parallel engine's rate is reported against the serial rate of the same
// process, as medians: its per-cycle barrier makes its fastest slices
// lucky coincidences of two undisturbed CPUs, not a floor.
func (l *machineLoop) finish(c *collect) error {
	if l.sim != nil {
		l.sim.M.Close()
		l.sim = nil
	}
	in := *l.in
	if l.parProbe {
		in.opts.Workers = -1
	}
	p := &machineLoop{in: &in}
	if err := p.setup(&collect{}); err != nil {
		return err
	}
	defer func() { p.sim.M.Close() }()
	for !p.finished {
		if _, err := p.op(&collect{}, false, false); err != nil {
			return err
		}
	}
	if err := in.check(p.sim); err != nil {
		return err
	}
	st, err := stateOf(p.sim)
	if err == nil {
		err = checkState(&l.ref, st)
	}
	if err != nil {
		return err
	}
	if l.parProbe && len(l.rates) > 0 {
		c.layer["machine.par_node_cycles_per_s"] = median(p.rates)
		c.layer["machine.par_ratio"] = median(p.rates) / median(l.rates)
	}
	return snapProbe(p.sim, c)
}
