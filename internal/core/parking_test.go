package core_test

// Parking is invisible (DESIGN.md, "Issue scan"): a slot whose instruction
// waits on an empty source operand is parked on it, and the issue scan
// re-tests that one operand instead of the whole instruction — a net/evq
// wait through the queue it resolved to when it parked. A machine that
// parks must step exactly like one whose every Parked mask is zeroed
// before each Step, which forces the full ready check on every slot, and
// like one whose resolved queues are cleared before each Step, which
// re-tests every parked wait as an operand.

import (
	"fmt"
	"testing"

	"repro/internal/chip"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/rt"
	"repro/internal/wgen"
	"repro/internal/workload"
)

// parkTwin steps a parking machine a beside a full-scanning twin b and a
// parking machine u whose queue waits stay unresolved, and compares a and
// u with b after every Step.
type parkTwin struct {
	t       *testing.T
	a, b, u *core.Sim
	steps   int
	// [node][cluster] slot masks of a: parked before the current Step,
	// parked after some Step, and unparked by some Step.
	prev, ever, woken [][]uint8
}

func newParkTwin(t *testing.T, boot func() (*core.Sim, error)) *parkTwin {
	t.Helper()
	tw := &parkTwin{t: t}
	for _, s := range []**core.Sim{&tw.a, &tw.b, &tw.u} {
		var err error
		if *s, err = boot(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup((*s).M.Close)
	}
	for _, m := range []*[][]uint8{&tw.prev, &tw.ever, &tw.woken} {
		*m = make([][]uint8, len(tw.a.M.Chips))
		for n, c := range tw.a.M.Chips {
			(*m)[n] = make([]uint8, len(c.Clusters))
		}
	}
	return tw
}

// parkedEver reports whether slot vt of cluster cl on node n of the
// parking machine was parked after some Step.
func (tw *parkTwin) parkedEver(n, vt, cl int) bool { return tw.ever[n][cl]&(1<<vt) != 0 }

// woke reports whether a Step of the parking machine unparked one of the
// slots in mask, on any node and cluster: the slot's wait filled.
func (tw *parkTwin) woke(mask uint8) bool {
	for _, node := range tw.woken {
		for _, set := range node {
			if set&mask != 0 {
				return true
			}
		}
	}
	return false
}

// all applies f to the three simulators.
func (tw *parkTwin) all(f func(s *core.Sim) error) {
	tw.t.Helper()
	for _, s := range []*core.Sim{tw.a, tw.b, tw.u} {
		if err := f(s); err != nil {
			tw.t.Fatal(err)
		}
	}
}

// step advances the three machines one cycle and fails the test on the
// first difference in a thread's stall count, issue count, PC or status,
// or a chip's SendsBlocked; every 64 Steps it also compares the Save
// digests.
func (tw *parkTwin) step() {
	t := tw.t
	t.Helper()
	for n, c := range tw.a.M.Chips {
		for cl, cc := range c.Clusters {
			tw.prev[n][cl] = cc.Parked
		}
	}
	tw.a.M.Step()
	for _, c := range tw.b.M.Chips {
		for _, cc := range c.Clusters {
			cc.Parked = 0
		}
	}
	tw.b.M.Step()
	for _, c := range tw.u.M.Chips {
		for _, cc := range c.Clusters {
			clear(cc.WaitQ[:])
		}
	}
	tw.u.M.Step()
	tw.steps++
	for n, ca := range tw.a.M.Chips {
		for cl, cc := range ca.Clusters {
			tw.ever[n][cl] |= cc.Parked
			tw.woken[n][cl] |= tw.prev[n][cl] &^ cc.Parked
		}
	}
	for _, side := range []struct {
		name string
		s    *core.Sim
	}{{"parking", tw.a}, {"parking on unresolved queues", tw.u}} {
		for n, ca := range side.s.M.Chips {
			cb := tw.b.M.Chips[n]
			if ca.SendsBlocked != cb.SendsBlocked {
				t.Fatalf("cycle %d node %d: SendsBlocked %d %s, %d full scan", tw.a.M.Cycle, n, ca.SendsBlocked, side.name, cb.SendsBlocked)
			}
			for cl, cc := range ca.Clusters {
				for vt, ta := range cc.Threads {
					tb := cb.Clusters[cl].Threads[vt]
					if ta.StallCycles != tb.StallCycles || ta.Issued != tb.Issued || ta.PC != tb.PC || ta.Status != tb.Status {
						t.Fatalf("cycle %d node %d slot %d cluster %d: %s stalls=%d issued=%d pc=%d %v, full scan stalls=%d issued=%d pc=%d %v",
							tw.a.M.Cycle, n, vt, cl, side.name, ta.StallCycles, ta.Issued, ta.PC, ta.Status,
							tb.StallCycles, tb.Issued, tb.PC, tb.Status)
					}
				}
			}
		}
		if tw.steps%64 == 0 {
			if da, db := digestOf(t, side.s), digestOf(t, tw.b); da != db {
				t.Fatalf("cycle %d: digest %s %s, %s full scan", tw.a.M.Cycle, da, side.name, db)
			}
		}
	}
}

// scenario drives a generated scenario's plan on the three machines: run
// phases Step by Step until the parking machine has been quiet for the
// completion window or the phase budget ends, every other step through
// ScenarioRun. Expectations are skipped, as a phase cut at its budget
// need not have finished.
func (tw *parkTwin) scenario(sc *core.Scenario) {
	t := tw.t
	ra, rb, ru := sc.NewRun(tw.a), sc.NewRun(tw.b), sc.NewRun(tw.u)
	for !ra.Done() {
		pos := ra.Position()
		st := sc.Plan.Steps[pos.Next]
		switch st.Kind {
		case workload.PlanExpectReg, workload.PlanExpectMem, workload.PlanCheck:
		case workload.PlanRun:
			for ran, idle := int64(0), 0; ran < st.Budget && idle < machine.QuietWindow; ran++ {
				before := tw.a.Stats().Instructions
				tw.step()
				if tw.a.M.UserDone() && tw.a.M.Quiescent() && tw.a.Stats().Instructions == before {
					idle++
				} else {
					idle = 0
				}
			}
		default:
			for _, r := range []*core.ScenarioRun{ra, rb, ru} {
				if _, err := r.Advance(nil, 0); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		pos.Next++
		for _, r := range []*core.ScenarioRun{ra, rb, ru} {
			if err := r.Seek(pos); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// parkKernel is one hand-written case: load installs the programs, poke
// (if set) changes the three machines before the Step of the given cycle, and
// exercised checks the parking machine at the end for the mechanism the
// case is about, including which slots parked.
type parkKernel struct {
	name      string
	opts      core.Options
	cycles    int64
	load      func(s *core.Sim) error
	poke      func(s *core.Sim, cycle int64) error
	exercised func(tw *parkTwin) error
}

func parkKernels() []parkKernel {
	spin := "loop:\n    add i1, i1, #1\n    br loop\n"
	noCredits := chip.DefaultConfig()
	noCredits.SendCredits = 0
	return []parkKernel{
		{
			// Slots 0 and 1 of cluster 2 issue on alternate cycles; the
			// message handler in slot 4 sits parked on net between them,
			// so the rotation passes it every other cycle.
			name: "two-ready-one-parked", opts: core.Options{Nodes: 2}, cycles: 300,
			load: func(s *core.Sim) error {
				if err := s.LoadASM(0, 0, 2, spin); err != nil {
					return err
				}
				return s.LoadASM(0, 1, 2, spin)
			},
			exercised: func(tw *parkTwin) error {
				if !tw.parkedEver(0, isa.EventSlot, 2) {
					return fmt.Errorf("the message handler never parked")
				}
				if th := tw.a.M.Chip(0).Thread(isa.EventSlot, 2); th.StallCycles == 0 || th.Issued != 0 {
					return fmt.Errorf("message handler stalls=%d issued=%d, want passed over and idle", th.StallCycles, th.Issued)
				}
				return nil
			},
		},
		{
			// No send credits: the SEND's ready check counts SendsBlocked
			// every cycle, and the FP op beside it waits on f2, which
			// nothing fills.
			name: "throttled-send", opts: core.Options{Nodes: 2, Chip: &noCredits}, cycles: 200,
			load: func(s *core.Sim) error {
				return s.LoadASM(0, 0, 0, fmt.Sprintf(`
    movi i1, #%d
    movi i2, #%d
    empty f2
    send i1, i2, i8, #1 | fadd f1, f2, f3
    halt
`, s.HomeBase(1)+8, s.RT.DIPRemoteWrite))
			},
			exercised: func(tw *parkTwin) error {
				if tw.a.M.Chip(0).SendsBlocked == 0 {
					return fmt.Errorf("the SEND was never throttled")
				}
				if tw.parkedEver(0, 0, 0) {
					return fmt.Errorf("the slot holding the SEND parked")
				}
				return nil
			},
		},
		{
			// Cluster 0 broadcasts gcc1 after an FP divide per round; the
			// other clusters wait on it and empty their replica. Slot 1 of
			// cluster 1 waits on gcc2, which nothing broadcasts until a
			// program loaded over the parked slot does.
			name: "gcc-barrier", opts: core.Options{Nodes: 1}, cycles: 400,
			load: func(s *core.Sim) error {
				if err := s.LoadASM(0, 0, 0, `
    movi i1, #1
loop:
    fdiv f1, f2, f3
    fadd f4, f1, f1
    eq gcc1, i1, i1
    add i9, i9, #1
    lt i8, i9, #20
    brt i8, loop
    halt
`); err != nil {
					return err
				}
				for cl := 1; cl < 4; cl++ {
					if err := s.LoadASM(0, 0, cl, `
loop:
    mov i5, gcc1
    empty gcc1
    add i9, i9, #1
    br loop
`); err != nil {
						return err
					}
				}
				return s.LoadASM(0, 1, 1, "    mov i6, gcc2\n    halt\n")
			},
			poke: func(s *core.Sim, cycle int64) error {
				if cycle != 150 {
					return nil
				}
				if th := s.M.Chip(0).Thread(1, 1); th.PC != 0 || th.Issued != 0 {
					return fmt.Errorf("slot 1 of cluster 1 is not waiting on gcc2 at cycle %d", cycle)
				}
				return s.LoadASM(0, 1, 1, "    movi i1, #1\n    eq gcc2, i1, i1\n    halt\n")
			},
			exercised: func(tw *parkTwin) error {
				s := tw.a
				for cl := 1; cl < 4; cl++ {
					if !tw.parkedEver(0, 0, cl) {
						return fmt.Errorf("the waiter on cluster %d never parked on gcc1", cl)
					}
				}
				if !tw.parkedEver(0, 1, 1) {
					return fmt.Errorf("slot 1 of cluster 1 never parked on gcc2")
				}
				if st := s.ThreadStatus(0, 1, 1); st != cluster.ThreadHalted {
					return fmt.Errorf("the program loaded over the parked slot is %v, want halted", st)
				}
				if st := s.ThreadStatus(0, 0, 0); st != cluster.ThreadHalted {
					return fmt.Errorf("the barrier producer is %v, want halted", st)
				}
				return nil
			},
		},
		{
			// A load-use chain over eight pages that start out of the
			// LTLB: each first touch wakes the LTLB handler, and each add
			// waits on its load.
			name: "ltlb-load-use", opts: core.Options{Nodes: 1}, cycles: 1500,
			load: func(s *core.Sim) error {
				for vpn := uint64(0); vpn < 8; vpn++ {
					s.MapLocal(0, vpn, mem.BSReadWrite, false)
				}
				return s.LoadASM(0, 0, 0, `
    movi i1, #16
loop:
    ld i2, [i1]
    add i3, i3, i2
    add i1, i1, #520
    add i9, i9, #1
    lt i8, i9, #7
    brt i8, loop
    halt
`)
			},
			exercised: func(tw *parkTwin) error {
				if !tw.parkedEver(0, 0, 0) {
					return fmt.Errorf("the chain never parked on a load")
				}
				s := tw.a
				if f := s.M.Chip(0).Mem.LTLBFaults; f != 7 || s.ThreadStatus(0, 0, 0) != cluster.ThreadHalted {
					return fmt.Errorf("%d LTLB faults, chain %v; want 7 and halted", f, s.ThreadStatus(0, 0, 0))
				}
				return nil
			},
		},
		{
			// A user thread faults on an untagged load after a few
			// instructions; the record wakes the parked exception handler,
			// while a thread on cluster 1 keeps issuing.
			name: "user-fault", opts: core.Options{Nodes: 2}, cycles: 200,
			load: func(s *core.Sim) error {
				if err := s.LoadUserASM(0, 0, 0, `
    movi i1, #64
    add i2, i1, #1
    add i3, i2, #1
    ld i4, [i3]
    halt
`); err != nil {
					return err
				}
				return s.LoadASM(0, 0, 1, spin)
			},
			exercised: func(tw *parkTwin) error {
				if !tw.parkedEver(0, isa.ExceptionSlot, 0) {
					return fmt.Errorf("the exception handler never parked")
				}
				if n := rt.ExceptionCount(tw.a.M, 0); n != 1 {
					return fmt.Errorf("exception log holds %d records, want 1", n)
				}
				return nil
			},
		},
	}
}

var parkEngines = forkEngines[:3] // naive, event, parallel2

func TestParkingMatchesFullScan(t *testing.T) {
	for _, k := range parkKernels() {
		for _, eng := range parkEngines {
			t.Run(k.name+"/"+eng.name, func(t *testing.T) {
				opts := k.opts
				opts.NaiveEngine = eng.opts.NaiveEngine
				tw := newParkTwin(t, func() (*core.Sim, error) { return core.NewSim(opts) })
				tw.all(k.load)
				for tw.a.M.Cycle < k.cycles {
					if k.poke != nil {
						cycle := tw.a.M.Cycle
						tw.all(func(s *core.Sim) error { return k.poke(s, cycle) })
					}
					tw.step()
				}
				if err := k.exercised(tw); err != nil {
					t.Error(err)
				}
			})
		}
	}

	// Seed 3 is a message storm on four nodes, whose message handlers
	// wake from their parked net reads; 7, 11, 13 and 39 run GCC barrier
	// loops (11 beside spin loops on four nodes, 13 with caching on, 39
	// after local and granted-pointer walks), whose user slots wake from
	// their parked GCC reads.
	type parkSeed struct {
		seed  uint64
		slots uint8 // the slots that must wake from parking
	}
	seeds := []parkSeed{{3, 1 << isa.EventSlot}, {7, cluster.UserSlots}, {11, cluster.UserSlots}, {13, cluster.UserSlots}, {39, cluster.UserSlots}}
	if testing.Short() {
		seeds = []parkSeed{seeds[0], seeds[3]}
	}
	for _, c := range seeds {
		name, src := wgen.Source(c.seed)
		sc, err := core.ScenarioFromDSL(name+".wl", src)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Plan.Sweep != nil {
			t.Fatalf("seed %d is a sweep; pick non-sweep seeds", c.seed)
		}
		for _, eng := range parkEngines {
			t.Run(fmt.Sprintf("seed%d/%s", c.seed, eng.name), func(t *testing.T) {
				tw := newParkTwin(t, func() (*core.Sim, error) { return sc.NewSim(eng.opts) })
				tw.scenario(sc)
				if !tw.woke(c.slots) {
					t.Errorf("no slot in %06b woke from parking; the seed does not exercise it", c.slots)
				}
			})
		}
	}
}
