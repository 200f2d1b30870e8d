package core

// The experiment table: every quantitative result of the paper the
// simulator reproduces, E1–E14, in paper order (Experiments; `mbench -exp
// nope` lists the names). Each experiment prints its table and emits its
// metrics in one pass over its rows. This file holds the table, the
// paper's own numbers, the Figure 5 stencil schedules (E3), the Figure 6
// loop synchronization protocol (E4), the area model (E5), V-Thread
// latency tolerance (E6), SEND throttling (E7), GTLB interleaving (E8),
// guarded-pointer overhead (E9), synchronization bits (E10) and
// block-status caching of remote data (E11); Table 1 (E1) is in
// table1.go, Figure 9 (E2) in figure9.go, and the scaling extensions
// (E12–E14) in netsweep.go and gridsmooth.go.

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/area"
	"repro/internal/chip"
	"repro/internal/gtlb"
	"repro/internal/isa"
	"repro/internal/workload"
)

// Metric is one machine-readable quantity of an experiment's result.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
}

// Experiment is one reproduced result: Run returns its printed table and
// its metrics, every one a simulated (host-independent) number.
type Experiment struct {
	Name, Title string
	Run         func() (string, []Metric, error)
}

// Experiments returns the paper's experiments, E1–E14, in order.
func Experiments() []Experiment {
	return []Experiment{
		experiment("table1", "E1. Table 1: local and remote access times", expTable1),
		experiment("fig9", "E2. Figure 9: remote read and write timelines", expFigure9),
		experiment("stencil", "E3. Figure 5 / Section 3.1: stencil schedule depths", expStencil),
		experiment("loopsync", "E4. Figure 6: H-Thread loop synchronization via global CCs", expLoopSync),
		experiment("area", "E5. Sections 1/5: area and peak-performance model", expArea),
		experiment("vthreads", "E6. Section 3.2: V-Thread latency tolerance", expVThreads),
		experiment("throttle", "E7. Section 4.1: return-to-sender throttling", expThrottle),
		experiment("gtlb", "E8. Figure 8: GTLB block/cyclic interleaving", expGTLB),
		experiment("gp", "E9. Section 2: guarded-pointer overhead", expGuardedPtr),
		experiment("syncbits", "E10. Section 2: synchronization bits", expSyncBits),
		experiment("blockcache", "E11. Section 4.3: caching remote data in local DRAM", expBlockCache),
		experiment("netsweep", "E12 (extension). Remote read latency vs. mesh distance", expNetSweep),
		experiment("gridsmooth", "E13 (extension). Distributed grid smoothing: node scaling", expGridSmooth),
		experiment("meshscale", "E14 (extension). Large-mesh scaling", expMeshScale),
	}
}

// experiment makes a table entry of a run that writes one sheet.
func experiment(name, title string, run func(*sheet) error) Experiment {
	return Experiment{Name: name, Title: title, Run: func() (string, []Metric, error) {
		var s sheet
		if err := run(&s); err != nil {
			return "", nil, err
		}
		return s.b.String(), s.ms, nil
	}}
}

// sheet is an experiment's output under construction: the printed table
// and the metrics, written together row by row.
type sheet struct {
	b  strings.Builder
	ms []Metric
}

func (s *sheet) printf(format string, a ...any) { fmt.Fprintf(&s.b, format, a...) }

func (s *sheet) metric(name string, v float64, unit string) {
	s.ms = append(s.ms, Metric{Name: name, Value: v, Unit: unit})
}

func (s *sheet) cycles(name string, v int64) { s.metric(name, float64(v), "cycles") }

// paper holds the source paper's numbers that experiments print beside
// their own, keyed by experiment and then by the name of the metric the
// experiment emits for the same quantity (testdata/mbench.json's names).
var paper = map[string]map[string]int64{
	"table1": {
		"local_cache_hit_read": 3, "local_cache_hit_write": 2,
		"local_cache_miss_read": 13, "local_cache_miss_write": 19,
		"local_ltlb_miss_read": 61, "local_ltlb_miss_write": 67,
		"remote_cache_hit_read": 138, "remote_cache_hit_write": 74,
		"remote_cache_miss_read": 154, "remote_cache_miss_write": 90,
		"remote_ltlb_miss_read": 202, "remote_ltlb_miss_write": 138,
	},
	"stencil": {
		"7-point_x1_depth": 12, "7-point_x2_depth": 8,
		"27-point_x1_depth": 36, "27-point_x4_depth": 17,
	},
}

// --- E3: Figure 5 stencils ---

// expStencil runs the 7-point stencil on 1 and 2 H-Threads and the
// 27-point stencil on 1 and 4 H-Threads (paper: depth 12 -> 8 and 36 -> 17).
func expStencil(s *sheet) error {
	s.printf("%-18s %9s %12s %11s %8s %10s\n",
		"kernel", "H-Threads", "paper depth", "our depth", "cycles", "correct")
	for _, cfg := range []struct{ points, hthreads int }{{7, 1}, {7, 2}, {27, 1}, {27, 4}} {
		var st *workload.Stencil
		var err error
		if cfg.points == 7 {
			st, err = workload.Stencil7(cfg.hthreads)
		} else {
			st, err = workload.Stencil27(cfg.hthreads)
		}
		if err != nil {
			return err
		}
		_, cycles, err := runStencil(st, cfg.points)
		if err != nil {
			return err
		}
		base := fmt.Sprintf("%s_x%d", strings.Fields(st.Name)[0], st.HThreads)
		// runStencil fails on a wrong u, so every row is correct.
		s.printf("%-18s %9d %12d %11d %8d %10v\n",
			st.Name, st.HThreads, paper["stencil"][base+"_depth"], st.Depth, cycles, true)
		s.metric(base+"_depth", float64(st.Depth), "insts")
		s.cycles(base, cycles)
	}
	return nil
}

// runStencil is one E3 leg: it boots a one-node machine, stages the
// residuals and u, runs st's kernel and checks the computed u. It returns
// the machine (its statistics stay readable) and the run's cycles.
func runStencil(st *workload.Stencil, points int) (*Sim, int64, error) {
	s, err := NewSim(Options{Nodes: 1})
	if err != nil {
		return nil, 0, err
	}
	s.MapLocal(0, 0, 2, true) // page 0 primed read/write
	// Residuals r_i = i+1; u = 10. Expected: u + a*r_c + b*sum(neighbours)
	// with a=2, b=3.
	n := points - 1 // neighbour count
	sum := 0.0
	for i := 0; i < n; i++ {
		v := float64(i + 1)
		sum += v
		if err := s.Poke(0, st.RBase+uint64(i), math.Float64bits(v)); err != nil {
			return nil, 0, err
		}
	}
	rc := float64(n + 1)
	if err := s.Poke(0, st.RBase+uint64(n), math.Float64bits(rc)); err != nil {
		return nil, 0, err
	}
	if err := s.Poke(0, st.UAddr, math.Float64bits(10)); err != nil {
		return nil, 0, err
	}
	want := 10 + 2*rc + 3*sum

	for cl, p := range st.Programs {
		s.LoadProgram(0, 0, cl, p, true)
	}
	cycles, err := s.Run(100000)
	if err != nil {
		return nil, 0, err
	}
	bits, err := s.Peek(0, st.UAddr)
	if err != nil {
		return nil, 0, err
	}
	// want is a sum of small integers, exact in float64: compare exactly.
	if got := math.Float64frombits(bits); got != want {
		return nil, 0, fmt.Errorf("%s x%d computed %v, want %v", st.Name, st.HThreads, got, want)
	}
	return s, cycles, nil
}

// --- E4: Figure 6 loop synchronization ---

// expLoopSync measures the Figure 6 protocol's interlock overhead for 2
// and 4 H-Threads. Each configuration and its unsynchronized baseline
// run on fresh machines.
func expLoopSync(s *sheet) error {
	const iters = 100
	s.printf("%-10s %7s %14s %16s %14s\n",
		"H-Threads", "iters", "cycles/iter", "baseline/iter", "overhead/iter")
	for _, ht := range []int{2, 4} {
		_, cycles, err := runLoopSync(ht, iters)
		if err != nil {
			return err
		}

		base, err := NewSim(Options{Nodes: 1})
		if err != nil {
			return err
		}
		base.LoadProgram(0, 0, 0, workload.SpinLoop(iters), true)
		bc, err := base.Run(int64(iters)*100 + 10000)
		if err != nil {
			return err
		}
		perIter, basePerIter := float64(cycles)/float64(iters), float64(bc)/float64(iters)
		s.printf("%-10d %7d %14.2f %16.2f %14.2f\n",
			ht, iters, perIter, basePerIter, perIter-basePerIter)
		s.metric(fmt.Sprintf("overhead_per_iter_x%d", ht), perIter-basePerIter, "cycles/iter")
	}
	return nil
}

// runLoopSync is one E4 leg: it boots a one-node machine, runs the Figure
// 6 protocol on ht H-Threads for iters iterations, and checks the
// interlock. It returns the machine and the protocol's cycles.
func runLoopSync(ht, iters int) (*Sim, int64, error) {
	s, err := NewSim(Options{Nodes: 1})
	if err != nil {
		return nil, 0, err
	}
	progs, err := workload.LoopSync(ht, iters)
	if err != nil {
		return nil, 0, err
	}
	for cl, p := range progs {
		s.LoadProgram(0, 0, cl, p, true)
	}
	cycles, err := s.Run(int64(iters)*200 + 10000)
	if err != nil {
		return nil, 0, err
	}
	// The interlock is correct iff every H-Thread saw every iteration:
	// each follower's counter must equal the leader's.
	for cl := 0; cl < ht; cl++ {
		if got := s.Reg(0, 0, cl, 1); got != uint64(iters) {
			return nil, 0, fmt.Errorf("loopsync: H-Thread %d ran %d iterations, want %d", cl, got, iters)
		}
	}
	return s, cycles, nil
}

// --- E5: area model ---

// expArea evaluates the Sections 1/5 area and peak-performance model.
func expArea(s *sheet) error {
	in := area.PaperInputs()
	r := area.Evaluate(in)
	s.b.WriteString(area.Format(in, r))
	s.metric("perf_per_area_gain", r.PerfPerAreaGain, "")
	s.metric("area_ratio", r.AreaRatio, "")
	return nil
}

// --- E6: V-Thread latency tolerance ---

// expVThreads runs the load-heavy kernel on 1..4 user V-Threads of the
// same cluster and reports aggregate throughput: interleaving masks the
// exposed load latency (Section 3.2).
func expVThreads(s *sheet) error {
	const iters = 200
	s.printf("%-10s %8s %12s %18s\n", "V-Threads", "cycles", "total loads", "loads/1000 cycles")
	for k := 1; k <= isa.NumUserSlots; k++ {
		sim, err := NewSim(Options{Nodes: 1})
		if err != nil {
			return err
		}
		sim.MapLocal(0, 0, 2, true)
		for vt := 0; vt < k; vt++ {
			// Distinct addresses per thread, same bank spread.
			p := workload.LoadHeavyKernel(uint64(64+vt*16), iters)
			sim.LoadProgram(0, vt, 0, p, true)
		}
		cycles, err := sim.Run(int64(iters)*100*int64(k) + 10000)
		if err != nil {
			return err
		}
		total := iters * k
		perKCycle := 1000 * float64(total) / float64(cycles)
		s.printf("%-10d %8d %12d %18.1f\n", k, cycles, total, perKCycle)
		s.metric(fmt.Sprintf("loads_per_kcycle_x%d", k), math.Round(perKCycle*10)/10, "")
	}
	return nil
}

// --- E7: return-to-sender throttling ---

// expThrottle has two nodes flood a third with remote stores under a
// small credit pool and a tiny destination queue: the combined arrival
// rate exceeds the handler's service rate, so messages are returned to
// their senders, buffered, and resent, while exhausted credits stall
// further SENDs (Section 4.1, "Throttling"). Every store must still land
// exactly once.
func expThrottle(s *sheet) error {
	const messages, credits = 24, 2
	cfg := chip.DefaultConfig()
	cfg.SendCredits = credits
	cfg.MsgQueueCap = 9 // three 3-word store messages
	sim, err := NewSim(Options{Nodes: 3, Chip: &cfg})
	if err != nil {
		return err
	}
	base := sim.HomeBase(2)
	flood := func(sender int) string {
		return fmt.Sprintf(`
    movi i1, #%d
    movi i3, #%d
    movi i5, #0
    movi i6, #%d
loop:
    add i8, i1, i5          ; body word: the value stored = address
    add i9, i1, i5
    send i9, i3, i8, #1
    add i5, i5, #2
    lt  i7, i5, i6
    brt i7, loop
    halt
`, base+uint64(sender), sim.RT.DIPRemoteWrite, 2*messages)
	}
	if err := sim.LoadASM(0, 0, 0, flood(0)); err != nil {
		return err
	}
	if err := sim.LoadASM(1, 0, 0, flood(1)); err != nil {
		return err
	}
	cycles, err := sim.Run(2000000)
	if err != nil {
		return err
	}
	sent, landed := 2*messages, 0
	for i := 0; i < sent; i++ {
		w, err := sim.Peek(2, base+uint64(i))
		if err == nil && w == base+uint64(i) {
			landed++
		}
	}
	if landed != sent {
		return fmt.Errorf("throttle: only %d/%d stores landed (exactly-once delivery broken)", landed, sent)
	}
	blocked := sim.M.Chip(0).SendsBlocked + sim.M.Chip(1).SendsBlocked
	returned := sim.M.Chip(0).MsgsReturned + sim.M.Chip(1).MsgsReturned
	s.printf("messages sent      %6d\ncredits            %6d\nSEND stall events  %6d\nmessages returned  %6d\nstores landed      %6d/%d\ncycles             %6d\n",
		sent, credits, blocked, returned, landed, sent, cycles)
	s.metric("send_stalls", float64(blocked), "")
	s.metric("messages_returned", float64(returned), "")
	s.cycles("flood", cycles)
	return nil
}

// --- E8: GTLB interleaving (Figure 8) ---

// expGTLB sweeps the block/cyclic interleaving spectrum over a 2x2x2
// region: the node of each of the first 16 pages, per pages-per-node
// setting.
func expGTLB(s *sheet) error {
	s.printf("page-group of 64 pages over a 2x2x2 region; node of pages 0..15\n")
	for _, ppn := range []uint64{1, 2, 4, 8} {
		e := gtlb.Entry{
			VirtPage:     0,
			GroupPages:   64,
			Start:        gtlb.NodeID{},
			ExtentLog:    [3]int{1, 1, 1},
			PagesPerNode: ppn,
		}
		s.printf("pages/node=%d: ", ppn)
		for p := uint64(0); p < 16; p++ {
			n := e.NodeFor(p * gtlb.GTLBPageWords)
			s.printf("%d%d%d ", n.X, n.Y, n.Z)
		}
		s.printf("\n")
	}
	return nil
}

// --- E9: guarded-pointer overhead ---

// expGuardedPtr measures that LEA bounds/permission checking adds no
// per-operation latency over raw address arithmetic — the "light-weight"
// claim of the capability system.
func expGuardedPtr(s *sheet) error {
	const iters = 500
	run := func(guarded bool) (int64, error) {
		sim, err := NewSim(Options{Nodes: 1})
		if err != nil {
			return 0, err
		}
		sim.MapLocal(0, 0, 2, true)
		p := workload.PointerKernel(iters, guarded)
		sim.LoadProgram(0, 0, 0, p, !guarded) // guarded runs as user code
		// The walk covers [base, base+iters]; segments are naturally
		// aligned, so place the base at a segment boundary.
		segLen := uint8(1)
		for (uint64(1) << segLen) < uint64(iters)+2 {
			segLen++
		}
		base := uint64(1) << segLen
		if guarded {
			if err := sim.GrantPointer(0, 0, 0, 1, 3, segLen, base); err != nil {
				return 0, err
			}
		} else {
			sim.SetReg(0, 0, 0, 1, base)
		}
		return sim.Run(int64(iters)*50 + 10000)
	}
	guarded, err := run(true)
	if err != nil {
		return fmt.Errorf("guarded: %w", err)
	}
	raw, err := run(false)
	if err != nil {
		return fmt.Errorf("raw: %w", err)
	}
	s.printf("iterations            %8d\nguarded (LEA) cycles  %8d\nraw (ADD) cycles      %8d\noverhead              %8.2f%%\n",
		iters, guarded, raw, 100*(float64(guarded)/float64(raw)-1))
	s.cycles("guarded", guarded)
	s.cycles("raw", raw)
	return nil
}

// --- E10: synchronization bits ---

// expSyncBits runs a producer and consumer through a synchronizing word:
// the consumer's ldsy faults and is retried by the event V-Thread until
// the producer's stsy sets the bit (Section 2's atomic read-modify-write
// operations, handled per Section 3.3). The consumer must read the
// produced value and leave the bit clear.
func expSyncBits(s *sheet) error {
	sim, err := NewSim(Options{Nodes: 1})
	if err != nil {
		return err
	}
	sim.MapLocal(0, 0, 2, true)
	if err := sim.LoadASM(0, 1, 0, `
    movi i1, #50
    ldsy.fe i2, [i1]
    halt
`); err != nil {
		return err
	}
	if err := sim.LoadASM(0, 0, 0, `
    movi i1, #0
    movi i2, #300
spin:
    add i1, i1, #1
    lt  i3, i1, i2
    brt i3, spin
    movi i4, #50
    movi i5, #888
    stsy.af [i4], i5
    halt
`); err != nil {
		return err
	}
	cycles, err := sim.Run(200000)
	if err != nil {
		return err
	}
	v := sim.Reg(0, 1, 0, 2)
	if bit, _ := sim.M.Chip(0).Mem.SyncVirt(50); v != 888 || bit {
		return fmt.Errorf("syncbits: consumer read %d with the sync bit %v, want 888 with it clear", v, bit)
	}
	faults := sim.M.Chip(0).Mem.SyncFaults
	s.printf("consumed value   %6d\nsync faults      %6d\nhandoff correct  %6v\ncycles           %6d\n",
		v, faults, true, cycles)
	s.cycles("handoff", cycles)
	s.metric("sync_faults", float64(faults), "")
	return nil
}

// --- E11: block-status caching of remote data ---

// expBlockCache reads 64 remote words twice, with caching on and off.
// With caching, the first pass fetches eight blocks into local DRAM and
// the second pass is local; without caching every access is a remote
// message (Section 4.3's motivation).
func expBlockCache(s *sheet) error {
	var passes [2][2]int64 // [cached, non-cached][pass 1, pass 2]
	for i, caching := range []bool{true, false} {
		sim, err := NewSim(Options{Nodes: 2, Caching: caching})
		if err != nil {
			return err
		}
		base := sim.HomeBase(1)
		// Stage data at the home node.
		stage := fmt.Sprintf(`
    movi i1, #%d
    movi i2, #0
    movi i3, #64
sloop:
    st [i1], i2
    add i1, i1, #1
    add i2, i2, #1
    lt i4, i2, i3
    brt i4, sloop
    halt
`, base)
		if err := sim.LoadASM(1, 0, 0, stage); err != nil {
			return err
		}
		if _, err := sim.Run(500000); err != nil {
			return err
		}
		sweep := fmt.Sprintf(`
    movi i1, #%d
    movi i2, #0
    movi i3, #64
    mov i14, cyc
loop1:
    ld i4, [i1]
    add i5, i5, i4
    add i1, i1, #1
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop1
    mov i15, cyc
    movi i1, #%d
    movi i2, #0
loop2:
    ld i4, [i1]
    add i5, i5, i4
    add i1, i1, #1
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop2
    mov i13, cyc
    halt
`, base, base)
		if err := sim.LoadASM(0, 0, 0, sweep); err != nil {
			return err
		}
		if _, err := sim.Run(2000000); err != nil {
			return err
		}
		// Correctness: sum of 0..63 twice.
		if got := sim.Reg(0, 0, 0, 5); got != 2*(63*64/2) {
			return fmt.Errorf("blockcache sweep sum = %d, want %d", got, 2*63*64/2)
		}
		passes[i][0] = int64(sim.Reg(0, 0, 0, 15)) - int64(sim.Reg(0, 0, 0, 14))
		passes[i][1] = int64(sim.Reg(0, 0, 0, 13)) - int64(sim.Reg(0, 0, 0, 15))
	}
	cached, uncached := passes[0], passes[1]
	s.printf("64-word remote sweep (cycles)\n%-22s %10s %10s\n%-22s %10d %10d\n%-22s %10d %10d\nsecond-pass speedup with caching: %.1fx\n",
		"policy", "pass 1", "pass 2",
		"cached in local DRAM", cached[0], cached[1],
		"non-cached remote", uncached[0], uncached[1],
		float64(uncached[1])/float64(cached[1]))
	s.cycles("cached_pass1", cached[0])
	s.cycles("cached_pass2", cached[1])
	s.cycles("uncached_pass1", uncached[0])
	s.cycles("uncached_pass2", uncached[1])
	return nil
}
