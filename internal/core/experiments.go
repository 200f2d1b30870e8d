package core

// Experiment harness for the paper's remaining results: the Figure 5
// stencil schedules (E3), the Figure 6 loop synchronization protocol (E4),
// V-Thread latency tolerance (E6), SEND throttling (E7), GTLB interleaving
// (E8), guarded-pointer overhead (E9), synchronization bits (E10), and
// block-status caching of remote data (E11). See DESIGN.md's experiment
// index.

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/chip"
	"repro/internal/gtlb"
	"repro/internal/isa"
	"repro/internal/workload"
)

// --- E3: Figure 5 stencils ---

// StencilResult reports one stencil configuration.
type StencilResult struct {
	Name       string
	HThreads   int
	Depth      int // static schedule depth (the paper's metric)
	PaperDepth int
	Cycles     int64   // measured execution cycles on the simulator
	Value      float64 // computed u, for correctness checking
	Want       float64
}

// StencilExperiment runs the 7-point stencil on 1 and 2 H-Threads and the
// 27-point stencil on 1 and 4 H-Threads (paper: depth 12 -> 8 and 36 -> 17).
func StencilExperiment() ([]StencilResult, error) {
	paper := map[string]int{"7:1": 12, "7:2": 8, "27:1": 36, "27:4": 17}
	cfgs := []struct {
		points, hthreads int
	}{{7, 1}, {7, 2}, {27, 1}, {27, 4}}
	out := make([]StencilResult, len(cfgs))
	for i, cfg := range cfgs {
		var st *workload.Stencil
		var err error
		if cfg.points == 7 {
			st, err = workload.Stencil7(cfg.hthreads)
		} else {
			st, err = workload.Stencil27(cfg.hthreads)
		}
		if err != nil {
			return nil, err
		}
		s, res, err := runStencil(st, cfg.points)
		if err != nil {
			return nil, err
		}
		s.M.Close()
		res.PaperDepth = paper[fmt.Sprintf("%d:%d", cfg.points, cfg.hthreads)]
		out[i] = res
	}
	return out, nil
}

// runStencil is one E3 leg: it boots a one-node machine, stages the
// residuals and u, and runs st's kernel. It returns the machine (its
// statistics stay readable) alongside the row, whose Cycles is the run.
func runStencil(st *workload.Stencil, points int) (*Sim, StencilResult, error) {
	s, err := NewSim(Options{Nodes: 1})
	if err != nil {
		return nil, StencilResult{}, err
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
			return nil, StencilResult{}, err
		}
	}
	rc := float64(n + 1)
	if err := s.Poke(0, st.RBase+uint64(n), math.Float64bits(rc)); err != nil {
		return nil, StencilResult{}, err
	}
	if err := s.Poke(0, st.UAddr, math.Float64bits(10)); err != nil {
		return nil, StencilResult{}, err
	}
	want := 10 + 2*rc + 3*sum

	for cl, p := range st.Programs {
		s.LoadProgram(0, 0, cl, p, true)
	}
	cycles, err := s.Run(100000)
	if err != nil {
		return nil, StencilResult{}, err
	}
	bits, err := s.Peek(0, st.UAddr)
	if err != nil {
		return nil, StencilResult{}, err
	}
	return s, StencilResult{
		Name: st.Name, HThreads: st.HThreads, Depth: st.Depth,
		Cycles: cycles, Value: math.Float64frombits(bits), Want: want,
	}, nil
}

// FormatStencil renders E3.
func FormatStencil(rs []StencilResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %9s %12s %11s %8s %10s\n",
		"kernel", "H-Threads", "paper depth", "our depth", "cycles", "correct")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-18s %9d %12d %11d %8d %10v\n",
			r.Name, r.HThreads, r.PaperDepth, r.Depth, r.Cycles,
			math.Abs(r.Value-r.Want) < 1e-9)
	}
	return b.String()
}

// --- E4: Figure 6 loop synchronization ---

// LoopSyncResult reports the interlock overhead.
type LoopSyncResult struct {
	HThreads        int
	Iters           int
	Cycles          int64
	BaselineCycles  int64 // unsynchronized loop of the same trip count
	PerIter         float64
	BaselinePerIter float64
}

// LoopSyncExperiment measures the Figure 6 protocol for 2 and 4 H-Threads.
// Each configuration and its unsynchronized baseline run on fresh
// machines.
func LoopSyncExperiment(iters int) ([]LoopSyncResult, error) {
	hts := []int{2, 4}
	out := make([]LoopSyncResult, len(hts))
	for i, ht := range hts {
		s, cycles, err := runLoopSync(ht, iters)
		if err != nil {
			return nil, err
		}
		s.M.Close()

		base, err := NewSim(Options{Nodes: 1})
		if err != nil {
			return nil, err
		}
		base.LoadProgram(0, 0, 0, workload.SpinLoop(iters), true)
		bc, err := base.Run(int64(iters)*100 + 10000)
		if err != nil {
			return nil, err
		}
		out[i] = LoopSyncResult{
			HThreads: ht, Iters: iters, Cycles: cycles, BaselineCycles: bc,
			PerIter:         float64(cycles) / float64(iters),
			BaselinePerIter: float64(bc) / float64(iters),
		}
	}
	return out, nil
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

// FormatLoopSync renders E4.
func FormatLoopSync(rs []LoopSyncResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %7s %14s %16s %14s\n",
		"H-Threads", "iters", "cycles/iter", "baseline/iter", "overhead/iter")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-10d %7d %14.2f %16.2f %14.2f\n",
			r.HThreads, r.Iters, r.PerIter, r.BaselinePerIter, r.PerIter-r.BaselinePerIter)
	}
	return b.String()
}

// --- E6: V-Thread latency tolerance ---

// VThreadResult reports throughput with k resident V-Threads.
type VThreadResult struct {
	VThreads       int
	Cycles         int64
	TotalLoads     int
	LoadsPerKCycle float64
}

// VThreadExperiment runs the load-heavy kernel on 1..4 user V-Threads of
// the same cluster and reports aggregate throughput: interleaving masks the
// exposed load latency (Section 3.2).
func VThreadExperiment(iters int) ([]VThreadResult, error) {
	out := make([]VThreadResult, isa.NumUserSlots)
	for i := range out {
		k := i + 1
		s, err := NewSim(Options{Nodes: 1})
		if err != nil {
			return nil, err
		}
		s.MapLocal(0, 0, 2, true)
		for vt := 0; vt < k; vt++ {
			// Distinct addresses per thread, same bank spread.
			p := workload.LoadHeavyKernel(uint64(64+vt*16), iters)
			s.LoadProgram(0, vt, 0, p, true)
		}
		cycles, err := s.Run(int64(iters)*100*int64(k) + 10000)
		if err != nil {
			return nil, err
		}
		total := iters * k
		out[i] = VThreadResult{
			VThreads: k, Cycles: cycles, TotalLoads: total,
			LoadsPerKCycle: 1000 * float64(total) / float64(cycles),
		}
	}
	return out, nil
}

// FormatVThreads renders E6.
func FormatVThreads(rs []VThreadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %12s %18s\n", "V-Threads", "cycles", "total loads", "loads/1000 cycles")
	for _, r := range rs {
		fmt.Fprintf(&b, "%-10d %8d %12d %18.1f\n", r.VThreads, r.Cycles, r.TotalLoads, r.LoadsPerKCycle)
	}
	return b.String()
}

// --- E7: return-to-sender throttling ---

// ThrottleResult reports the flood experiment.
type ThrottleResult struct {
	Messages     int
	Credits      int
	SendsBlocked uint64
	Returned     uint64
	Landed       int
	Cycles       int64
}

// ThrottleExperiment has two nodes flood a third with remote stores under a
// small credit pool and a tiny destination queue: the combined arrival rate
// exceeds the handler's service rate, so messages are returned to their
// senders, buffered, and resent, while exhausted credits stall further
// SENDs (Section 4.1, "Throttling"). Every store still lands exactly once.
func ThrottleExperiment(messages, credits int) (*ThrottleResult, error) {
	cfg := DefaultChipConfig()
	cfg.SendCredits = credits
	cfg.MsgQueueCap = 9 // three 3-word store messages
	s, err := NewSim(Options{Nodes: 3, Chip: &cfg})
	if err != nil {
		return nil, err
	}
	base := s.HomeBase(2)
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
`, base+uint64(sender), s.RT.DIPRemoteWrite, 2*messages)
	}
	if err := s.LoadASM(0, 0, 0, flood(0)); err != nil {
		return nil, err
	}
	if err := s.LoadASM(1, 0, 0, flood(1)); err != nil {
		return nil, err
	}
	cycles, err := s.Run(2000000)
	if err != nil {
		return nil, err
	}
	landed := 0
	for i := 0; i < 2*messages; i++ {
		w, err := s.Peek(2, base+uint64(i))
		if err == nil && w == base+uint64(i) {
			landed++
		}
	}
	return &ThrottleResult{
		Messages: 2 * messages, Credits: credits,
		SendsBlocked: s.M.Chip(0).SendsBlocked + s.M.Chip(1).SendsBlocked,
		Returned:     s.M.Chip(0).MsgsReturned + s.M.Chip(1).MsgsReturned,
		Landed:       landed,
		Cycles:       cycles,
	}, nil
}

// FormatThrottle renders E7.
func (r *ThrottleResult) Format() string {
	return fmt.Sprintf(
		"messages sent      %6d\ncredits            %6d\nSEND stall events  %6d\nmessages returned  %6d\nstores landed      %6d/%d\ncycles             %6d\n",
		r.Messages, r.Credits, r.SendsBlocked, r.Returned, r.Landed, r.Messages, r.Cycles)
}

// --- E8: GTLB interleaving (Figure 8) ---

// GTLBDemoRow shows the node assignment of consecutive pages for one
// pages-per-node setting.
type GTLBDemoRow struct {
	PagesPerNode uint64
	Nodes        []gtlb.NodeID // node of pages 0..15
}

// GTLBExperiment sweeps the block/cyclic interleaving spectrum over a
// 2x2x2 region.
func GTLBExperiment() []GTLBDemoRow {
	var out []GTLBDemoRow
	for _, ppn := range []uint64{1, 2, 4, 8} {
		e := gtlb.Entry{
			VirtPage:     0,
			GroupPages:   64,
			Start:        gtlb.NodeID{},
			ExtentLog:    [3]int{1, 1, 1},
			PagesPerNode: ppn,
		}
		row := GTLBDemoRow{PagesPerNode: ppn}
		for p := uint64(0); p < 16; p++ {
			row.Nodes = append(row.Nodes, e.NodeFor(p*gtlb.GTLBPageWords))
		}
		out = append(out, row)
	}
	return out
}

// FormatGTLB renders E8.
func FormatGTLB(rows []GTLBDemoRow) string {
	var b strings.Builder
	b.WriteString("page-group of 64 pages over a 2x2x2 region; node of pages 0..15\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "pages/node=%d: ", r.PagesPerNode)
		for _, n := range r.Nodes {
			fmt.Fprintf(&b, "%d%d%d ", n.X, n.Y, n.Z)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- E9: guarded-pointer overhead ---

// GuardedPtrResult compares the capability-checked kernel with the raw
// baseline.
type GuardedPtrResult struct {
	Iters         int
	GuardedCycles int64
	RawCycles     int64
}

// GuardedPtrExperiment measures that LEA bounds/permission checking adds no
// per-operation latency over raw address arithmetic — the "light-weight"
// claim of the capability system.
func GuardedPtrExperiment(iters int) (*GuardedPtrResult, error) {
	run := func(guarded bool) (int64, error) {
		s, err := NewSim(Options{Nodes: 1})
		if err != nil {
			return 0, err
		}
		s.MapLocal(0, 0, 2, true)
		p := workload.PointerKernel(iters, guarded)
		s.LoadProgram(0, 0, 0, p, !guarded) // guarded runs as user code
		// The walk covers [base, base+iters]; segments are naturally
		// aligned, so place the base at a segment boundary.
		segLen := uint8(1)
		for (uint64(1) << segLen) < uint64(iters)+2 {
			segLen++
		}
		base := uint64(1) << segLen
		if guarded {
			if err := s.GrantPointer(0, 0, 0, 1, 3, segLen, base); err != nil {
				return 0, err
			}
		} else {
			s.SetReg(0, 0, 0, 1, base)
		}
		return s.Run(int64(iters)*50 + 10000)
	}
	guarded, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("guarded: %w", err)
	}
	raw, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("raw: %w", err)
	}
	return &GuardedPtrResult{Iters: iters, GuardedCycles: guarded, RawCycles: raw}, nil
}

// Format renders E9.
func (r *GuardedPtrResult) Format() string {
	return fmt.Sprintf("iterations            %8d\nguarded (LEA) cycles  %8d\nraw (ADD) cycles      %8d\noverhead              %8.2f%%\n",
		r.Iters, r.GuardedCycles, r.RawCycles,
		100*(float64(r.GuardedCycles)/float64(r.RawCycles)-1))
}

// --- E10: synchronization bits ---

// SyncBitsResult reports the producer/consumer handoff.
type SyncBitsResult struct {
	Value      uint64
	SyncFaults uint64
	HandoffOK  bool
	Cycles     int64
}

// SyncBitsExperiment runs a producer and consumer through a synchronizing
// word: the consumer's ldsy faults and is retried by the event V-Thread
// until the producer's stsy sets the bit (Section 2's atomic
// read-modify-write operations, handled per Section 3.3).
func SyncBitsExperiment() (*SyncBitsResult, error) {
	s, err := NewSim(Options{Nodes: 1})
	if err != nil {
		return nil, err
	}
	s.MapLocal(0, 0, 2, true)
	if err := s.LoadASM(0, 1, 0, `
    movi i1, #50
    ldsy.fe i2, [i1]
    halt
`); err != nil {
		return nil, err
	}
	if err := s.LoadASM(0, 0, 0, `
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
		return nil, err
	}
	cycles, err := s.Run(200000)
	if err != nil {
		return nil, err
	}
	v := s.Reg(0, 1, 0, 2)
	bit, _ := s.M.Chip(0).Mem.SyncVirt(50)
	return &SyncBitsResult{
		Value:      v,
		SyncFaults: s.M.Chip(0).Mem.SyncFaults,
		HandoffOK:  v == 888 && !bit,
		Cycles:     cycles,
	}, nil
}

// Format renders E10.
func (r *SyncBitsResult) Format() string {
	return fmt.Sprintf("consumed value   %6d\nsync faults      %6d\nhandoff correct  %6v\ncycles           %6d\n",
		r.Value, r.SyncFaults, r.HandoffOK, r.Cycles)
}

// --- E11: block-status caching of remote data ---

// BlockCacheResult compares two sweeps over a remote region with caching on
// and off.
type BlockCacheResult struct {
	Words                        int
	CachedPass1, CachedPass2     int64
	UncachedPass1, UncachedPass2 int64
}

// BlockCacheExperiment reads 64 remote words twice. With caching, the first
// pass fetches eight blocks into local DRAM and the second pass is local;
// without caching every access is a remote message (Section 4.3's
// motivation).
func BlockCacheExperiment() (*BlockCacheResult, error) {
	res := &BlockCacheResult{Words: 64}
	for _, caching := range []bool{true, false} {
		s, err := NewSim(Options{Nodes: 2, Caching: caching})
		if err != nil {
			return nil, err
		}
		base := s.HomeBase(1)
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
		if err := s.LoadASM(1, 0, 0, stage); err != nil {
			return nil, err
		}
		if _, err := s.Run(500000); err != nil {
			return nil, err
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
		if err := s.LoadASM(0, 0, 0, sweep); err != nil {
			return nil, err
		}
		if _, err := s.Run(2000000); err != nil {
			return nil, err
		}
		// Correctness: sum of 0..63 twice.
		if got := s.Reg(0, 0, 0, 5); got != 2*(63*64/2) {
			return nil, fmt.Errorf("blockcache sweep sum = %d, want %d", got, 2*63*64/2)
		}
		p1 := int64(s.Reg(0, 0, 0, 15)) - int64(s.Reg(0, 0, 0, 14))
		p2 := int64(s.Reg(0, 0, 0, 13)) - int64(s.Reg(0, 0, 0, 15))
		if caching {
			res.CachedPass1, res.CachedPass2 = p1, p2
		} else {
			res.UncachedPass1, res.UncachedPass2 = p1, p2
		}
	}
	return res, nil
}

// Format renders E11.
func (r *BlockCacheResult) Format() string {
	return fmt.Sprintf(
		"64-word remote sweep (cycles)\n%-22s %10s %10s\n%-22s %10d %10d\n%-22s %10d %10d\nsecond-pass speedup with caching: %.1fx\n",
		"policy", "pass 1", "pass 2",
		"cached in local DRAM", r.CachedPass1, r.CachedPass2,
		"non-cached remote", r.UncachedPass1, r.UncachedPass2,
		float64(r.UncachedPass2)/float64(r.CachedPass2))
}

// DefaultChipConfig exposes the chip defaults for experiment overrides.
func DefaultChipConfig() chip.Config { return chip.DefaultConfig() }
