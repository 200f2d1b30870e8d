package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/guard"
)

func TestSimQuickstart(t *testing.T) {
	s, err := NewSim(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadASM(0, 0, 0, "movi i1, #6\nmul i2, i1, #7\nhalt"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(10000); err != nil {
		t.Fatal(err)
	}
	if got := s.Reg(0, 0, 0, 2); got != 42 {
		t.Errorf("i2 = %d, want 42", got)
	}
}

func TestSimHomeBase(t *testing.T) {
	s, err := NewSim(Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.HomeBase(0) != 0 || s.HomeBase(2) != 2*4096 {
		t.Errorf("HomeBase = %d/%d", s.HomeBase(0), s.HomeBase(2))
	}
}

func TestSimStats(t *testing.T) {
	s, err := NewSim(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadASM(0, 0, 0, `
    movi i1, #4100
    movi i2, #7
    st [i1], i2
    halt
`); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if w, err := s.Peek(1, 4100); err == nil && w == 7 {
			break
		}
		if i == 50000 {
			t.Fatal("remote store never landed within 50000 cycles")
		}
		s.M.Step()
	}
	st := s.Stats()
	if st.Instructions == 0 || st.MsgsInjected == 0 || st.LTLBFaults == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

// Table 1 shape assertions: the paper's orderings must hold. One known
// deviation, stated here because no other document carries it: our
// LTLB-miss handler (internal/rt) is leaner than the authors' (≈25 vs 48
// cycles — Local LTLB Miss measures 38/44 against the paper's 61/67), so a
// remote write that hits at its home can complete before a local LTLB-miss
// write, whereas the paper has them within 10% of each other. The write
// column is therefore not asserted to be ordered across those two rows.
func TestTable1Shape(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	byClass := map[AccessClass]Table1Row{}
	for _, r := range rows {
		byClass[r.Class] = r
	}
	// Exact local latencies (calibrated to the paper).
	if r := byClass[LocalCacheHit]; r.Read != 3 || r.Write != 2 {
		t.Errorf("local hit = %d/%d, want 3/2", r.Read, r.Write)
	}
	if r := byClass[LocalCacheMiss]; r.Read != 13 || r.Write != 19 {
		t.Errorf("local miss = %d/%d, want 13/19", r.Read, r.Write)
	}
	// Read latency ordering: strictly increasing down the table.
	prev := int64(-1)
	for c := AccessClass(0); c < numAccessClasses; c++ {
		r := byClass[c]
		if r.Read <= prev {
			t.Errorf("read ordering violated at %s: %d after %d", c, r.Read, prev)
		}
		prev = r.Read
	}
	// Write orderings that must hold.
	if byClass[LocalCacheMiss].Write <= byClass[LocalCacheHit].Write {
		t.Error("write: miss not slower than hit")
	}
	if byClass[LocalLTLBMiss].Write <= byClass[LocalCacheMiss].Write {
		t.Error("write: LTLB miss not slower than cache miss")
	}
	if byClass[RemoteCacheMiss].Write <= byClass[RemoteCacheHit].Write {
		t.Error("write: remote miss not slower than remote hit")
	}
	if byClass[RemoteLTLBMiss].Write <= byClass[RemoteCacheMiss].Write {
		t.Error("write: remote LTLB miss not slower than remote miss")
	}
	// Remote write beats remote read (no reply decode on the critical
	// path) — the paper's 74 vs 138.
	for c := RemoteCacheHit; c <= RemoteLTLBMiss; c++ {
		if byClass[c].Write >= byClass[c].Read {
			t.Errorf("%s: write %d not faster than read %d", c, byClass[c].Write, byClass[c].Read)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	read, write, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	// The read timeline must contain all eight phases in order, ending at
	// the register writeback on node 0.
	if len(read.Phases) != 8 {
		t.Fatalf("read timeline has %d phases, want 8:\n%s", len(read.Phases), read.Format())
	}
	for i := 1; i < len(read.Phases); i++ {
		if read.Phases[i].Cycle < read.Phases[i-1].Cycle {
			t.Errorf("read phases out of order:\n%s", read.Format())
		}
	}
	if read.Phases[len(read.Phases)-1].Node != 0 {
		t.Error("read must complete on node 0")
	}
	// The write timeline ends when the store executes at the home node.
	if len(write.Phases) != 5 {
		t.Fatalf("write timeline has %d phases, want 5:\n%s", len(write.Phases), write.Format())
	}
	if write.Phases[len(write.Phases)-1].Node != 1 {
		t.Error("write must complete on node 1")
	}
	if write.Total >= read.Total {
		t.Errorf("remote write (%d) not faster than remote read (%d)", write.Total, read.Total)
	}
}

func TestStencilShape(t *testing.T) {
	rs, err := StencilExperiment()
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string, ht int) StencilResult {
		for _, r := range rs {
			if r.Name == name && r.HThreads == ht {
				return r
			}
		}
		t.Fatalf("missing %s x%d", name, ht)
		return StencilResult{}
	}
	s71, s72 := get("7-point stencil", 1), get("7-point stencil", 2)
	if s71.Depth != 12 || s72.Depth != 8 {
		t.Errorf("7-point depths = %d -> %d, want 12 -> 8 (paper)", s71.Depth, s72.Depth)
	}
	s271, s274 := get("27-point stencil", 1), get("27-point stencil", 4)
	if s274.Depth >= s271.Depth/2 {
		t.Errorf("27-point depth reduction too small: %d -> %d (paper: 36 -> 17)", s271.Depth, s274.Depth)
	}
	for _, r := range rs {
		if math.Abs(r.Value-r.Want) > 1e-9 {
			t.Errorf("%s x%d computed %v, want %v", r.Name, r.HThreads, r.Value, r.Want)
		}
	}
	// Multi-H-Thread versions must also be dynamically faster.
	if s72.Cycles >= s71.Cycles {
		t.Errorf("7-point 2HT cycles %d not < 1HT %d", s72.Cycles, s71.Cycles)
	}
	if s274.Cycles >= s271.Cycles {
		t.Errorf("27-point 4HT cycles %d not < 1HT %d", s274.Cycles, s271.Cycles)
	}
}

func TestLoopSyncShape(t *testing.T) {
	rs, err := LoopSyncExperiment(50)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.PerIter <= r.BaselinePerIter {
			t.Errorf("%d H-Threads: sync loop (%f/iter) not slower than baseline (%f)",
				r.HThreads, r.PerIter, r.BaselinePerIter)
		}
		// The interlock must stay cheap: a handful of cycles, no tree.
		if r.PerIter-r.BaselinePerIter > 20 {
			t.Errorf("%d H-Threads: barrier overhead %f cycles/iter too large",
				r.HThreads, r.PerIter-r.BaselinePerIter)
		}
	}
}

func TestVThreadShape(t *testing.T) {
	rs, err := VThreadExperiment(100)
	if err != nil {
		t.Fatal(err)
	}
	if rs[1].LoadsPerKCycle <= rs[0].LoadsPerKCycle {
		t.Errorf("2 V-Threads (%f) not better than 1 (%f): interleaving masks no latency",
			rs[1].LoadsPerKCycle, rs[0].LoadsPerKCycle)
	}
	// Throughput must not degrade as more V-Threads are added.
	for i := 2; i < len(rs); i++ {
		if rs[i].LoadsPerKCycle < rs[i-1].LoadsPerKCycle*0.95 {
			t.Errorf("throughput degraded at %d V-Threads: %f after %f",
				rs[i].VThreads, rs[i].LoadsPerKCycle, rs[i-1].LoadsPerKCycle)
		}
	}
}

func TestThrottleShape(t *testing.T) {
	r, err := ThrottleExperiment(24, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.SendsBlocked == 0 {
		t.Error("no SEND stalls under credit exhaustion")
	}
	if r.Returned == 0 {
		t.Error("no messages returned under receiver overflow")
	}
	if r.Landed != r.Messages {
		t.Errorf("only %d/%d stores landed (exactly-once delivery broken)", r.Landed, r.Messages)
	}
}

func TestGuardedPtrShape(t *testing.T) {
	r, err := GuardedPtrExperiment(100)
	if err != nil {
		t.Fatal(err)
	}
	// The capability system is "light-weight": no cycle overhead.
	if r.GuardedCycles != r.RawCycles {
		t.Errorf("guarded %d vs raw %d cycles: expected zero overhead", r.GuardedCycles, r.RawCycles)
	}
}

func TestSyncBitsShape(t *testing.T) {
	r, err := SyncBitsExperiment()
	if err != nil {
		t.Fatal(err)
	}
	if !r.HandoffOK {
		t.Errorf("handoff failed: %+v", r)
	}
	if r.SyncFaults == 0 {
		t.Error("consumer never faulted: the experiment did not exercise retry")
	}
}

func TestBlockCacheShape(t *testing.T) {
	r, err := BlockCacheExperiment()
	if err != nil {
		t.Fatal(err)
	}
	if r.CachedPass2 >= r.CachedPass1 {
		t.Errorf("cached second pass (%d) not faster than first (%d)", r.CachedPass2, r.CachedPass1)
	}
	if r.CachedPass2*2 >= r.UncachedPass2 {
		t.Errorf("caching speedup too small: %d vs %d", r.CachedPass2, r.UncachedPass2)
	}
	if diff := r.UncachedPass1 - r.UncachedPass2; diff > r.UncachedPass1/4 || diff < -r.UncachedPass1/4 {
		t.Errorf("non-cached passes should be similar: %d vs %d", r.UncachedPass1, r.UncachedPass2)
	}
}

func TestGTLBDemoShape(t *testing.T) {
	rows := GTLBExperiment()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// pages/node=1 is fully cyclic: 8 distinct nodes then repeat.
	first := rows[0]
	seen := map[string]bool{}
	for _, n := range first.Nodes[:8] {
		seen[n.String()] = true
	}
	if len(seen) != 8 {
		t.Errorf("cyclic interleaving covered %d nodes, want 8", len(seen))
	}
	// pages/node=8 is blocked: first 8 pages on one node.
	last := rows[3]
	for _, n := range last.Nodes[:8] {
		if n != last.Nodes[0] {
			t.Errorf("block interleaving split the first 8 pages: %v", last.Nodes[:8])
		}
	}
}

func TestNetworkSweepShape(t *testing.T) {
	rows, err := NetworkSweepExperiment()
	if err != nil {
		t.Fatal(err)
	}
	// Latency must grow strictly and linearly with distance: each extra
	// hop costs HopLat (1 cycle) in each direction.
	for i := 1; i < len(rows); i++ {
		dHops := int64(rows[i].Hops - rows[i-1].Hops)
		dLat := rows[i].ReadCycles - rows[i-1].ReadCycles
		if dLat != 2*dHops {
			t.Errorf("hops %d -> %d: latency grew %d, want %d (1 cycle/hop/direction)",
				rows[i-1].Hops, rows[i].Hops, dLat, 2*dHops)
		}
	}
}

func TestGridSmoothScaling(t *testing.T) {
	rows, err := GridSmoothExperiment()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Near-linear scaling: at least 1.7x on 2 nodes and 3x on 4.
	if rows[1].Speedup < 1.7 {
		t.Errorf("2-node speedup = %.2f, want >= 1.7", rows[1].Speedup)
	}
	if rows[2].Speedup < 3.0 {
		t.Errorf("4-node speedup = %.2f, want >= 3.0", rows[2].Speedup)
	}
}

// TestPhysicalAccessOutsideSDRAMFaults: a privileged LDP/STP whose address
// lies past the end of SDRAM (and outside the console window) faults the
// thread with a message naming the address, like any other bad operand,
// instead of panicking in the memory system — msim exits 1, not 4.
func TestPhysicalAccessOutsideSDRAMFaults(t *testing.T) {
	for _, op := range []string{"stp [i1],i0", "ldp i2,[i1]"} {
		s, err := NewSim(Options{Nodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.LoadASM(0, 0, 0, "mov i1,#1070000\n"+op+"\nhalt\n"); err != nil {
			t.Fatal(err)
		}
		_, err = s.RunSupervised(3000, guard.Options{})
		s.M.Close()
		if c := guard.Classify(err); err == nil || c != guard.ClassScenario || guard.ExitCode(err) != 1 ||
			!strings.Contains(err.Error(), "physical address 0x1053b0 outside SDRAM") {
			t.Errorf("%s: err %v (class %q); want a thread fault naming the address", op, err, c)
		}
	}
}

// TestPrivilegedStoreThroughPointer: a privileged store through a guarded
// pointer stores. Its effective address used to come back marked as a
// read, so the store was issued as a load into no register and the run
// crashed.
func TestPrivilegedStoreThroughPointer(t *testing.T) {
	s, err := NewSim(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.M.Close()
	if err := s.LoadASM(0, 0, 0, "movi i1, #4096\nsetptr i2, i1, #0x53\nst [i2+1], i1\nhalt\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunSupervised(3000, guard.Options{}); err != nil {
		t.Fatal(err)
	}
	if w, err := s.Peek(1, 4097); err != nil || w != 4096 {
		t.Errorf("word 4097 = %d (%v), want the stored 4096", w, err)
	}
}
