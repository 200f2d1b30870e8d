package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/isa"
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

// experimentNamed is the experiment table's entry called name.
func experimentNamed(t testing.TB, name string) Experiment {
	t.Helper()
	for _, e := range Experiments() {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no experiment %q in the table", name)
	return Experiment{}
}

// recorded is one experiment's metrics, the way the shape tests read its
// result: by the names testdata/mbench.json records.
type recorded struct {
	t   *testing.T
	exp string
	ms  []Metric
}

// metrics runs the named experiment; its own checks (a stencil's u, the
// throttle's exactly-once stores, the sync-bit handoff, the loopsync
// interlock, the block-cache sums) fail t as errors.
func metrics(t *testing.T, name string) recorded {
	t.Helper()
	_, ms, err := experimentNamed(t, name).Run()
	if err != nil {
		t.Fatal(err)
	}
	return recorded{t, name, ms}
}

// get is the metric called name; an experiment that does not emit it
// fails the test.
func (r recorded) get(name string) float64 {
	r.t.Helper()
	for _, m := range r.ms {
		if m.Name == name {
			return m.Value
		}
	}
	r.t.Fatalf("%s emits no metric %q", r.exp, name)
	return 0
}

// Table 1 shape assertions: the paper's orderings must hold. One known
// deviation, stated here because no other document carries it: our
// LTLB-miss handler (internal/rt) is leaner than the authors' (≈25 vs 48
// cycles — Local LTLB Miss measures 38/44 against the paper's 61/67), so a
// remote write that hits at its home can complete before a local LTLB-miss
// write, whereas the paper has them within 10% of each other. The write
// column is therefore not asserted to be ordered across those two rows.
func TestTable1Shape(t *testing.T) {
	m := metrics(t, "table1")
	read := func(c AccessClass) float64 { return m.get(c.metric() + "_read") }
	write := func(c AccessClass) float64 { return m.get(c.metric() + "_write") }
	// Exact local latencies (calibrated to the paper).
	if read(LocalCacheHit) != 3 || write(LocalCacheHit) != 2 {
		t.Errorf("local hit = %v/%v, want 3/2", read(LocalCacheHit), write(LocalCacheHit))
	}
	if read(LocalCacheMiss) != 13 || write(LocalCacheMiss) != 19 {
		t.Errorf("local miss = %v/%v, want 13/19", read(LocalCacheMiss), write(LocalCacheMiss))
	}
	// Read latency ordering: strictly increasing down the table.
	prev := -1.0
	for c := AccessClass(0); c < numAccessClasses; c++ {
		if read(c) <= prev {
			t.Errorf("read ordering violated at %s: %v after %v", c, read(c), prev)
		}
		prev = read(c)
	}
	// Write orderings that must hold.
	if write(LocalCacheMiss) <= write(LocalCacheHit) {
		t.Error("write: miss not slower than hit")
	}
	if write(LocalLTLBMiss) <= write(LocalCacheMiss) {
		t.Error("write: LTLB miss not slower than cache miss")
	}
	if write(RemoteCacheMiss) <= write(RemoteCacheHit) {
		t.Error("write: remote miss not slower than remote hit")
	}
	if write(RemoteLTLBMiss) <= write(RemoteCacheMiss) {
		t.Error("write: remote LTLB miss not slower than remote miss")
	}
	// Remote write beats remote read (no reply decode on the critical
	// path) — the paper's 74 vs 138.
	for c := RemoteCacheHit; c <= RemoteLTLBMiss; c++ {
		if write(c) >= read(c) {
			t.Errorf("%s: write %v not faster than read %v", c, write(c), read(c))
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	read, err := figure9(false)
	if err != nil {
		t.Fatal(err)
	}
	write, err := figure9(true)
	if err != nil {
		t.Fatal(err)
	}
	// The read timeline must contain all eight phases in order, ending at
	// the register writeback on node 0.
	if len(read.phases) != 8 {
		t.Fatalf("read timeline has %d phases, want 8: %+v", len(read.phases), read.phases)
	}
	for i := 1; i < len(read.phases); i++ {
		if read.phases[i].cycle < read.phases[i-1].cycle {
			t.Errorf("read phases out of order: %+v", read.phases)
		}
	}
	if read.phases[len(read.phases)-1].node != 0 {
		t.Error("read must complete on node 0")
	}
	// The write timeline ends when the store executes at the home node.
	if len(write.phases) != 5 {
		t.Fatalf("write timeline has %d phases, want 5: %+v", len(write.phases), write.phases)
	}
	if write.phases[len(write.phases)-1].node != 1 {
		t.Error("write must complete on node 1")
	}
	m := metrics(t, "fig9")
	if m.get("remote_write") >= m.get("remote_read") {
		t.Errorf("remote write (%v) not faster than remote read (%v)", m.get("remote_write"), m.get("remote_read"))
	}
}

func TestStencilShape(t *testing.T) {
	m := metrics(t, "stencil") // a wrong u fails the experiment
	if d1, d2 := m.get("7-point_x1_depth"), m.get("7-point_x2_depth"); d1 != 12 || d2 != 8 {
		t.Errorf("7-point depths = %v -> %v, want 12 -> 8 (paper)", d1, d2)
	}
	d1, d4 := int(m.get("27-point_x1_depth")), int(m.get("27-point_x4_depth"))
	if d4 >= d1/2 {
		t.Errorf("27-point depth reduction too small: %d -> %d (paper: 36 -> 17)", d1, d4)
	}
	// Multi-H-Thread versions must also be dynamically faster.
	if c1, c2 := m.get("7-point_x1"), m.get("7-point_x2"); c2 >= c1 {
		t.Errorf("7-point 2HT cycles %v not < 1HT %v", c2, c1)
	}
	if c1, c4 := m.get("27-point_x1"), m.get("27-point_x4"); c4 >= c1 {
		t.Errorf("27-point 4HT cycles %v not < 1HT %v", c4, c1)
	}
}

func TestLoopSyncShape(t *testing.T) {
	m := metrics(t, "loopsync")
	for _, ht := range []int{2, 4} {
		overhead := m.get(fmt.Sprintf("overhead_per_iter_x%d", ht))
		if overhead <= 0 {
			t.Errorf("%d H-Threads: sync loop not slower than baseline (%f cycles/iter)", ht, overhead)
		}
		// The interlock must stay cheap: a handful of cycles, no tree.
		if overhead > 20 {
			t.Errorf("%d H-Threads: barrier overhead %f cycles/iter too large", ht, overhead)
		}
	}
}

func TestVThreadShape(t *testing.T) {
	m := metrics(t, "vthreads")
	rate := func(k int) float64 { return m.get(fmt.Sprintf("loads_per_kcycle_x%d", k)) }
	if rate(2) <= rate(1) {
		t.Errorf("2 V-Threads (%f) not better than 1 (%f): interleaving masks no latency", rate(2), rate(1))
	}
	// Throughput must not degrade as more V-Threads are added.
	for k := 3; k <= isa.NumUserSlots; k++ {
		if rate(k) < rate(k-1)*0.95 {
			t.Errorf("throughput degraded at %d V-Threads: %f after %f", k, rate(k), rate(k-1))
		}
	}
}

func TestThrottleShape(t *testing.T) {
	m := metrics(t, "throttle") // a store landing other than once fails the experiment
	if m.get("send_stalls") == 0 {
		t.Error("no SEND stalls under credit exhaustion")
	}
	if m.get("messages_returned") == 0 {
		t.Error("no messages returned under receiver overflow")
	}
}

func TestGuardedPtrShape(t *testing.T) {
	m := metrics(t, "gp")
	// The capability system is "light-weight": no cycle overhead.
	if m.get("guarded") != m.get("raw") {
		t.Errorf("guarded %v vs raw %v cycles: expected zero overhead", m.get("guarded"), m.get("raw"))
	}
}

func TestSyncBitsShape(t *testing.T) {
	m := metrics(t, "syncbits") // a failed handoff fails the experiment
	if m.get("sync_faults") == 0 {
		t.Error("consumer never faulted: the experiment did not exercise retry")
	}
}

func TestBlockCacheShape(t *testing.T) {
	m := metrics(t, "blockcache")
	c1, c2 := m.get("cached_pass1"), m.get("cached_pass2")
	u1, u2 := m.get("uncached_pass1"), m.get("uncached_pass2")
	if c2 >= c1 {
		t.Errorf("cached second pass (%v) not faster than first (%v)", c2, c1)
	}
	if c2*2 >= u2 {
		t.Errorf("caching speedup too small: %v vs %v", c2, u2)
	}
	if diff := u1 - u2; diff > u1/4 || diff < -u1/4 {
		t.Errorf("non-cached passes should be similar: %v vs %v", u1, u2)
	}
}

// TestGTLBDemoShape reads E8's printed rows, "pages/node=N: " then the
// node of each of pages 0..15; E8 emits no metrics.
func TestGTLBDemoShape(t *testing.T) {
	out, _, err := experimentNamed(t, "gtlb").Run()
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(out, "\n"), "\n")[1:]
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// pages/node=1 is fully cyclic: 8 distinct nodes then repeat.
	first := strings.Fields(rows[0])[1:]
	seen := map[string]bool{}
	for _, n := range first[:8] {
		seen[n] = true
	}
	if len(seen) != 8 {
		t.Errorf("cyclic interleaving covered %d nodes, want 8", len(seen))
	}
	// pages/node=8 is blocked: first 8 pages on one node.
	last := strings.Fields(rows[3])[1:]
	for _, n := range last[:8] {
		if n != last[0] {
			t.Errorf("block interleaving split the first 8 pages: %v", last[:8])
		}
	}
}

func TestNetworkSweepShape(t *testing.T) {
	m := metrics(t, "netsweep")
	// Latency must grow strictly and linearly with distance: each extra
	// hop costs HopLat (1 cycle) in each direction.
	hops := []int{1, 3, 5, 7}
	for i := 1; i < len(hops); i++ {
		dHops := float64(hops[i] - hops[i-1])
		dLat := m.get(fmt.Sprintf("read_hops%d", hops[i])) - m.get(fmt.Sprintf("read_hops%d", hops[i-1]))
		if dLat != 2*dHops {
			t.Errorf("hops %d -> %d: latency grew %v, want %v (1 cycle/hop/direction)",
				hops[i-1], hops[i], dLat, 2*dHops)
		}
	}
}

func TestGridSmoothScaling(t *testing.T) {
	m := metrics(t, "gridsmooth")
	if len(m.ms) != 3 {
		t.Fatalf("rows = %d", len(m.ms))
	}
	// Near-linear scaling: at least 1.7x on 2 nodes and 3x on 4.
	base := m.get("smooth_nodes1")
	if s := base / m.get("smooth_nodes2"); s < 1.7 {
		t.Errorf("2-node speedup = %.2f, want >= 1.7", s)
	}
	if s := base / m.get("smooth_nodes4"); s < 3.0 {
		t.Errorf("4-node speedup = %.2f, want >= 3.0", s)
	}
}

// TestPaperCellsAreMetrics: every paper number names a metric its
// experiment emits, so none prints beside a misspelt key as a silent 0.
func TestPaperCellsAreMetrics(t *testing.T) {
	for exp, cells := range paper {
		m := metrics(t, exp)
		for name := range cells {
			m.get(name)
		}
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
