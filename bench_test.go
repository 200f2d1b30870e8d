// Benchmark harness: one benchmark per table and figure of the paper, plus
// the mechanism ablations indexed in DESIGN.md. Each benchmark regenerates
// its result on the simulator and reports the headline quantity as a custom
// metric (cycles, cycles/iter, etc.), so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The same measurements with
// paper-vs-measured comparison tables are printed by cmd/mbench.
package repro_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/area"
	"repro/internal/core"
	"repro/internal/noc"
)

// BenchmarkTable1 regenerates every row of Table 1 (E1), reporting each
// cell's latency in cycles as a metric.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := core.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				name := strings.ReplaceAll(r.Class.String(), " ", "_")
				b.ReportMetric(float64(r.Read), name+"_read_cycles")
				b.ReportMetric(float64(r.Write), name+"_write_cycles")
			}
		}
	}
}

// BenchmarkFigure9Read regenerates the remote read timeline (E2).
func BenchmarkFigure9Read(b *testing.B) {
	var total int64
	for i := 0; i < b.N; i++ {
		r, _, err := core.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		total = r.Total
	}
	b.ReportMetric(float64(total), "remote_read_cycles")
}

// BenchmarkFigure9Write regenerates the remote write timeline (E2).
func BenchmarkFigure9Write(b *testing.B) {
	var total int64
	for i := 0; i < b.N; i++ {
		_, w, err := core.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		total = w.Total
	}
	b.ReportMetric(float64(total), "remote_write_cycles")
}

// BenchmarkFigure5Stencils regenerates the stencil schedule-depth results
// (E3): 7-point 12 -> 8 and 27-point 36 -> 17 in the paper.
func BenchmarkFigure5Stencils(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := core.StencilExperiment()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rs {
				name := r.Name[:1] + "pt"
				if r.Name[1] == '7' { // "27-point ..."
					name = "27pt"
				}
				b.ReportMetric(float64(r.Depth), name+"_depth_x"+itoa(r.HThreads))
				b.ReportMetric(float64(r.Cycles), name+"_cycles_x"+itoa(r.HThreads))
			}
		}
	}
}

// BenchmarkFigure6LoopSync regenerates the loop synchronization overhead
// (E4).
func BenchmarkFigure6LoopSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := core.LoopSyncExperiment(100)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rs {
				b.ReportMetric(r.PerIter-r.BaselinePerIter,
					"barrier_overhead_x"+itoa(r.HThreads))
			}
		}
	}
}

// BenchmarkAreaModel evaluates the Sections 1/5 analytical model (E5): the
// 85:1 peak-performance-per-area headline.
func BenchmarkAreaModel(b *testing.B) {
	var r area.Results
	for i := 0; i < b.N; i++ {
		r = area.Evaluate(area.PaperInputs())
	}
	b.ReportMetric(r.PerfPerAreaGain, "perf_per_area_gain")
	b.ReportMetric(r.AreaRatio, "area_ratio")
}

// BenchmarkVThreads measures latency tolerance from V-Thread interleaving
// (E6).
func BenchmarkVThreads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := core.VThreadExperiment(200)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rs {
				b.ReportMetric(r.LoadsPerKCycle, "loads_per_kcycle_x"+itoa(r.VThreads))
			}
		}
	}
}

// BenchmarkThrottle exercises the return-to-sender protocol (E7).
func BenchmarkThrottle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.ThrottleExperiment(24, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.SendsBlocked), "send_stalls")
			b.ReportMetric(float64(r.Returned), "messages_returned")
		}
	}
}

// BenchmarkGTLB measures raw GTLB translation throughput over a block/
// cyclic interleaved page group (E8).
func BenchmarkGTLB(b *testing.B) {
	rows := core.GTLBExperiment()
	if len(rows) == 0 {
		b.Fatal("no GTLB rows")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GTLBExperiment()
	}
}

// BenchmarkGuardedPtr measures the guarded-pointer overhead ablation (E9).
func BenchmarkGuardedPtr(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.GuardedPtrExperiment(200)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.GuardedCycles), "guarded_cycles")
			b.ReportMetric(float64(r.RawCycles), "raw_cycles")
		}
	}
}

// BenchmarkSyncBits measures the synchronizing producer/consumer handoff
// (E10).
func BenchmarkSyncBits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.SyncBitsExperiment()
		if err != nil {
			b.Fatal(err)
		}
		if !r.HandoffOK {
			b.Fatal("handoff failed")
		}
	}
}

// BenchmarkBlockCache measures caching remote data in local DRAM (E11).
func BenchmarkBlockCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := core.BlockCacheExperiment()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.CachedPass2), "cached_pass2_cycles")
			b.ReportMetric(float64(r.UncachedPass2), "uncached_pass2_cycles")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// cycles per second for a busy 4-node machine, the simulator's own
// performance number.
func BenchmarkSimulatorThroughput(b *testing.B) {
	s, err := core.NewSim(core.Options{Nodes: 4})
	if err != nil {
		b.Fatal(err)
	}
	src := `
    movi i1, #0
loop:
    add i1, i1, #1
    br loop
`
	for n := 0; n < 4; n++ {
		if err := s.LoadASM(n, 0, 0, src); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.M.Step()
	}
	b.ReportMetric(float64(b.N), "sim_cycles")
}

// BenchmarkEngineThroughput measures the cycle engine itself: simulated
// cycles per second via Machine.Step across a node-count sweep (single
// node, x-axis rows, and the 4x4x2 mesh), under two loads. "busy" runs a
// spin loop on every node (the engine's worst case: every chip issues
// every cycle); "sparse" runs it on node 0 only, so the sweep exposes what
// idle nodes cost — the number future scaling PRs need to track.
func BenchmarkEngineThroughput(b *testing.B) {
	sizes := []struct {
		name string
		dims noc.Coord
	}{
		{"Nodes1", noc.Coord{X: 1, Y: 1, Z: 1}},
		{"Nodes4", noc.Coord{X: 4, Y: 1, Z: 1}},
		{"Nodes16", noc.Coord{X: 16, Y: 1, Z: 1}},
		{"Mesh4x4x2", noc.Coord{X: 4, Y: 4, Z: 2}},
	}
	spin := `
    movi i1, #0
loop:
    add i1, i1, #1
    br loop
`
	for _, load := range []string{"busy", "sparse"} {
		for _, sz := range sizes {
			b.Run(load+"/"+sz.name, func(b *testing.B) {
				s, err := core.NewSim(core.Options{Dims: sz.dims})
				if err != nil {
					b.Fatal(err)
				}
				active := s.M.NumNodes()
				if load == "sparse" {
					active = 1
				}
				for n := 0; n < active; n++ {
					if err := s.LoadASM(n, 0, 0, spin); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.M.Step()
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
				b.ReportMetric(float64(b.N)*float64(s.M.NumNodes())/b.Elapsed().Seconds(),
					"node-cycles/sec")
			})
		}
	}
}

// BenchmarkEngineFastForward measures the idle fast-forward path: a
// complete Run of a remote-access workload on an 8-node machine, where
// almost every cycle is a wait on memory, handler, or network latency and
// the event engine jumps the clock instead of stepping through it.
func BenchmarkEngineFastForward(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := core.NewSim(core.Options{Nodes: 8})
		if err != nil {
			b.Fatal(err)
		}
		addr := s.HomeBase(7) + 16
		if err := s.LoadASM(0, 0, 0, itoaProg(addr)); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(200000); err != nil {
			b.Fatal(err)
		}
	}
}

// stagedMesh boots the 4x4x2 machine and runs a staging prefix that fills
// 256 words of every node's home memory, so snapshots of it carry
// materialized SDRAM chunks, valid cache lines and warmed LTLBs — the
// common prefix a sweep forks from.
func stagedMesh(tb testing.TB) *core.Sim {
	s, err := core.NewSim(core.Options{Dims: noc.Coord{X: 4, Y: 4, Z: 2}})
	if err != nil {
		tb.Fatal(err)
	}
	for n := 0; n < s.M.NumNodes(); n++ {
		src := fmt.Sprintf(`
    movi i1, #%d
    movi i2, #%d
    movi i3, #0
fill:
    st [i1], i2
    add i1, i1, #1
    add i2, i2, #3
    add i3, i3, #1
    lt i4, i3, #256
    brt i4, fill
    halt
`, s.HomeBase(n), 1000*n)
		if err := s.LoadASM(n, 0, 0, src); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := s.Run(1_000_000); err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkFork, BenchmarkSave and BenchmarkRestore price the checkpoint
// subsystem on the staged 32-node machine (DESIGN.md, "Checkpoint/
// restore", Target vs Actual): ns, bytes and allocations per operation.
func BenchmarkFork(b *testing.B) {
	s := stagedMesh(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := s.Fork()
		if err != nil {
			b.Fatal(err)
		}
		f.M.Close()
	}
}

func BenchmarkSave(b *testing.B) {
	s := stagedMesh(b)
	var size bytes.Buffer
	if err := s.Save(&size); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size.Len()), "snapshot_bytes")
}

func BenchmarkRestore(b *testing.B) {
	s := stagedMesh(b)
	var snapshot bytes.Buffer
	if err := s.Save(&snapshot); err != nil {
		b.Fatal(err)
	}
	f, err := s.Fork()
	if err != nil {
		b.Fatal(err)
	}
	defer f.M.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Restore(bytes.NewReader(snapshot.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// itoaProg builds a far-remote pointer-chase: store then dependent loads.
func itoaProg(addr uint64) string {
	return `
    movi i1, #` + itoa(int(addr)) + `
    movi i2, #99
    st [i1], i2
    ld i3, [i1]
    add i4, i3, #1
    st [i1+1], i4
    ld i5, [i1+1]
    halt
`
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
