// Root benchmarks: the ones DESIGN.md quotes — the cycle engine's
// throughput and fast-forward, the checkpoint subsystem (Fork, Save,
// Restore), and (ablation_bench_test.go) the mechanism ablations and
// scaling sweeps. The paper's tables and figures are regenerated by
// cmd/mbench, and end-to-end host time is measured by benchmark/; neither
// is repeated here.
package repro_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/noc"
)

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

// BenchmarkBoot prices building a machine (DESIGN.md, Target vs Actual):
// machine.New alone, and core.NewSim, which also installs the runtime,
// on the 4x4x2 and 8x8x2 meshes — the set-up every workload, msimd
// attempt and dist worker pays.
func BenchmarkBoot(b *testing.B) {
	for _, dims := range []noc.Coord{{X: 4, Y: 4, Z: 2}, {X: 8, Y: 8, Z: 2}} {
		mesh := fmt.Sprintf("%dx%dx%d", dims.X, dims.Y, dims.Z)
		b.Run("New/"+mesh, func(b *testing.B) {
			cfg := machine.DefaultConfig()
			cfg.Dims = dims
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				machine.New(cfg).Close()
			}
		})
		b.Run("NewSim/"+mesh, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := core.NewSim(core.Options{Dims: dims})
				if err != nil {
					b.Fatal(err)
				}
				s.M.Close()
			}
		})
	}
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
