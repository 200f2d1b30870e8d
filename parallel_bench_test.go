// Benchmarks and regression checks for the worker pool: the chip phase
// run on machine.Config.Workers goroutines swept against the same phase
// run inline, over node count, under a busy workload — every cluster of
// every node issuing every cycle, the chip phase's worst case and the
// configuration the pool exists for. (Mostly idle meshes are measured by
// benchmark/'s idle-remote workload.)
package repro_test

import (
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
)

// busySim boots a machine of the given shape with spin loops on all four
// clusters of every node, so every chip issues four instructions per cycle
// and no cycle can be fast-forwarded.
func busySim(tb testing.TB, dims noc.Coord, workers int) *core.Sim {
	s, err := core.NewSim(core.Options{Dims: dims, Workers: workers})
	if err != nil {
		tb.Fatal(err)
	}
	spin := `
    movi i1, #0
loop:
    add i1, i1, #1
    br loop
`
	for n := 0; n < s.M.NumNodes(); n++ {
		for cl := 0; cl < 4; cl++ {
			if err := s.LoadASM(n, 0, cl, spin); err != nil {
				tb.Fatal(err)
			}
		}
	}
	// Let program loading settle into steady state before timing.
	for i := 0; i < 16; i++ {
		s.M.Step()
	}
	return s
}

// BenchmarkParallelSpeedup sweeps node count × engine: compare the
// "serial" and "parallel" variants of each size to read off the speedup
// (cycles/sec). The parallel variant runs the chip phase on GOMAXPROCS
// workers; on a single-core host the two variants coincide.
func BenchmarkParallelSpeedup(b *testing.B) {
	sizes := []struct {
		name string
		dims noc.Coord
	}{
		{"Nodes8", noc.Coord{X: 8, Y: 1, Z: 1}},
		{"Mesh4x4x2", noc.Coord{X: 4, Y: 4, Z: 2}},
		{"Mesh8x8x2", noc.Coord{X: 8, Y: 8, Z: 2}},
	}
	engines := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", -1},
	}
	for _, sz := range sizes {
		for _, eng := range engines {
			b.Run(sz.name+"/"+eng.name, func(b *testing.B) {
				s := busySim(b, sz.dims, eng.workers)
				defer s.M.Close()
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

// TestParallelSpeedup is the acceptance tripwire for the worker pool:
// on a host with ≥ 4 cores, stepping a busy 128-node mesh (8x8x2, well
// past the 32-node bar) must be ≥ 2× faster on the pool than inline.
// Wall-clock assertions are only meaningful when the measurement has the
// host to itself, so the test runs solely under `make speedup`
// (PARALLEL_SPEEDUP=1, its own go test invocation after the main suite) —
// inside a plain `go test ./...` it would contend with concurrently
// running package binaries and flake. It also skips on small hosts and
// under the race detector's instrumentation; `make speedup` prints the
// reason on one line.
func TestParallelSpeedup(t *testing.T) {
	if os.Getenv("PARALLEL_SPEEDUP") == "" {
		t.Skip("wall-clock measurement needs an idle host: run via make speedup (PARALLEL_SPEEDUP=1)")
	}
	if raceEnabled {
		t.Skip("skipped: wall-clock measurement is meaningless under the race detector")
	}
	if p := runtime.GOMAXPROCS(0); p < 4 {
		t.Skipf("skipped: need GOMAXPROCS >= 4 for the 2x bar, have %d", p)
	}
	if c := runtime.NumCPU(); c < 4 {
		// GOMAXPROCS can be raised by hand, but time-slicing 4 workers on
		// fewer physical cores makes the pooled phase *slower*; the bar
		// only means something on real parallel hardware.
		t.Skipf("skipped: need >= 4 physical CPUs for the 2x bar, have %d", c)
	}
	const cycles = 1000
	dims := noc.Coord{X: 8, Y: 8, Z: 2}
	measure := func(workers int) time.Duration {
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			s := busySim(t, dims, workers)
			start := time.Now()
			for i := 0; i < cycles; i++ {
				s.M.Step()
			}
			if d := time.Since(start); d < best {
				best = d
			}
			s.M.Close()
		}
		return best
	}
	serial := measure(1)
	parallel := measure(-1)
	speedup := float64(serial) / float64(parallel)
	t.Logf("busy 8x8x2: serial %v, parallel %v, speedup %.2fx", serial, parallel, speedup)
	if speedup < 2 {
		t.Errorf("worker pool speedup %.2fx < 2x on a %d-core host", speedup, runtime.GOMAXPROCS(0))
	}
}
