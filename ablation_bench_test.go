// Ablation benchmarks for the design choices DESIGN.md calls out: SDRAM
// page mode, LTLB capacity, C-Switch port count, and network distance.
// Each reports measured simulated cycles as metrics so the sensitivity of
// the design point is visible in `go test -bench`.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

// pageSweepCycles runs a workload that revisits 8 distinct pages (mapped in
// the LPT only) for several rounds, under the given LTLB capacity.
func pageSweepCycles(b *testing.B, ltlbEntries int) int64 {
	cfg := chip.DefaultConfig()
	cfg.Mem.LTLBEntries = ltlbEntries
	s, err := core.NewSim(core.Options{Nodes: 1, Chip: &cfg})
	if err != nil {
		b.Fatal(err)
	}
	for vpn := uint64(0); vpn < 8; vpn++ {
		s.MapLocal(0, vpn, mem.BSReadWrite, false)
	}
	// Each round touches a fresh block of every page so the virtually
	// tagged cache cannot satisfy the access and the LTLB is consulted
	// (a cache hit needs no translation, so re-reading cached words would
	// never expose LTLB capacity).
	src := `
    movi i2, #0
    movi i3, #6             ; rounds
round:
    shl i1, i2, #3          ; block offset = round*8
    movi i4, #0
    movi i8, #8
page:
    ld i5, [i1]
    add i6, i6, i5
    movi i7, #512
    add i1, i1, i7
    add i4, i4, #1
    lt i7, i4, i8
    brt i7, page
    add i2, i2, #1
    lt i7, i2, i3
    brt i7, round
    halt
`
	if err := s.LoadASM(0, 0, 0, src); err != nil {
		b.Fatal(err)
	}
	cycles, err := s.Run(1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	return cycles
}

// BenchmarkAblationLTLBSize compares a 64-entry LTLB (every page resident
// after the first round) against a 4-entry one (capacity misses on every
// revisit of the 8-page working set).
func BenchmarkAblationLTLBSize(b *testing.B) {
	var big, small int64
	for i := 0; i < b.N; i++ {
		big = pageSweepCycles(b, 64)
		small = pageSweepCycles(b, 4)
	}
	b.ReportMetric(float64(big), "cycles_ltlb64")
	b.ReportMetric(float64(small), "cycles_ltlb4")
	if small <= big {
		b.Fatalf("LTLB capacity misses had no cost: %d vs %d", small, big)
	}
}

// blockSweepCycles measures a sequential 64-word sweep under an SDRAM
// configuration.
func blockSweepCycles(b *testing.B, sdram mem.SDRAMConfig) int64 {
	cfg := chip.DefaultConfig()
	cfg.Mem.SDRAM = sdram
	s, err := core.NewSim(core.Options{Nodes: 1, Chip: &cfg})
	if err != nil {
		b.Fatal(err)
	}
	s.MapLocal(0, 0, mem.BSReadWrite, true)
	if err := s.LoadASM(0, 0, 0, `
    movi i1, #0
    movi i2, #0
    movi i3, #64
loop:
    ld i4, [i1]
    add i5, i5, i4
    add i1, i1, #1
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop
    halt
`); err != nil {
		b.Fatal(err)
	}
	cycles, err := s.Run(1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	return cycles
}

// BenchmarkAblationSDRAMPageMode compares the paper's page-mode SDRAM
// (row hits cheaper than row misses) against a flat-latency device: the
// sequential sweep must benefit from the open row.
func BenchmarkAblationSDRAMPageMode(b *testing.B) {
	pageMode := mem.DefaultSDRAMConfig()
	flat := pageMode
	flat.RowHitLat = flat.RowMissLat
	var withPM, without int64
	for i := 0; i < b.N; i++ {
		withPM = blockSweepCycles(b, pageMode)
		without = blockSweepCycles(b, flat)
	}
	b.ReportMetric(float64(withPM), "cycles_page_mode")
	b.ReportMetric(float64(without), "cycles_flat")
	if withPM >= without {
		b.Fatalf("page mode had no benefit: %d vs %d", withPM, without)
	}
}

// cswitchCycles runs four clusters each streaming cross-cluster register
// writes, under a given C-Switch port budget.
func cswitchCycles(b *testing.B, ports int) int64 {
	cfg := chip.DefaultConfig()
	cfg.CSwitchPorts = ports
	s, err := core.NewSim(core.Options{Nodes: 1, Chip: &cfg})
	if err != nil {
		b.Fatal(err)
	}
	for cl := 0; cl < isa.NumClusters; cl++ {
		dst := (cl + 1) % isa.NumClusters
		// Dense transfer traffic: four cross-cluster writes per loop so the
		// aggregate demand (~2.3 transfers/cycle) exceeds one port.
		if err := s.LoadASM(0, 0, cl, fmt.Sprintf(`
    movi i1, #0
    movi i2, #64
loop:
    mov @%[1]d.i5, i1
    mov @%[1]d.i6, i1
    mov @%[1]d.i7, i1
    mov @%[1]d.i8, i1
    add i1, i1, #1
    lt i3, i1, i2
    brt i3, loop
    halt
`, dst)); err != nil {
			b.Fatal(err)
		}
	}
	cycles, err := s.Run(100_000)
	if err != nil {
		b.Fatal(err)
	}
	return cycles
}

// BenchmarkAblationCSwitchPorts compares the paper's 4-transfer-per-cycle
// C-Switch against a single-ported one under all-cluster transfer traffic.
func BenchmarkAblationCSwitchPorts(b *testing.B) {
	var four, one int64
	for i := 0; i < b.N; i++ {
		four = cswitchCycles(b, 4)
		one = cswitchCycles(b, 1)
	}
	b.ReportMetric(float64(four), "cycles_4ports")
	b.ReportMetric(float64(one), "cycles_1port")
	if one <= four {
		b.Fatalf("C-Switch contention had no cost: %d vs %d", one, four)
	}
}

// benchExperiment runs one experiment of core's table b.N times and
// reports the first run's metrics under their table names.
func benchExperiment(b *testing.B, name string) {
	for _, e := range core.Experiments() {
		if e.Name != name {
			continue
		}
		for i := 0; i < b.N; i++ {
			_, ms, err := e.Run()
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				for _, m := range ms {
					b.ReportMetric(m.Value, m.Name)
				}
			}
		}
		return
	}
	b.Fatalf("no experiment %q", name)
}

// BenchmarkNetworkSweep reports remote read latency against mesh distance
// (E12): read_hops<N> cycles.
func BenchmarkNetworkSweep(b *testing.B) { benchExperiment(b, "netsweep") }

// BenchmarkGridSmoothScaling reports the distributed smoothing pass's
// cycles at each machine size (E13): smooth_nodes<N>.
func BenchmarkGridSmoothScaling(b *testing.B) { benchExperiment(b, "gridsmooth") }
