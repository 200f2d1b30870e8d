package dist

import (
	"testing"

	"repro/internal/core"
)

// benchSource is the benchmark's dist-shards shape: grid smoothing over 8
// nodes, 24 elements per node, staged then smoothed.
const benchSource = `workload "dist bench"
mesh 8
const TOTAL 192
generate sstage smooth_stage total=TOTAL
generate swork smooth_work total=TOTAL
phase stage
load sstage on all vthread=3 cluster=3
run 5000000
phase smooth
load swork on all
run 10000000
check smooth total=TOTAL
`

// BenchmarkRunScenario is one distributed run of the dist-shards shape on
// two LocalLauncher shards: boot, seeds, windows, pulls and the digest.
func BenchmarkRunScenario(b *testing.B) {
	sc, err := core.ScenarioFromDSL("bench.wl", benchSource)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := RunScenario(sc, core.Options{}, Config{Shards: 2, Launcher: LocalLauncher{}}); err != nil {
			b.Fatal(err)
		}
	}
}
