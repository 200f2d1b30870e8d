package wgen

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestSourceDeterministic pins the generator's core contract: a seed
// names exactly one scenario, byte for byte, and distinct seeds name
// distinct scenarios.
func TestSourceDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 64; seed++ {
		n1, s1 := Source(seed)
		n2, s2 := Source(seed)
		if n1 != n2 || s1 != s2 {
			t.Fatalf("seed %d generated two different scenarios", seed)
		}
	}
	_, a := Source(1)
	_, b := Source(2)
	if a == b {
		t.Fatal("seeds 1 and 2 generated identical scenarios")
	}
}

// TestSourceGolden pins seeds 0 and 5 (the FuzzSnapshotDecode corpus
// seeds) to the scenario text they have always named: "one seed, one
// scenario, forever" survives any change to where the splitmix64 stream
// lives.
func TestSourceGolden(t *testing.T) {
	for seed, want := range map[uint64]string{
		0: "4aca097434609e1f28e19791b91945a670824de609fdd927e7724f99dcce336e",
		5: "cfd549726d48c58d6cb9ff8d8818df8e64b2230f52d61da8e735468b815155d8",
	} {
		_, src := Source(seed)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(src))); got != want {
			t.Errorf("seed %d: scenario text sha256 %s, want %s", seed, got, want)
		}
	}
}

// TestSourceCompiles requires every generated scenario to compile: the
// generator only emits values inside the DSL's validated ranges, so a
// compile error is a wgen bug regardless of seed.
func TestSourceCompiles(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 50
	}
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		name, src := Source(seed)
		if _, err := core.ScenarioFromDSL(name+".wl", src); err != nil {
			t.Errorf("seed %d does not compile: %v\n--- source ---\n%s", seed, err, src)
		}
	}
}

// TestSourceVariety checks the generator actually exercises the feature
// space: over a window of seeds, every leg kind, the sweep form, the
// caching mode, multi-leg scenarios, and multi-node meshes all appear.
func TestSourceVariety(t *testing.T) {
	var sweeps, grants, exchanges, loopsyncs, caching, multiLeg, multiNode int
	for seed := uint64(0); seed < 200; seed++ {
		_, src := Source(seed)
		if strings.Contains(src, "sweep P") {
			sweeps++
		}
		if strings.Contains(src, "grant ") {
			grants++
		}
		if strings.Contains(src, "exchange msgs=") {
			exchanges++
		}
		if strings.Contains(src, "loopsync hthreads=") {
			loopsyncs++
		}
		if strings.Contains(src, "caching on") {
			caching++
		}
		if strings.Count(src, "phase ") > 1 {
			multiLeg++
		}
		if !strings.Contains(src, "mesh 1 1 1") {
			multiNode++
		}
	}
	for _, c := range []struct {
		what string
		n    int
	}{
		{"sweep scenarios", sweeps},
		{"guarded-pointer legs", grants},
		{"exchange legs", exchanges},
		{"loopsync legs", loopsyncs},
		{"caching scenarios", caching},
		{"multi-leg scenarios", multiLeg},
		{"multi-node meshes", multiNode},
	} {
		if c.n == 0 {
			t.Errorf("no %s in 200 seeds — the generator lost a feature", c.what)
		}
	}
}

// TestVerifySeeds runs the full determinism matrix over seeds 0..199
// (four when -short). Every failing seed is reported, each naming its
// `msim -gen-seed N` repro.
func TestVerifySeeds(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 4
	}
	if seeds == 0 {
		t.Fatal("the seed window is empty; the matrix proved nothing")
	}
	for seed := 0; seed < seeds; seed++ {
		if err := Verify(uint64(seed)); err != nil {
			t.Error(err)
		}
	}
}

// TestSeedTimelinesPinned pins the rendered trace timeline of five seeds
// to the bytes the per-event fmt.Sprintf call sites produced before the
// trace record became typed; Verify's fingerprints embed this text, so the
// matrix compares the same strings it always has. (Generated scenarios
// emit seven of the record kinds; internal/core's TestTimelineBytesPinned
// covers the rest.)
func TestSeedTimelinesPinned(t *testing.T) {
	for seed, want := range map[uint64]string{
		0:  "dce098021a9eb3f8ddb5b5a25186af0a783f9b6a2f049e66c1abd76b6f00249e",
		4:  "84eeb86554ef4f27db393473fd3410cfa0d480bce02cc83810d01acf2437fa4f",
		5:  "8b7e6d7a6247216ab1fe853b26fda42108694ada1d87acb1272d3b7756e3dcc9",
		8:  "6daafb7efd6604948f9be3fdc92730a910294131534afdefec5b7f4902077be7",
		21: "3574a3cee396e1c083bd85d219bef763827fe2139084e510427a0d13b8e4c85e",
	} {
		name, src := Source(seed)
		sc, err := core.ScenarioFromDSL(name+".wl", src)
		if err != nil {
			t.Fatal(err)
		}
		_, s, err := sc.RunSim(core.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tl := s.Recorder.Timeline(s.Recorder.Events)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(tl))); got != want {
			t.Errorf("seed %d: timeline sha256 %s, want %s", seed, got, want)
		}
	}
}
