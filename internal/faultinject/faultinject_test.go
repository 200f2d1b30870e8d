package faultinject_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/faultinject"
	"repro/internal/guard"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/rt"
)

// engines is the containment matrix: every fault below must produce the
// identical typed failure at the identical simulation point under each.
// The parallel3 row ran the deleted worker pool; it keeps its name and
// repeats the event row.
var engines = []struct {
	name  string
	naive bool
}{
	{"naive", true},
	{"event", false},
	{"parallel3", false},
}

func newM(t *testing.T, nodes int, naive bool) *machine.Machine {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Dims = noc.Coord{X: nodes, Y: 1, Z: 1}
	m := machine.New(cfg)
	m.Naive = naive
	t.Cleanup(m.Close)
	if _, err := rt.Install(m, rt.Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if err := m.MapNodeRange(uint64(i)*4096, 4, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nodes; i++ {
		p, err := asm.Assemble("user", `
spin:
    add i1, i1, #1
    br spin
`)
		if err != nil {
			t.Fatal(err)
		}
		m.Chip(i).LoadProgram(0, 0, p, true)
	}
	return m
}

// TestInjectedPanicAllEngines: PanicFrom(chip, cycle) is contained as a
// crash *guard.Failure attributed to exactly that chip and cycle under
// every engine — the harness's reason to exist.
func TestInjectedPanicAllEngines(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			m := newM(t, 6, e.naive)
			m.SetFaultProbe(faultinject.PanicFrom(3, 200))
			s := guard.New(m, guard.Options{})
			_, err := s.Run(1 << 40)
			var ce *guard.Failure
			if !errors.As(err, &ce) || ce.Class != guard.ClassCrash {
				t.Fatalf("want a crash *Failure, got %v", err)
			}
			if ce.Node != 3 || ce.Cycle != 200 {
				t.Fatalf("crash site node %d cycle %d, want node 3 cycle 200", ce.Node, ce.Cycle)
			}
			var ip *faultinject.InjectedPanic
			if v, ok := ce.Value.(*faultinject.InjectedPanic); !ok {
				t.Fatalf("panic value %#v, want *InjectedPanic", ce.Value)
			} else {
				ip = v
			}
			if ip.Node != 3 || ip.Cycle != 200 {
				t.Fatalf("injected site %d/%d mangled in transit", ip.Node, ip.Cycle)
			}
		})
	}
}

// TestStallTripsWatchdog: StallAt makes the run slow without touching
// simulated state; the wall-clock watchdog cuts it off as stall-timeout.
func TestStallTripsWatchdog(t *testing.T) {
	m := newM(t, 1, false)
	m.SetFaultProbe(faultinject.StallAt(0, 0, 5*time.Millisecond))
	s := guard.New(m, guard.Options{Timeout: 40 * time.Millisecond})
	_, err := s.Run(1 << 40)
	if c := guard.Classify(err); c != guard.ClassStallTimeout {
		t.Fatalf("want stall-timeout, got %v (%s)", err, c)
	}
}

// TestBlockTripsHang: a probe that never returns wedges the stepping
// goroutine mid-cycle; the guard gives up after the grace period with a
// stall-hang and no dump.
func TestBlockTripsHang(t *testing.T) {
	m := newM(t, 1, false)
	release := make(chan struct{})
	defer close(release)
	m.SetFaultProbe(faultinject.HangFrom(0, 50, release))
	s := guard.New(m, guard.Options{Timeout: 10 * time.Millisecond, Grace: 40 * time.Millisecond})
	_, err := s.Run(1 << 40)
	if !guard.IsHang(err) {
		t.Fatalf("want hang, got %v", err)
	}
}

// TestChain: chained probes all fire.
func TestChain(t *testing.T) {
	m := newM(t, 2, false)
	hits := 0
	m.SetFaultProbe(faultinject.Chain(
		func(n int, c int64) {
			if c == 10 {
				hits++
			}
		},
		faultinject.PanicFrom(1, 20),
	))
	s := guard.New(m, guard.Options{})
	_, err := s.Run(1 << 40)
	var ce *guard.Failure
	if !errors.As(err, &ce) || ce.Node != 1 || ce.Cycle != 20 {
		t.Fatalf("chained panic lost: %v", err)
	}
	if hits != 2 { // both chips stepped cycle 10
		t.Fatalf("first probe in chain fired %d times at cycle 10, want 2", hits)
	}
}

// TestStreamFaultsDeterministic: the seeded Corrupter reproduces the
// identical damage from the identical seed, and its primitives behave.
// TestSplitMix64Golden pins the mixer to the published splitmix64
// sequence (seed 0) — every seeded artifact in the repo hangs off it.
func TestSplitMix64Golden(t *testing.T) {
	if got := faultinject.SplitMix64(0); got != 0xe220a8397b1dcdaf {
		t.Errorf("SplitMix64(0) = %#x", got)
	}
	if got := faultinject.SplitMix64(5); got != 0x63033b0ca389c35a {
		t.Errorf("SplitMix64(5) = %#x", got)
	}
	r := faultinject.Rand{}
	if a, b := r.Next(), r.Next(); a != 0xe220a8397b1dcdaf || b != 0x6e789e6aa1b965f4 {
		t.Errorf("Rand{0} stream starts %#x %#x", a, b)
	}
}

func TestStreamFaultsDeterministic(t *testing.T) {
	base := []byte(strings.Repeat("the quick brown fox ", 40))
	a, b := faultinject.NewCorrupter(42), faultinject.NewCorrupter(42)
	for i := 0; i < 32; i++ {
		x, y := a.Mutate(base), b.Mutate(base)
		if !bytes.Equal(x, y) {
			t.Fatalf("seed 42 diverged at mutation %d", i)
		}
		if bytes.Equal(x, base) && len(x) == len(base) {
			t.Fatalf("mutation %d was a no-op", i)
		}
	}
	if c := faultinject.NewCorrupter(43); bytes.Equal(c.Mutate(base), faultinject.NewCorrupter(42).Mutate(base)) {
		t.Fatal("different seeds produced identical damage")
	}
	if got := faultinject.Truncate(base, 7); len(got) != 7 {
		t.Fatalf("Truncate kept %d bytes, want 7", len(got))
	}
	if got := faultinject.FlipBit(base, 13); bytes.Equal(got, base) || len(got) != len(base) {
		t.Fatal("FlipBit did not flip exactly in place")
	}
}

// TestCorruptSnapshotNeverPanics: every seeded corruption of a real
// snapshot either restores cleanly (a lucky benign flip) or fails with a
// descriptive error — never a panic, never a half-mutated machine (the
// restore target must still resume and complete afterwards). This is the
// library-level twin of FuzzSnapshotDecode.
func TestCorruptSnapshotNeverPanics(t *testing.T) {
	src := newM(t, 2, false)
	if _, err := src.Run(300); err != nil && !errors.Is(err, machine.ErrCycleLimit) {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	base := buf.Bytes()

	dst := newM(t, 2, false)
	var pristine bytes.Buffer
	if err := dst.Save(&pristine); err != nil {
		t.Fatal(err)
	}
	c := faultinject.NewCorrupter(7)
	for i := 0; i < 64; i++ {
		damaged := c.Mutate(base)
		func() {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("restore of corrupt stream %d panicked: %v", i, v)
				}
			}()
			if err := dst.Restore(damaged); err != nil {
				// Failed restores must leave dst untouched.
				var now bytes.Buffer
				if err := dst.Save(&now); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(now.Bytes(), pristine.Bytes()) {
					t.Fatalf("corrupt stream %d half-mutated the machine", i)
				}
			} else {
				// A benign mutation restored: adopt that state as the new
				// baseline for the untouched-on-failure check.
				pristine.Reset()
				if err := dst.Save(&pristine); err != nil {
					t.Fatal(err)
				}
			}
		}()
	}
}

// TestInjectedSiteSweep: the fault fires regardless of which engine, for
// a spread of sites — guarding against shard-layout-dependent probe
// skips.
func TestInjectedSiteSweep(t *testing.T) {
	for _, e := range engines {
		for _, site := range []struct {
			node  int
			cycle int64
		}{{0, 1}, {5, 777}, {2, 64}} {
			name := fmt.Sprintf("%s/n%dc%d", e.name, site.node, site.cycle)
			t.Run(name, func(t *testing.T) {
				m := newM(t, 6, e.naive)
				m.SetFaultProbe(faultinject.PanicFrom(site.node, site.cycle))
				_, err := guard.New(m, guard.Options{}).Run(1 << 40)
				var ce *guard.Failure
				if !errors.As(err, &ce) || ce.Node != site.node || ce.Cycle != site.cycle {
					t.Fatalf("site %d/%d: got %v", site.node, site.cycle, err)
				}
			})
		}
	}
}
