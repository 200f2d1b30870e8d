// Package faultinject is the deterministic fault-injection harness for
// supervised runs (DESIGN.md, "Supervised runs & fault injection"). It
// manufactures the failures internal/guard exists to contain — worker
// panics at a chosen (chip, cycle), wall-clock stalls, wedged workers,
// corrupted snapshot streams — as reproducible, seedable artifacts, so
// the containment paths are exercised by ordinary tests instead of
// waiting for a real crash.
//
// Two fault families:
//
//   - Execution faults are machine fault probes (Machine.SetFaultProbe).
//     Each fires at a node's first step at or after a cycle (an
//     exact-cycle match would never fire while the event-driven engine
//     skips an idle node), so a fault on a node busy at that cycle fires
//     at the identical simulation point under every engine — naive,
//     event-driven, or a dist shard worker —
//     and a test can assert the exact crash site the guard reports. PanicFrom
//     raises an *InjectedPanic (which carries its own crash site);
//     StallAt burns wall-clock time to trip timeout watchdogs without
//     touching simulated state; HangFrom wedges the stepping goroutine to
//     exercise the hang/grace path.
//
//   - Stream faults corrupt snapshot bytes: Truncate, FlipBit, and the
//     seeded Corrupter, which derives every mutation from a splitmix64
//     generator so a corpus of damaged snapshots is reproducible from a
//     single integer seed (no math/rand, no global state).
package faultinject

import (
	"fmt"
	"time"
)

// InjectedPanic is the panic value PanicFrom raises. It implements the
// guard's crash-site interface, so a contained crash is attributed to the
// injected (node, cycle) exactly.
type InjectedPanic struct {
	Node  int
	Cycle int64
}

func (p *InjectedPanic) Error() string {
	return fmt.Sprintf("injected panic at node %d, cycle %d", p.Node, p.Cycle)
}

// CrashSite reports where the fault was injected (guard.Failure's
// Node/Cycle attribution).
func (p *InjectedPanic) CrashSite() (node int, cycle int64) { return p.Node, p.Cycle }

// Probe is a machine fault probe (the Machine.SetFaultProbe signature):
// called on the stepping goroutine immediately before a chip steps.
type Probe func(node int, cycle int64)

// PanicFrom returns a probe that panics with an *InjectedPanic, once, the
// first time chip node is about to step a cycle >= from. The probe fires
// before the step, so the machine state at containment is the clean
// between-cycles state for that chip — what makes crash-dump resume exact
// on every engine. The unsynchronized once-flag is safe: a machine steps
// its chips on one goroutine.
func PanicFrom(node int, from int64) Probe {
	fired := false
	return func(n int, c int64) {
		if n == node && c >= from && !fired {
			fired = true
			panic(&InjectedPanic{Node: n, Cycle: c})
		}
	}
}

// StallAt returns a probe that sleeps d of wall-clock time every time
// chip node steps a cycle >= from — a simulated-state no-op that makes
// the run arbitrarily slow, for tripping wall-clock watchdogs
// deterministically in simulation space (the stop flag still lands on a
// cycle boundary; only *which* boundary is host-dependent).
func StallAt(node int, from int64, d time.Duration) Probe {
	return func(n int, c int64) {
		if n == node && c >= from {
			time.Sleep(d)
		}
	}
}

// HangFrom returns a probe that blocks on release, once, the first time
// chip node is about to step a cycle >= from — a wedged worker that never
// reaches the run loop's stop check, for exercising the guard's
// hang/grace path and the dist coordinator's window deadline. Close
// release to un-wedge it (tests must, or the goroutine leaks past the
// test); a nil release wedges it for good.
func HangFrom(node int, from int64, release <-chan struct{}) Probe {
	fired := false
	return func(n int, c int64) {
		if n == node && c >= from && !fired {
			fired = true
			<-release
		}
	}
}

// Chain composes probes; each fires in order on every step.
func Chain(probes ...Probe) Probe {
	return func(n int, c int64) {
		for _, p := range probes {
			p(n, c)
		}
	}
}

// Truncate returns the first n bytes of b (all of b if n is past the
// end) — the torn-write / short-read snapshot fault.
func Truncate(b []byte, n int) []byte {
	if n < 0 {
		n = 0
	}
	if n > len(b) {
		n = len(b)
	}
	return b[:n:n]
}

// FlipBit returns a copy of b with the given bit inverted (bit counts
// from the start of the stream, little-endian within a byte). No-op on
// an out-of-range bit.
func FlipBit(b []byte, bit int) []byte {
	out := append([]byte(nil), b...)
	if i := bit / 8; bit >= 0 && i < len(out) {
		out[i] ^= 1 << (bit % 8)
	}
	return out
}

// Rand is a splitmix64 stream — the one seeded generator behind every
// reproducible choice outside the simulation proper: snapshot
// corruptions (Corrupter), generated scenarios (internal/wgen), chaos
// fault sites (internal/serve). A full-period 64-bit mixer,
// deterministic and dependency-free; crypto quality is irrelevant here,
// reproducibility is everything. The zero value is seed 0.
type Rand struct{ State uint64 }

// Next advances the stream one step.
func (r *Rand) Next() uint64 {
	r.State += 0x9e3779b97f4a7c15
	z := r.State
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n); n must be > 0.
func (r *Rand) Intn(n int) int { return int(r.Next() % uint64(n)) }

// SplitMix64 is one stream step as a pure function: the first output of
// the stream seeded x — a hash for spreading (seed, index) pairs.
func SplitMix64(x uint64) uint64 {
	r := Rand{State: x}
	return r.Next()
}

// Corrupter derives a reproducible stream of snapshot corruptions from a
// seed: the same seed always yields the same damage, so a failing corpus
// entry is a single integer in a test log. The zero value is seed 0.
type Corrupter struct {
	rng Rand
}

// NewCorrupter seeds a Corrupter.
func NewCorrupter(seed uint64) *Corrupter { return &Corrupter{rng: Rand{State: seed}} }

// Truncate cuts b at a derived point strictly inside the stream (never a
// no-op for len(b) > 1).
func (c *Corrupter) Truncate(b []byte) []byte {
	if len(b) < 2 {
		return Truncate(b, 0)
	}
	return Truncate(b, 1+c.rng.Intn(len(b)-1))
}

// FlipBit inverts one derived bit of b.
func (c *Corrupter) FlipBit(b []byte) []byte {
	if len(b) == 0 {
		return b
	}
	return FlipBit(b, c.rng.Intn(len(b)*8))
}

// Scramble overwrites a short derived span of b with derived bytes — the
// "page of garbage in the middle of the stream" fault.
func (c *Corrupter) Scramble(b []byte) []byte {
	out := append([]byte(nil), b...)
	if len(out) == 0 {
		return out
	}
	n := 1 + c.rng.Intn(16)
	at := c.rng.Intn(len(out))
	for i := 0; i < n && at+i < len(out); i++ {
		out[at+i] = byte(c.rng.Next())
	}
	return out
}

// Mutate applies one derived fault — truncation, bit flip, or scramble —
// chosen by the seed stream. The soak harness calls this in a loop to
// sweep the fault space from one base snapshot.
func (c *Corrupter) Mutate(b []byte) []byte {
	switch c.rng.Intn(3) {
	case 0:
		return c.Truncate(b)
	case 1:
		return c.FlipBit(b)
	}
	return c.Scramble(b)
}
