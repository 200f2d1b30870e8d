package serve

// Chaos wiring: the server can inject faults into admitted sessions
// (the -chaos flag, the recovery tests) so the recovery paths run in CI
// instead of waiting for a real crash. Selection and placement are
// deterministic functions of (seed, admission sequence number), so a
// chaos run is reproducible from its flag string alone. Probes are
// installed only on a session's first attempt from a fresh start —
// retries and checkpoint resumes run clean, which is what makes the
// recovery converge and lets the final state be compared bit-for-bit
// against a chaos-free control run.

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultinject"
)

// Chaos configures deterministic fault injection for admitted sessions.
type Chaos struct {
	Seed       uint64        // derivation seed
	PanicEvery int           // every Nth admission panics mid-run (0 = never)
	StallEvery int           // every Nth admission stalls past its deadline (0 = never)
	StallDelay time.Duration // per-step stall length; must exceed the session deadline to trip it
	MaxCycle   int64         // fault cycles drawn from [1, MaxCycle]
}

// ParseChaos parses a -chaos flag value: comma-separated key=value pairs
// seed=N, panic=N, stall=N, delay=DUR, maxcycle=N. Example:
// "seed=7,panic=3,stall=5,delay=2s,maxcycle=4096".
func ParseChaos(s string) (*Chaos, error) {
	c := &Chaos{Seed: 1, StallDelay: 2 * time.Second, MaxCycle: 4096}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("chaos: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			c.Seed, err = strconv.ParseUint(v, 0, 64)
		case "panic":
			c.PanicEvery, err = strconv.Atoi(v)
		case "stall":
			c.StallEvery, err = strconv.Atoi(v)
		case "delay":
			c.StallDelay, err = time.ParseDuration(v)
		case "maxcycle":
			c.MaxCycle, err = strconv.ParseInt(v, 0, 64)
		default:
			return nil, fmt.Errorf("chaos: unknown key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("chaos: %s: %v", k, err)
		}
	}
	if c.PanicEvery < 0 || c.StallEvery < 0 || c.MaxCycle < 1 || c.StallDelay < 0 {
		return nil, fmt.Errorf("chaos: negative or zero parameter")
	}
	return c, nil
}

// probe derives the fault (if any) for admission number seq of a
// nodes-node session. It returns a machine fault probe and a description
// for logs, or (nil, ""). A panic and a stall landing on the same seq is
// resolved panic-wins, so every selected session gets exactly one fault.
func (c *Chaos) probe(seq uint64, nodes int) (faultinject.Probe, string) {
	if c == nil || nodes < 1 {
		return nil, ""
	}
	h := faultinject.SplitMix64(c.Seed ^ (seq * 0x9e3779b97f4a7c15))
	node := int(h % uint64(nodes))
	cycle := 1 + int64(faultinject.SplitMix64(h)%uint64(c.MaxCycle))
	if c.PanicEvery > 0 && seq%uint64(c.PanicEvery) == 0 {
		return faultinject.PanicFrom(node, cycle), fmt.Sprintf("panic at node %d from cycle %d", node, cycle)
	}
	if c.StallEvery > 0 && seq%uint64(c.StallEvery) == 0 {
		return faultinject.StallAt(node, cycle, c.StallDelay),
			fmt.Sprintf("stall %v at node %d from cycle %d", c.StallDelay, node, cycle)
	}
	return nil, ""
}
