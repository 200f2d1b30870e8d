package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
)

// dist-shards: a generated 8-node grid-smoothing scenario through
// dist.RunScenario with two LocalLauncher shards (goroutines over
// net.Pipe: the full wire protocol without process spawn). One operation
// is one distributed run; the coordinator<->worker exchange per busy
// cycle dominates. The digest must equal the in-process run's.
const (
	distNodes  = 8
	distShards = 2
	distTotal  = 192 // grid elements
	distSalt   = 16  // seeded words poked per node, so the seed reaches the digest
)

// distScenario generates the scenario source. The smoothing generators
// fix the grid values; the seed salts every node's home range with poked
// words (checked back by expect directives), which changes the machine
// state and digest but not the amount of work.
func distScenario(rng *rand.Rand, total int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload \"benchmark dist-shards\"\nmesh %d\nconst TOTAL %d\n", distNodes, total)
	b.WriteString("generate sstage smooth_stage total=TOTAL\ngenerate swork smooth_work total=TOTAL\n")
	type salt struct {
		node        int
		addr, value uint64
	}
	var salts []salt
	for n := 0; n < distNodes; n++ {
		// Salt lives in page 6 of the node's 4096-word home range, clear
		// of the smoothing chunks and the mailbox.
		fmt.Fprintf(&b, "maplocal node=%d page=%d\n", n, n*8+6)
		for k := 0; k < distSalt; k++ {
			s := salt{n, uint64(n)*4096 + 3072 + uint64(k), rng.Uint64N(1 << 40)}
			salts = append(salts, s)
			fmt.Fprintf(&b, "poke node=%d addr=%d value=%d\n", s.node, s.addr, s.value)
		}
	}
	b.WriteString("phase stage\nload sstage on all vthread=3 cluster=3\nrun 5000000\n")
	b.WriteString("phase smooth\nload swork on all\nrun 10000000\ncheck smooth total=TOTAL\n")
	for _, s := range salts {
		fmt.Fprintf(&b, "expect mem node=%d addr=%d value=%d\n", s.node, s.addr, s.value)
	}
	return b.String()
}

type distLoop struct {
	src  string
	sc   *core.Scenario
	ref  *simState
	wire wireCounts

	res *dist.RunResult
	sim *core.Sim
	sz  map[string]int64
}

func distShardsWorkload(cfg runConfig) *result {
	// The smoothing generators need at least two elements per node.
	total := max(2, cfg.scale.of(distTotal/distNodes)) * distNodes
	l := &distLoop{src: distScenario(newRand(cfg.seed, 6), total)}
	l.sz = map[string]int64{"nodes": distNodes, "shards": distShards, "grid_elements": total, "salt_words_per_node": distSalt}
	return runLoop(cfg, l)
}

func (l *distLoop) sizes() map[string]int64 { return l.sz }
func (l *distLoop) state() simState         { return *l.ref }

// setup compiles the scenario: parse, validate, lower.
func (l *distLoop) setup(c *collect) error {
	t0 := now()
	sc, err := core.ScenarioFromDSL("dist-shards.wl", l.src)
	c.build.compile += now() - t0
	c.build.compiles++
	l.sc = sc
	return err
}

func (l *distLoop) op(c *collect, traced, _ bool) (opSample, error) {
	var launcher dist.Launcher = dist.LocalLauncher{}
	if traced {
		launcher = &countingLauncher{counts: &l.wire}
		c.t.begin(spRun)
		c.t.begin(spDistRun)
	}
	t0 := now()
	res, s, err := dist.RunScenario(l.sc, core.Options{}, dist.Config{Shards: distShards, Launcher: launcher})
	wall := now() - t0
	if traced {
		c.t.end()
		c.t.end()
	}
	if err != nil {
		return opSample{}, err
	}
	l.res, l.sim = res, s
	if traced {
		l.wire.mu.Lock()
		l.wire.cycles += res.TotalCycles
		l.wire.mu.Unlock()
	}
	return opSample{nodeCycles: res.TotalCycles * distNodes, wall: wall, done: true}, nil
}

// verify compares the distributed run with the in-process run of the
// same scenario (which also applies the scenario's own smoothing check
// and salt expectations): cycles, checks, statistics, trace volume and
// digest must all agree.
func (l *distLoop) verify() error {
	if l.ref == nil {
		res, s, err := l.sc.RunSim(core.Options{})
		if err != nil {
			return fmt.Errorf("dist-shards: in-process reference: %w", err)
		}
		l.ref = &simState{stats: res.Stats, events: len(s.Recorder.Events), hops: s.M.Net.TotalHops, digest: res.Digest}
	}
	st := simState{stats: l.res.Stats, events: len(l.sim.Recorder.Events), hops: l.sim.M.Net.TotalHops, digest: l.res.Digest}
	if err := checkState(&l.ref, st); err != nil {
		return fmt.Errorf("dist-shards: distributed run differs from the in-process run: %w", err)
	}
	if len(l.res.Failures) > 0 || l.res.Recoveries > 0 {
		return fmt.Errorf("dist-shards: %d shard failures, %d recoveries in an undisturbed run", len(l.res.Failures), l.res.Recoveries)
	}
	return nil
}

func (l *distLoop) finish(c *collect) error {
	w := &l.wire
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cycles > 0 {
		c.layer["dist.exchanges_per_cycle"] = float64(w.exchanges) / float64(w.cycles)
		c.layer["dist.bytes_per_cycle"] = float64(w.bytes) / float64(w.cycles)
	}
	if w.exchanges > 0 {
		c.layer["dist.exchange_us"] = float64(w.waited.Microseconds()) / float64(w.exchanges)
	}
	// The hub machine of a finished run is closed but readable.
	return snapProbe(l.sim, c)
}

// wireCounts totals what crossed the coordinator's side of the shard
// connections during traced operations.
type wireCounts struct {
	mu        sync.Mutex
	exchanges int64         // command frames the coordinator sent
	bytes     int64         // bytes in both directions
	waited    time.Duration // command header written -> reply frame fully read
	cycles    int64         // simulated cycles of the traced runs
}

// countingLauncher wraps LocalLauncher's handles in a net.Conn that
// parses the wire protocol's frame headers ([kind u8][len u32 LE], see
// internal/dist/proto.go) to count and time exchanges from outside.
type countingLauncher struct{ counts *wireCounts }

func (l *countingLauncher) Start(shard int) (dist.Handle, error) {
	h, err := dist.LocalLauncher{}.Start(shard)
	if err != nil {
		return nil, err
	}
	return &countingHandle{Handle: h, counts: l.counts}, nil
}

// frameScan tracks frame boundaries in one direction of a byte stream.
type frameScan struct {
	hdr    [5]byte
	have   int // header bytes collected
	remain int // payload bytes still to pass
}

// feed consumes p and returns how many frames began and how many ended.
func (f *frameScan) feed(p []byte) (began, ended int) {
	for len(p) > 0 {
		if f.remain > 0 {
			n := min(f.remain, len(p))
			f.remain -= n
			p = p[n:]
			if f.remain == 0 {
				ended++
			}
			continue
		}
		n := copy(f.hdr[f.have:], p)
		f.have += n
		p = p[n:]
		if f.have == len(f.hdr) {
			f.have = 0
			began++
			f.remain = int(binary.LittleEndian.Uint32(f.hdr[1:]))
			if f.remain == 0 {
				ended++
			}
		}
	}
	return began, ended
}

// countingHandle is used by one coordinator goroutine at a time per
// direction; the shared totals take the lock.
type countingHandle struct {
	dist.Handle
	counts  *wireCounts
	out, in frameScan
	sentAt  time.Duration
	pending bool
}

func (h *countingHandle) Write(p []byte) (int, error) {
	n, err := h.Handle.Write(p)
	began, _ := h.out.feed(p[:n])
	if began > 0 {
		h.sentAt, h.pending = now(), true
	}
	h.counts.mu.Lock()
	h.counts.exchanges += int64(began)
	h.counts.bytes += int64(n)
	h.counts.mu.Unlock()
	return n, err
}

func (h *countingHandle) Read(p []byte) (int, error) {
	n, err := h.Handle.Read(p)
	_, ended := h.in.feed(p[:n])
	h.counts.mu.Lock()
	h.counts.bytes += int64(n)
	if ended > 0 && h.pending {
		h.counts.waited += now() - h.sentAt
		h.pending = false
	}
	h.counts.mu.Unlock()
	return n, err
}
