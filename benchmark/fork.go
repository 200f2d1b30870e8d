package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/workload"
)

// fork-sweep: stage a 32-node machine with populated home memory once
// (set-up), then run forkPoints points, each Sim.Fork -> load a short
// message storm to a seeded destination -> run -> Save into the digest
// hash. One operation is one point. snap encode/decode dominates;
// stepping is minor. Every point sends the same number of messages, so
// the points are equal amounts of work.
const (
	forkPoints     = 64
	forkStageWords = 256 // words of home memory each node fills during staging
	forkMsgs       = 8   // messages each node sends in a point's storm
)

type forkLoop struct {
	base   *simInput // staging only; the work is loaded per point
	shifts []int     // per point: every node sends to the node this far ahead
	dip    uint64

	staged *core.Sim
	next   int // next point of the current sweep
	cur    *core.Sim
	curSt  simState

	refs []*simState // per point, from the first sweep
	fold *simState   // the first complete sweep, folded
}

func forkSweepWorkload(cfg runConfig) *result {
	rng := newRand(cfg.seed, 5)
	home := homeBase(0)
	n := int(cfg.scale.of(forkPoints))
	l := &forkLoop{
		base: &simInput{
			opts:      core.Options{Dims: mesh32},
			maxCycles: 1_000_000,
			sizes: map[string]int64{"nodes": 32, "points": int64(n), "stage_words_per_node": forkStageWords,
				"msgs_per_node": forkMsgs},
		},
		dip:  remoteWriteDIP(),
		refs: make([]*simState, n),
	}
	for i := 0; i < n; i++ {
		l.shifts = append(l.shifts, 1+rng.IntN(31))
	}
	for node := 0; node < 32; node++ {
		// Staging fills forkStageWords of each node's home range with
		// seeded values and first-touches the mailbox page.
		l.base.stage = append(l.base.stage, program{node, 3, 3, fmt.Sprintf(`
    movi i1, #%d
    movi i2, #%d
    movi i3, #0
    movi i4, #%d
sloop:
    st [i1], i2
    add i1, i1, #1
    add i2, i2, #%d
    add i3, i3, #1
    lt i6, i3, i4
    brt i6, sloop
    movi i1, #%d
    movi i5, #0
    st [i1], i5
    halt
`, home(node)+workload.MeshUOffset, rng.Uint64N(1<<30), forkStageWords, 1+rng.IntN(97),
			home(node)+workload.MeshMailbox)})
	}
	return runLoop(cfg, l)
}

func (l *forkLoop) sizes() map[string]int64 { return l.base.sizes }

func (l *forkLoop) setup(c *collect) error {
	if l.staged != nil {
		l.staged.M.Close()
	}
	s, err := l.base.build(&c.build)
	l.staged, l.next = s, 0
	return err
}

// runPoint is the body of one point on a forked (or freshly staged)
// machine: assemble and load the storm, run it, digest the result.
func (l *forkLoop) runPoint(s *core.Sim, shift int, c *collect, traced bool) (simState, error) {
	for node := 0; node < 32; node++ {
		t0 := now()
		prog, err := asm.Assemble("storm", fmt.Sprintf(`
    movi i1, #%d
    movi i3, #%d
    movi i5, #0
    movi i6, #%d
loop:
    add i9, i1, i5
    send i9, i3, i9, #1
    add i5, i5, #1
    lt i7, i5, i6
    brt i7, loop
    halt
`, s.HomeBase((node+shift)%32)+workload.MeshMailbox, l.dip, forkMsgs))
		c.build.assemble += now() - t0
		c.build.assembles++
		if err != nil {
			return simState{}, err
		}
		s.LoadProgram(node, 0, 0, prog, true)
	}
	var err error
	if traced {
		_, err = drive(s.M, l.base.maxCycles, c.t, &c.drive)
	} else {
		_, err = s.Run(l.base.maxCycles)
	}
	if err != nil {
		return simState{}, err
	}
	if traced {
		c.t.begin(spSnapSave)
		defer c.t.end()
	}
	return stateOf(s)
}

func (l *forkLoop) op(c *collect, traced, _ bool) (opSample, error) {
	t0 := now()
	if traced {
		c.t.begin(spRun)
		defer c.t.end()
		c.t.begin(spSnapFork)
	}
	f, err := l.staged.Fork()
	if traced {
		c.t.end()
	}
	if err != nil {
		return opSample{}, err
	}
	st, err := l.runPoint(f, l.shifts[l.next], c, traced)
	wall := now() - t0
	if err != nil {
		f.M.Close()
		return opSample{}, err
	}
	l.cur, l.curSt = f, st
	return opSample{nodeCycles: (f.M.Cycle - l.staged.M.Cycle) * 32, wall: wall, done: l.next == len(l.shifts)-1}, nil
}

// verify checks the point just run: its mailboxes, its digest against the
// same point of the first sweep, and — for two points of the first sweep
// — its digest against the same point run standalone from boot.
func (l *forkLoop) verify() error {
	i, s := l.next, l.cur
	l.next++
	l.cur = nil
	defer s.M.Close()
	dstOf := func(node int) int { return (node + l.shifts[i]) % 32 }
	for node := 0; node < 32; node++ {
		for w := 0; w < forkMsgs; w++ {
			addr := workload.NeighborExchangeAddr(s.HomeBase, dstOf(node), w)
			got, err := s.Peek(dstOf(node), addr)
			if err != nil || got != addr {
				return fmt.Errorf("fork-sweep: point %d: node %d mailbox %d = %d (%v), want %d", i, dstOf(node), w, got, err, addr)
			}
		}
	}
	first := l.refs[i] == nil
	if err := checkState(&l.refs[i], l.curSt); err != nil {
		return fmt.Errorf("fork-sweep: point %d: %w", i, err)
	}
	if first && (i == len(l.shifts)/3 || i == len(l.shifts)-1) {
		alone, err := l.base.build(&buildTimes{})
		if err != nil {
			return err
		}
		defer alone.M.Close()
		st, err := l.runPoint(alone, l.shifts[i], &collect{}, false)
		if err != nil {
			return err
		}
		if st.digest != l.curSt.digest {
			return fmt.Errorf("fork-sweep: point %d: forked digest %s differs from the from-boot standalone point's %s",
				i, l.curSt.digest, st.digest)
		}
	}
	if l.fold == nil && i == len(l.shifts)-1 {
		l.fold = foldStates(l.refs)
	}
	return nil
}

// foldStates sums the points' statistics and hashes their digests, so a
// sweep (or a scenario pool) has one exact outcome to compare between runs.
func foldStates(sts []*simState) *simState {
	var f simState
	h := sha256.New()
	for _, st := range sts {
		if st == nil {
			continue
		}
		f.stats.Cycles += st.stats.Cycles
		f.stats.Instructions += st.stats.Instructions
		f.stats.Operations += st.stats.Operations
		f.stats.MsgsInjected += st.stats.MsgsInjected
		f.stats.MsgsDelivered += st.stats.MsgsDelivered
		f.stats.LTLBFaults += st.stats.LTLBFaults
		f.events += st.events
		f.hops += st.hops
		h.Write([]byte(st.digest))
	}
	f.digest = hex.EncodeToString(h.Sum(nil))
	return &f
}

// state is the fold of the first complete sweep, or of the points run so
// far when the budget ended before one completed.
func (l *forkLoop) state() simState {
	if l.fold != nil {
		return *l.fold
	}
	return *foldStates(l.refs)
}

func (l *forkLoop) finish(c *collect) error {
	err := snapProbe(l.staged, c)
	l.staged.M.Close()
	return err
}
