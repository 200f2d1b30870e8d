package cluster

// Checkpoint support (DESIGN.md, "Checkpoint/restore"). Each type has one
// state walk, State, and a Clone. State streams the complete
// architectural state to an encoding codec; on a decoding codec it fills
// a new object instead, allocating the parts below it as it reads them
// and validating them against the codec's sticky error. Clone builds the
// same object from a live one without going through the stream
// (machine.Fork). Both results are complete parts the machine installs as
// they are; nothing is copied into an existing object.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/snap"
)

// Decode bounds: snapshots carry at most these many entries per field, so
// corrupt counts fail cleanly instead of driving huge allocations.
const (
	maxBank      = 32 // registers per bank: its scoreboard is one uint32
	maxProgWords = 1 << 22
	maxNameLen   = 1 << 10
	maxFaultLen  = 1 << 12
)

// registers walks a bank's values (packed — see isa.Words) and scoreboard
// mask. The mask travels as Codec.Bools packs a bank of n ≤ 32 bits: the
// count n, then one little-endian word when n > 0. A decoder rejects a
// bank of more than 32 registers and drops bits at n and above; what
// names the bank in a decoded size mismatch.
func registers(c *snap.Codec, vals *[]isa.Word, full *uint32, what string) {
	isa.Words(c, vals, maxBank)
	n := c.Len(len(*vals), maxBank)
	if n > 0 {
		w := uint64(*full)
		c.U64(&w)
		if c.Reading() {
			*full = uint32(w) & lowBits(n)
		}
	}
	if c.Reading() && c.Err() == nil && n != len(*vals) {
		c.Fail(fmt.Errorf("cluster: %s with %d values, %d scoreboard bits", what, len(*vals), n))
	}
}

// State walks the register values and scoreboard bits.
func (rf *RegFile) State(c *snap.Codec) { registers(c, &rf.vals, &rf.full, "register file") }

// Clone returns an independent register file with rf's state.
func (rf *RegFile) Clone() *RegFile {
	return &RegFile{vals: slices.Clone(rf.vals), full: rf.full}
}

// State walks the GCC replica's values and scoreboard bits.
func (g *GCCFile) State(c *snap.Codec) { registers(c, &g.vals, &g.full, "GCC replica") }

// Clone returns an independent GCC replica with g's state.
func (g *GCCFile) Clone() *GCCFile {
	return &GCCFile{vals: slices.Clone(g.vals), full: g.full}
}

// programState walks a thread's program in the isa binary encoding (label
// names are an assembler artifact and are not preserved). The runtime
// installs the same handler programs on every node, so both directions
// share work across one stream: an encoder computes each program's words
// once, a decoder decodes each distinct content once and hands every
// thread that runs it the same object. Programs are immutable after
// assembly, so the sharing is safe (and Save re-encodes contents, so
// re-saves stay byte-identical).
func programState(c *snap.Codec, p **isa.Program) {
	has := *p != nil
	c.Bool(&has)
	if !has {
		return
	}
	var name string
	var words []uint64
	if !c.Reading() {
		memo := snap.Memo[*isa.Program, []uint64](c)
		if memo[*p] == nil {
			memo[*p] = isa.EncodeProgram(*p)
		}
		name, words = (*p).Name, memo[*p]
	}
	c.String(&name, maxNameLen)
	c.U64s(&words, maxProgWords)
	if c.Reading() && c.Err() == nil {
		*p = decodedProgram(c, name, words)
	}
}

func decodedProgram(c *snap.Codec, name string, words []uint64) *isa.Program {
	key := make([]byte, 0, len(name)+1+len(words)*8)
	key = append(key, name...)
	key = append(key, 0)
	for _, w := range words {
		key = binary.LittleEndian.AppendUint64(key, w)
	}
	memo := snap.Memo[string, *isa.Program](c)
	if p, ok := memo[string(key)]; ok {
		return p
	}
	p, err := isa.DecodeProgram(name, words)
	if err != nil {
		c.Fail(err)
		return nil
	}
	p.Prepare()
	memo[string(key)] = p
	return p
}

// State walks the thread's control state, program, statistics, and
// register files.
func (h *HThread) State(c *snap.Codec) {
	snap.Integer(c, &h.Status)
	c.Bool(&h.Privileged)
	c.Int(&h.PC)
	c.String(&h.FaultMsg, maxFaultLen)
	c.U64(&h.Issued)
	c.U64(&h.OpsIssued)
	c.U64(&h.StallCycles)
	if c.Reading() && h.Status > ThreadFaulted {
		c.Fail(fmt.Errorf("cluster: bad thread status %d", h.Status))
	}
	programState(c, &h.Prog)
	if c.Reading() {
		h.Ints, h.FPs = new(RegFile), new(RegFile)
	}
	h.Ints.State(c)
	h.FPs.State(c)
	if c.Reading() && c.Err() == nil {
		if h.Ints.Len() != isa.NumIntRegs || h.FPs.Len() != isa.NumFPRegs {
			c.Fail(fmt.Errorf("cluster: bad register file sizes %d/%d", h.Ints.Len(), h.FPs.Len()))
		}
		if h.Prog != nil && (h.PC < 0 || h.PC > len(h.Prog.Insts)) {
			c.Fail(fmt.Errorf("cluster: PC %d outside program of %d instructions", h.PC, len(h.Prog.Insts)))
		}
	}
}

// Clone returns an independent thread context with h's state, sharing
// the program (immutable once assembled).
func (h *HThread) Clone() *HThread {
	return &HThread{
		Prog:        h.Prog,
		PC:          h.PC,
		Status:      h.Status,
		Privileged:  h.Privileged,
		FaultMsg:    h.FaultMsg,
		Ints:        h.Ints.Clone(),
		FPs:         h.FPs.Clone(),
		Issued:      h.Issued,
		OpsIssued:   h.OpsIssued,
		StallCycles: h.StallCycles,
	}
}

// State walks the cluster's round-robin rotation point, GCC replica, and
// all six thread contexts. A decoder fills a &Cluster{ID: id} and
// rebuilds Live from the decoded statuses.
func (cl *Cluster) State(c *snap.Codec) {
	c.Int(&cl.LastIssued)
	if c.Reading() {
		cl.GCC = new(GCCFile)
		for i := range cl.Threads {
			cl.Threads[i] = new(HThread)
		}
	}
	cl.GCC.State(c)
	for _, th := range cl.Threads {
		th.State(c)
	}
	if c.Reading() && c.Err() == nil {
		if cl.LastIssued < -1 || cl.LastIssued >= isa.NumVThreads {
			c.Fail(fmt.Errorf("cluster: bad rotation point %d", cl.LastIssued))
		}
		if len(cl.GCC.vals) != isa.NumGCCRegs {
			c.Fail(fmt.Errorf("cluster: bad GCC size %d", len(cl.GCC.vals)))
		}
		for vt, th := range cl.Threads {
			if th.Status == ThreadRunning {
				cl.Live |= 1 << vt
			}
		}
	}
}

// Clone returns an independent cluster with c's state.
func (c *Cluster) Clone() *Cluster {
	f := &Cluster{ID: c.ID, GCC: c.GCC.Clone(), LastIssued: c.LastIssued, Live: c.Live}
	for i, th := range c.Threads {
		f.Threads[i] = th.Clone()
	}
	return f
}
