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
	"math/bits"

	"repro/internal/isa"
	"repro/internal/snap"
)

// Decode bounds: snapshots carry at most these many entries per field, so
// corrupt counts fail cleanly instead of driving huge allocations.
const (
	maxBank      = 32 // registers per bank: its masks are uint32s
	maxProgWords = 1 << 22
	maxNameLen   = 1 << 10
	maxFaultLen  = 1 << 12
)

// registers walks a bank of n ≤ 32 registers, sparsely: the count n; one
// word holding the scoreboard mask (low half) and the mask of registers
// whose value is not zero (high half); the pointer-tag mask; then the
// Bits of each non-zero register, in index order. A zero register costs
// only its mask bits. A decoder fills *vals in place when it already
// holds n zero registers (a carved bank) and rejects a bank of more than 32
// registers, a mask bit at or above n, a pointer tag on a register the
// non-zero mask leaves out and a listed register that is zero, so what
// decodes re-encodes to the same bytes; what names the bank in an error.
func registers(c *snap.Codec, vals *[]isa.Word, full *uint32, what string) {
	n := c.Len(len(*vals), maxBank)
	var nz, ptr uint32
	if !c.Reading() {
		for i, w := range *vals {
			if w != (isa.Word{}) {
				nz |= 1 << i
			}
			if w.Ptr {
				ptr |= 1 << i
			}
		}
	}
	masks, tags := uint64(*full)|uint64(nz)<<32, uint64(ptr)
	c.U64(&masks)
	c.U64(&tags)
	if !c.Reading() {
		listed := c.Stage(bits.OnesCount32(nz))
		for k, m := 0, nz; m != 0; k, m = k+1, m&(m-1) {
			listed[k] = (*vals)[bits.TrailingZeros32(m)].Bits
		}
		c.RawU64s(listed)
		return
	}
	if c.Err() != nil {
		return
	}
	*full, nz = uint32(masks), uint32(masks>>32)
	switch lim := uint64(lowBits(n)); {
	case masks&^(lim|lim<<32) != 0 || tags&^lim != 0:
		c.Fail(fmt.Errorf("cluster: %s of %d registers with a mask bit past them", what, n))
		return
	case uint32(tags)&^nz != 0:
		c.Fail(fmt.Errorf("cluster: %s tags a zero register as a pointer", what))
		return
	}
	if len(*vals) != n {
		*vals = make([]isa.Word, n)
	}
	listed := c.Stage(bits.OnesCount32(nz))
	c.RawU64s(listed)
	if c.Err() != nil {
		return
	}
	for k, m := 0, nz; m != 0; k, m = k+1, m&(m-1) {
		i := bits.TrailingZeros32(m)
		w := &(*vals)[i]
		w.Bits, w.Ptr = listed[k], tags>>i&1 != 0
		if *w == (isa.Word{}) {
			c.Fail(fmt.Errorf("cluster: %s lists register %d, which is zero", what, i))
			return
		}
	}
}

// State walks the register values and scoreboard bits.
func (rf *RegFile) State(c *snap.Codec) { registers(c, &rf.vals, &rf.full, "register file") }

// State walks the GCC replica's values and scoreboard bits.
func (g *GCCFile) State(c *snap.Codec) { registers(c, &g.vals, &g.full, "GCC replica") }

// progTable is one stream's table of the programs its threads run. The
// runtime installs the same handler programs on every node, so the first
// thread that runs a program (by name and content, not by object) writes
// a new table entry — its index, name and isa words — and every later one
// writes the index alone. A decoder hands every thread that runs an
// entry the same decoded program: programs are immutable after assembly,
// so the sharing is safe, and Save writes contents, so re-saves stay
// byte-identical.
type progTable struct {
	at    map[*isa.Program]int `snap:"derived,per-stream memo"` // encoder: the entry of each program object seen
	index map[string]int       `snap:"derived,per-stream memo"` // the entry of each content (programKey)
	progs []*isa.Program       `snap:"derived,per-stream memo"` // decoder: the entries in stream order
}

// programKey is a program's identity in a stream: its name and words.
func programKey(name string, words []uint64) string {
	key := make([]byte, 0, len(name)+1+len(words)*8)
	key = append(key, name...)
	key = append(key, 0)
	for _, w := range words {
		key = binary.LittleEndian.AppendUint64(key, w)
	}
	return string(key)
}

// programState walks a thread's program as a reference into the stream's
// program table: one word, 0 for no program and i+1 for entry i; when i
// is the next entry, the program's name and isa words follow (label
// names are an assembler artifact and are not preserved). A decoder
// rejects an index past the next entry and a new entry whose content
// repeats an earlier one.
func programState(c *snap.Codec, p **isa.Program) {
	t := snap.Memo[progTable](c)
	if t.index == nil {
		t.at, t.index = map[*isa.Program]int{}, map[string]int{}
	}
	var ref uint64
	var name string
	var words []uint64
	fresh := false
	if !c.Reading() && *p != nil {
		i, ok := t.at[*p]
		if !ok {
			name, words = (*p).Name, (*p).Encoded()
			key := programKey(name, words)
			if i, ok = t.index[key]; !ok {
				i, fresh = len(t.index), true
				t.index[key] = i
			}
			t.at[*p] = i
		}
		ref = uint64(i) + 1
	}
	c.U64(&ref)
	if c.Reading() {
		*p = nil
		switch n := uint64(len(t.progs)); {
		case c.Err() != nil || ref == 0:
			return
		case ref-1 < n:
			*p = t.progs[ref-1]
			return
		case ref-1 > n:
			c.Fail(fmt.Errorf("cluster: program %d past a table of %d", ref-1, n))
			return
		}
		fresh = true
	}
	if !fresh {
		return
	}
	c.String(&name, maxNameLen)
	c.U64s(&words, maxProgWords)
	if c.Reading() && c.Err() == nil {
		key := programKey(name, words)
		if i, dup := t.index[key]; dup {
			c.Fail(fmt.Errorf("cluster: program table entry %d repeats entry %d", len(t.progs), i))
			return
		}
		prog, err := isa.DecodeProgram(name, words)
		if err != nil {
			c.Fail(err)
			return
		}
		prog.Prepare()
		t.index[key] = len(t.progs)
		t.progs = append(t.progs, prog)
		*p = prog
	}
}

// State walks the thread's control state, program, statistics, and
// register files. A decoder fills the files the thread already has (New
// and the cluster decoder carve them).
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

// State walks the cluster's round-robin rotation point, GCC replica, and
// all six thread contexts. A decoder fills a &Cluster{ID: id}, carving
// its contexts as New does, and rebuilds Live from the decoded statuses.
func (cl *Cluster) State(c *snap.Codec) {
	c.Int(&cl.LastIssued)
	if c.Reading() {
		cl.carve()
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

// Clone returns an independent cluster with c's state, carved as New
// carves one; the threads share their programs (immutable once
// assembled).
func (c *Cluster) Clone() *Cluster {
	f := &Cluster{ID: c.ID, LastIssued: c.LastIssued, Live: c.Live}
	f.carve()
	for i, th := range c.Threads {
		t := f.Threads[i]
		*t = HThread{
			Prog:        th.Prog,
			PC:          th.PC,
			Status:      th.Status,
			Privileged:  th.Privileged,
			FaultMsg:    th.FaultMsg,
			Ints:        t.Ints,
			FPs:         t.FPs,
			Issued:      th.Issued,
			OpsIssued:   th.OpsIssued,
			StallCycles: th.StallCycles,
		}
		copy(t.Ints.vals, th.Ints.vals)
		copy(t.FPs.vals, th.FPs.vals)
		t.Ints.full, t.FPs.full = th.Ints.full, th.FPs.full
	}
	copy(f.GCC.vals, c.GCC.vals)
	f.GCC.full = c.GCC.full
	return f
}
