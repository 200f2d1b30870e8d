package cluster

// Checkpoint support (DESIGN.md, "Checkpoint/restore"). Each type has the
// subsystem's three state verbs: EncodeState streams the complete
// architectural state, DecodeXState builds a new object from the stream
// (all validation happens here, against the snap.Reader's sticky error),
// and Clone builds one from a live object without going through the
// stream (machine.Fork). Both results are complete parts the machine
// installs as they are; nothing is copied into an existing object.

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/snap"
)

// Decode bounds: snapshots carry at most these many entries per field, so
// corrupt counts fail cleanly instead of driving huge allocations.
const (
	maxRegs      = 1024
	maxProgWords = 1 << 22
	maxNameLen   = 1 << 10
	maxFaultLen  = 1 << 12
)

// EncodeState writes the register values and scoreboard bits (packed —
// see isa.EncodeWords).
func (rf *RegFile) EncodeState(w *snap.Writer) {
	isa.EncodeWords(w, rf.vals)
	w.Bools(rf.full)
}

// DecodeRegFileState reads a register file written by EncodeState.
func DecodeRegFileState(r *snap.Reader) *RegFile {
	rf := &RegFile{vals: isa.DecodeWords(r, maxRegs), full: r.Bools(maxRegs)}
	if r.Err() == nil && len(rf.full) != len(rf.vals) {
		r.Fail(fmt.Errorf("cluster: register file with %d values, %d scoreboard bits", len(rf.vals), len(rf.full)))
	}
	return rf
}

// Clone returns an independent register file with rf's state.
func (rf *RegFile) Clone() *RegFile {
	return &RegFile{vals: slices.Clone(rf.vals), full: slices.Clone(rf.full)}
}

// EncodeState writes the GCC replica's values and scoreboard bits.
func (g *GCCFile) EncodeState(w *snap.Writer) {
	isa.EncodeWords(w, g.vals)
	w.Bools(g.full)
}

// DecodeGCCFileState reads a GCC replica written by EncodeState.
func DecodeGCCFileState(r *snap.Reader) *GCCFile {
	g := &GCCFile{vals: isa.DecodeWords(r, maxRegs), full: r.Bools(maxRegs)}
	if r.Err() == nil && len(g.full) != len(g.vals) {
		r.Fail(fmt.Errorf("cluster: GCC replica with %d values, %d scoreboard bits", len(g.vals), len(g.full)))
	}
	return g
}

// Clone returns an independent GCC replica with g's state.
func (g *GCCFile) Clone() *GCCFile {
	return &GCCFile{vals: slices.Clone(g.vals), full: slices.Clone(g.full)}
}

// decodeProgramMemo decodes an embedded program, deduplicating by full
// content within one stream: the runtime installs identical handler
// programs on every node, so an n-node restore decodes each once.
// Programs are immutable after assembly, so sharing the decoded object is
// safe (and Save re-encodes contents, so re-saves stay byte-identical).
func decodeProgramMemo(r *snap.Reader, name string, words []uint64) *isa.Program {
	key := make([]byte, 0, len(name)+1+len(words)*8)
	key = append(key, name...)
	key = append(key, 0)
	for _, w := range words {
		key = append(key,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	memo := r.Memo()
	if p, ok := memo[string(key)].(*isa.Program); ok {
		return p
	}
	p, err := isa.DecodeProgram(name, words)
	if err != nil {
		r.Fail(err)
		return nil
	}
	memo[string(key)] = p
	return p
}

// encodeProgramMemo returns p's binary encoding, computed once per
// stream however many thread contexts run p (the runtime installs the
// same handler programs on every node).
func encodeProgramMemo(w *snap.Writer, p *isa.Program) []uint64 {
	memo := w.Memo()
	if words, ok := memo[p].([]uint64); ok {
		return words
	}
	words := isa.EncodeProgram(p)
	memo[p] = words
	return words
}

// EncodeState writes the thread's control state, program (in the isa
// binary encoding — label names are an assembler artifact and are not
// preserved), statistics, and register files.
func (h *HThread) EncodeState(w *snap.Writer) {
	w.U64(uint64(h.Status))
	w.Bool(h.Privileged)
	w.Int(h.PC)
	w.String(h.FaultMsg)
	w.U64(h.Issued)
	w.U64(h.OpsIssued)
	w.U64(h.StallCycles)
	if h.Prog != nil {
		w.Bool(true)
		w.String(h.Prog.Name)
		w.U64s(encodeProgramMemo(w, h.Prog))
	} else {
		w.Bool(false)
	}
	h.Ints.EncodeState(w)
	h.FPs.EncodeState(w)
}

// DecodeHThreadState reads a thread context written by EncodeState.
func DecodeHThreadState(r *snap.Reader) *HThread {
	h := &HThread{
		Status:      ThreadStatus(r.U64()),
		Privileged:  r.Bool(),
		PC:          r.Int(),
		FaultMsg:    r.String(maxFaultLen),
		Issued:      r.U64(),
		OpsIssued:   r.U64(),
		StallCycles: r.U64(),
	}
	if h.Status > ThreadFaulted {
		r.Fail(fmt.Errorf("cluster: bad thread status %d", h.Status))
	}
	if r.Bool() {
		name := r.String(maxNameLen)
		words := r.U64s(maxProgWords)
		if r.Err() == nil {
			h.Prog = decodeProgramMemo(r, name, words)
		}
	}
	h.Ints = DecodeRegFileState(r)
	h.FPs = DecodeRegFileState(r)
	if r.Err() == nil {
		if h.Ints.Len() != isa.NumIntRegs || h.FPs.Len() != isa.NumFPRegs {
			r.Fail(fmt.Errorf("cluster: bad register file sizes %d/%d", h.Ints.Len(), h.FPs.Len()))
		}
		if h.Prog != nil && (h.PC < 0 || h.PC > len(h.Prog.Insts)) {
			r.Fail(fmt.Errorf("cluster: PC %d outside program of %d instructions", h.PC, len(h.Prog.Insts)))
		}
	}
	return h
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

// EncodeState writes the cluster's round-robin rotation point, GCC
// replica, and all six thread contexts.
func (c *Cluster) EncodeState(w *snap.Writer) {
	w.Int(c.LastIssued)
	c.GCC.EncodeState(w)
	for _, th := range c.Threads {
		th.EncodeState(w)
	}
}

// DecodeClusterState reads a cluster written by EncodeState.
func DecodeClusterState(r *snap.Reader, id int) *Cluster {
	c := &Cluster{ID: id, LastIssued: r.Int()}
	c.GCC = DecodeGCCFileState(r)
	for i := range c.Threads {
		c.Threads[i] = DecodeHThreadState(r)
	}
	if r.Err() == nil {
		if c.LastIssued < -1 || c.LastIssued >= isa.NumVThreads {
			r.Fail(fmt.Errorf("cluster: bad rotation point %d", c.LastIssued))
		}
		if len(c.GCC.vals) != isa.NumGCCRegs {
			r.Fail(fmt.Errorf("cluster: bad GCC size %d", len(c.GCC.vals)))
		}
	}
	return c
}

// Clone returns an independent cluster with c's state.
func (c *Cluster) Clone() *Cluster {
	f := &Cluster{ID: c.ID, GCC: c.GCC.Clone(), LastIssued: c.LastIssued}
	for i, th := range c.Threads {
		f.Threads[i] = th.Clone()
	}
	return f
}
