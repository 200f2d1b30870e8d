package cluster

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/snap"
	"repro/internal/snap/snaptest"
)

// flipWord toggles the low bit of vals[i], returning the undo.
func flipWord(vals []isa.Word, i int) func() {
	vals[i].Bits ^= 1
	return func() { vals[i].Bits ^= 1 }
}

// TestRegisterFilesFieldRoundTrip mutates every serializable field of a
// register file and a GCC replica and asserts the state walk both sees
// the change and round-trips it.
func TestRegisterFilesFieldRoundTrip(t *testing.T) {
	rf := New(0).Threads[0].Ints
	rf.MarkEmpty(3)
	snaptest.Fields(t, rf, snaptest.Codec[RegFile]{
		State:  (*RegFile).State,
		New:    func() *RegFile { return new(RegFile) },
		Mutate: map[string]func(*RegFile) func(){"vals": func(rf *RegFile) func() { return flipWord(rf.vals, 5) }},
	})
	g := New(0).GCC
	g.Set(2, isa.W(7))
	snaptest.Fields(t, g, snaptest.Codec[GCCFile]{
		State:  (*GCCFile).State,
		New:    func() *GCCFile { return new(GCCFile) },
		Mutate: map[string]func(*GCCFile) func(){"vals": func(g *GCCFile) func() { return flipWord(g.vals, 2) }},
	})
}

// bankStream is a register bank's stream: the count n, the scoreboard
// and non-zero masks in one word, the pointer-tag mask, then the listed
// registers' bits.
func bankStream(t *testing.T, n int, full, nz, ptr uint32, listed ...uint64) []byte {
	return snaptest.Encode(t, func(c *snap.Codec) {
		c.Len(n, n)
		masks, tags := uint64(full)|uint64(nz)<<32, uint64(ptr)
		c.U64(&masks)
		c.U64(&tags)
		c.RawU64s(listed)
	})
}

// TestRegisterBankDecodeBounds: a bank lists only its non-zero registers,
// and a decoder refuses every stream Save would not write — more
// registers than a mask holds, a mask bit at or above the count, a
// pointer tag on an unlisted register, a listed register that is zero —
// with an error, not a panic or a silently dropped bit. A valid sparse
// bank decodes to the registers it names and re-encodes byte for byte.
func TestRegisterBankDecodeBounds(t *testing.T) {
	n := isa.NumIntRegs
	for _, tc := range []struct {
		name   string
		stream []byte
		want   string
	}{
		{"33 registers", bankStream(t, 33, 1, 0, 0), "exceeds bound"},
		{"a scoreboard bit at the count", bankStream(t, n, 1<<n|1, 0, 0), "mask bit past"},
		{"a non-zero bit at the count", bankStream(t, n, 1, 1<<n, 0, 7), "mask bit past"},
		{"a pointer tag at the count", bankStream(t, n, 1, 0, 1<<n), "mask bit past"},
		{"a pointer tag on a zero register", bankStream(t, n, 1, 1<<2, 1<<3, 7), "tags a zero register"},
		{"a listed zero register", bankStream(t, n, 1, 1<<2|1<<5, 0, 7, 0), "lists register 5"},
	} {
		d := snap.NewDecoder(tc.stream)
		new(RegFile).State(d)
		if err := d.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decode error %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	good := bankStream(t, n, 0b101, 1<<1|1<<9, 1<<9, 42, 0)
	rf := New(0).Threads[0].Ints
	d := snap.NewDecoder(good)
	rf.State(d)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := isa.Word{}
		switch i {
		case 1:
			want = isa.W(42)
		case 9:
			want = isa.Word{Ptr: true}
		}
		if rf.Full(i) != (i == 0 || i == 2) || rf.Get(i) != want {
			t.Errorf("register %d: full %v, %+v; want full only at 0 and 2, %+v", i, rf.Full(i), rf.Get(i), want)
		}
	}
	if got := snaptest.Encode(t, rf.State); !bytes.Equal(got, good) {
		t.Error("the decoded bank re-encodes differently")
	}
	if zero := New(0).Threads[0].Ints; len(snaptest.Encode(t, zero.State)) != 3*8 {
		t.Error("a bank of zero registers costs more than its count and two mask words")
	}
}

// TestThreadAndClusterFieldRoundTrip does the same for a thread context
// with a program loaded and for a whole cluster.
func TestThreadAndClusterFieldRoundTrip(t *testing.T) {
	prog := &isa.Program{Name: "p", Insts: []isa.Inst{{Line: 1}, {Line: 2}, {Line: 3}}}
	other := &isa.Program{Name: "q", Insts: []isa.Inst{{Line: 4}, {Line: 5}}}
	h := New(0).Threads[0]
	h.Load(prog, true)
	h.PC, h.FaultMsg, h.Issued, h.OpsIssued, h.StallCycles = 1, "none", 4, 9, 2
	snaptest.Fields(t, h, snaptest.Codec[HThread]{
		State: (*HThread).State,
		New:   func() *HThread { return New(0).Threads[0] },
		Mutate: map[string]func(*HThread) func(){
			"Prog": func(h *HThread) func() {
				h.Prog = other
				return func() { h.Prog = prog }
			},
			"Ints": func(h *HThread) func() { return flipWord(h.Ints.vals, 9) },
			"FPs":  func(h *HThread) func() { return flipWord(h.FPs.vals, 1) },
		},
	})

	cl := New(2)
	cl.LastIssued = 2
	cl.Threads[4].Load(prog, false)
	snaptest.Fields(t, cl, snaptest.Codec[Cluster]{
		State: (*Cluster).State,
		New:   func() *Cluster { return &Cluster{ID: 2} },
		Mutate: map[string]func(*Cluster) func(){
			"Threads": func(cl *Cluster) func() {
				cl.Threads[4].PC ^= 1
				return func() { cl.Threads[4].PC ^= 1 }
			},
			"GCC": func(cl *Cluster) func() { return flipWord(cl.GCC.vals, 0) },
		},
	})
}

// TestLiveIsDerived: the live-slot mask is not in the stream — encoding
// is byte-identical whatever Live holds — yet a decoded cluster has it
// rebuilt from its thread statuses, and Clone copies it, for a cluster
// holding a running, a halted and a faulted thread. The parking state is
// not in the stream either, and neither decode nor Clone carries it.
func TestLiveIsDerived(t *testing.T) {
	prog := &isa.Program{Name: "p", Insts: []isa.Inst{{Line: 1}, {Line: 2}}}
	cl := New(1)
	for _, vt := range []int{0, 2, 5} {
		cl.Threads[vt].Load(prog, vt == 5)
	}
	cl.Threads[2].Status = ThreadHalted
	cl.Threads[5].Fault("protection")
	cl.Live = 1 << 0
	base := snaptest.Encode(t, cl.State)

	cl.Live = 0b111111
	cl.Parked, cl.Wait[0] = 1<<0, isa.Int(3)
	if got := snaptest.Encode(t, cl.State); !bytes.Equal(got, base) {
		t.Error("Live or Parked changed the encoded stream; they must stay derived")
	}
	dec := &Cluster{ID: 1}
	d := snap.NewDecoder(base)
	dec.State(d)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if dec.Live != 1<<0 {
		t.Errorf("decoded Live = %06b, want %06b (slot 0 running, 2 halted, 5 faulted)", dec.Live, 1<<0)
	}
	if dec.Parked != 0 || dec.Wait != [isa.NumVThreads]isa.Reg{} {
		t.Errorf("decoded Parked = %06b, Wait = %v; want nothing parked until the first Step", dec.Parked, dec.Wait)
	}
	if got := snaptest.Encode(t, dec.State); !bytes.Equal(got, base) {
		t.Error("decoded cluster re-encodes differently")
	}
	if f := cl.Clone(); f.Live != cl.Live || f.Parked != 0 || f.Wait != [isa.NumVThreads]isa.Reg{} {
		t.Errorf("Clone Live = %06b, Parked = %06b, Wait = %v; want Live %06b and nothing parked", f.Live, f.Parked, f.Wait, cl.Live)
	}
}
