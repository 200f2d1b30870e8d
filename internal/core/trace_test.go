package core

// Byte-identity pins for the typed trace record: the sha256 of the rendered
// timeline of runs that between them emit every record kind, captured at
// the last commit whose chips formatted each event with fmt.Sprintf. The
// lazy formatter in internal/trace must reproduce those bytes.

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/gp"
	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/trace"
)

func pinFigure9(t *testing.T, isWrite bool) *Sim {
	s, err := NewSim(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.HomeBase(1) + 16
	if err := stageAccess(s, RemoteCacheHit, addr); err != nil {
		t.Fatal(err)
	}
	s.Recorder.Reset()
	if isWrite {
		_, err = timeWrite(s, RemoteCacheHit, addr)
	} else {
		_, err = timeRead(s, addr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func pinThrottle(t *testing.T) *Sim {
	cfg := chip.DefaultConfig()
	cfg.SendCredits = 2
	cfg.MsgQueueCap = 9
	s, err := NewSim(Options{Nodes: 3, Chip: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	base := s.HomeBase(2)
	for sender := 0; sender < 2; sender++ {
		if err := s.LoadASM(sender, 0, 0, fmt.Sprintf(`
    movi i1, #%d
    movi i3, #%d
    movi i5, #0
    movi i6, #24
loop:
    add i8, i1, i5
    add i9, i1, i5
    send i9, i3, i8, #1
    add i5, i5, #2
    lt  i7, i5, i6
    brt i7, loop
    halt
`, base+uint64(sender), s.RT.DIPRemoteWrite)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Run(2000000); err != nil {
		t.Fatal(err)
	}
	return s
}

func pinCaching(t *testing.T) *Sim {
	s, err := NewSim(Options{Nodes: 2, Caching: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LoadASM(0, 0, 0, fmt.Sprintf(`
    movi i1, #%d
    movi i2, #12345
    st [i1], i2
    ld i3, [i1]
    add i4, i3, #1
    ld i5, [i1+1]
    add i6, i5, #1
    halt
`, s.HomeBase(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(200000); err != nil {
		t.Fatal(err)
	}
	return s
}

// pinFaults raises one protection fault of each free-text shape: a plain
// literal, a formatted integer, and a wrapped gp error with five arguments.
func pinFaults(t *testing.T) *Sim {
	s, err := NewSim(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.MapLocal(0, 0, 2, true)
	user := func(cl int, src string) {
		if err := s.LoadUserASM(0, 0, cl, src); err != nil {
			t.Fatal(err)
		}
	}
	user(0, "movi i1, #5\nld i2, [i1]\nhalt")
	user(1, "ld i6, [i5]\nld i8, [i5+8]\nhalt")
	if err := s.GrantPointer(0, 0, 1, 5, gp.PermRead|gp.PermWrite, 3, 64); err != nil {
		t.Fatal(err)
	}
	user(2, "movi i3, #77\nsend i5, i3, i8, #1\nhalt")
	if err := s.GrantPointer(0, 0, 2, 5, gp.PermRead|gp.PermWrite, 3, s.HomeBase(1)); err != nil {
		t.Fatal(err)
	}
	user(3, "tlbinv i1\nhalt")
	if _, err := s.Run(10000); err == nil {
		t.Fatal("expected a fault error")
	}
	return s
}

func TestTimelineBytesPinned(t *testing.T) {
	runs := []struct {
		name, sha string
		sim       *Sim
	}{
		{"figure9-read", "26ed3507ce1d6c16deec7f6f00031c2adcd4d035cd3b6799de7a50cfff979363", pinFigure9(t, false)},
		{"figure9-write", "0c67100a0703bf4e1843a3ebaf8dc0da975b48a75dcb4b0649e8ddb851d4d89d", pinFigure9(t, true)},
		{"throttle", "26a728f485c95ca5af0955211b2fe65bab7f79c8b6cd4fcf98090b296db27a65", pinThrottle(t)},
		{"caching", "fb848c18bb84e7a8b1c3309e2d06842ce5fb09c4144fb23f3200bad31713f167", pinCaching(t)},
		{"faults", "282055e50e924d748048f012c14eb0cf0271fe0ffbb5bf8a2ae3b55fd70b2891", pinFaults(t)},
	}
	seen := map[trace.Kind]bool{}
	for _, r := range runs {
		rec := r.sim.Recorder
		for _, e := range rec.Events {
			seen[e.Kind] = true
		}
		tl := rec.Timeline(rec.Events)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(tl))); got != r.sha {
			t.Errorf("%s: timeline sha256 %s, want %s:\n%.1500s", r.name, got, r.sha, tl)
		}
	}
	for k := trace.MemIssue; k <= trace.ProtFault; k++ {
		if !seen[k] {
			t.Errorf("no pinned run emits kind %d (%s)", k, trace.Event{Kind: k}.Name())
		}
	}
}

// TestFirstCompleteMatchesWholeAddress: Figure 9 used to find "execute
// load/store" by searching the detail text for "addr=0x41", which also
// matches an access to 0x410. The typed record compares the address
// argument, so a prefix-related earlier access is not mistaken for it.
func TestFirstCompleteMatchesWholeAddress(t *testing.T) {
	s, err := NewSim(Options{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.MapLocal(0, 0x410/512, 2, true)
	s.MapLocal(0, 0x41/512, 2, true)
	if err := s.LoadASM(0, 0, 0, `
    movi i1, #0x410
    movi i2, #0x41
    st [i1], i1
    ld i3, [i1]
    add i4, i3, #0       ; the first store has completed
    st [i2], i2
    halt
`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(10000); err != nil {
		t.Fatal(err)
	}
	long, ok := firstComplete(s.Recorder, 0, 0, 0x410, true)
	short, ok2 := firstComplete(s.Recorder, 0, 0, 0x41, false)
	if !ok || !ok2 {
		t.Fatalf("completions not found:\n%s", s.Recorder.Timeline(s.Recorder.Events))
	}
	if short.Arg != 0x41 || short.Cycle <= long.Cycle {
		t.Errorf("access to 0x41 resolved to %s %s at cycle %d; the 0x410 store completed at %d",
			short.Name(), s.Recorder.Detail(short), short.Cycle, long.Cycle)
	}
}

// allocKernel loads an endless store/load loop on node 0, with a remote
// store SEND to node 1 per iteration when send is set (node 1's handler
// then adds msg-recv and mem-complete records of its own).
func allocKernel(t *testing.T, send bool) *Sim {
	s, err := NewSim(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	sendOp := ""
	if send {
		sendOp = "send i12, i3, i8, #1"
	}
	if err := s.LoadASM(0, 0, 0, fmt.Sprintf(`
    movi i1, #64
    movi i3, #%d
    movi i12, #%d
loop:
    st [i1], i5
    ld i4, [i1]
    add i8, i4, #1
    %s
    add i5, i5, #1
    br loop
`, s.RT.DIPRemoteWrite, s.HomeBase(1)+8, sendOp)); err != nil {
		t.Fatal(err)
	}
	return s
}

// ltlbKernel loads an endless loop on nodes 0 and 1 that loads one word
// from each of the 8 pages of the node's home range against a 4-entry
// LTLB and a 16-line cache (the words share a line, so every load misses
// the virtually addressed cache and consults the LTLB): after the first
// lap every load misses the LTLB, and the miss handler's insert evicts
// the oldest entry.
func ltlbKernel(t *testing.T) *Sim {
	cfg := chip.DefaultConfig()
	cfg.Mem.LTLBEntries = 4
	cfg.Mem.Cache.Lines = 16
	s, err := NewSim(Options{Nodes: 2, Chip: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		var b strings.Builder
		for p := 1; p <= 8; p++ {
			fmt.Fprintf(&b, "    movi i%d, #%d\n", p, s.HomeBase(n)+uint64(p-1)*512+8)
		}
		b.WriteString("loop:\n")
		for p := 1; p <= 8; p++ {
			fmt.Fprintf(&b, "    ld i9, [i%d]\n", p)
		}
		b.WriteString("    br loop\n")
		if err := s.LoadASM(n, 0, 0, b.String()); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// refuseKernel runs an endless SEND loop on nodes 0 and 1, each at the
// other, with neither node's priority-0 message handler running: once the
// queues fill, every message is refused, held and resent. Each refusal
// moves one message from the refusing node to the sender (the
// acknowledgement that carries the request back), so the two directions
// keep each other's free lists stocked.
func refuseKernel(t *testing.T) *Sim {
	s, err := NewSim(Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		if err := s.LoadASM(n, isa.EventSlot, chip.MsgPri0Cluster, "    halt\n"); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadASM(n, 0, 0, fmt.Sprintf(`
    movi i1, #%d
    movi i3, #%d
loop:
    add i8, i8, #1
    send i1, i3, i8, #1
    br loop
`, s.HomeBase(1-n)+8, s.RT.DIPRemoteWrite)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestTraceAllocatesNothing: stepping allocates nothing once buffers reach
// steady state, with no trace sink and with a Recorder whose capacity was
// reserved up front. Four kernels step 500-cycle slices: a load/store
// loop, the same loop with a remote-store SEND per iteration (each request
// comes back to its sender as its own acknowledgement), a
// return-to-sender loop whose messages are refused and resent, and an
// LTLB-thrashing load loop. A kernel's counter, when it has one, must
// advance while measuring.
func TestTraceAllocatesNothing(t *testing.T) {
	returned := func(s *Sim) (n uint64) {
		for _, c := range s.M.Chips {
			n += c.MsgsReturned
		}
		return n
	}
	ltlbFaults := func(s *Sim) uint64 { return s.Stats().LTLBFaults }
	for _, k := range []struct {
		name    string
		boot    func(t *testing.T) *Sim
		counter func(s *Sim) uint64
	}{
		{"load/store", func(t *testing.T) *Sim { return allocKernel(t, false) }, nil},
		{"send", func(t *testing.T) *Sim { return allocKernel(t, true) }, nil},
		{"return-to-sender", refuseKernel, returned},
		{"ltlb-thrash", ltlbKernel, ltlbFaults},
	} {
		for _, sink := range []bool{false, true} {
			s := k.boot(t)
			var rec *trace.Recorder
			if sink {
				rec = &trace.Recorder{Events: make([]trace.Event, 0, 1<<16)}
			}
			s.M.SetTrace(rec)
			step := func() {
				for i := 0; i < 500; i++ {
					s.M.Step()
				}
			}
			step() // chip buffers, queues, free lists and the handlers' pages reach steady state
			step()
			var before uint64
			if k.counter != nil {
				before = k.counter(s)
			}
			allocs := testing.AllocsPerRun(5, step)
			events := 0
			if sink {
				events = len(rec.Events)
			}
			if allocs != 0 || sink != (events > 1000) {
				t.Errorf("%s kernel, sink=%v: %v allocations per 500-cycle slice (%d events), want 0", k.name, sink, allocs, events)
			}
			if k.counter != nil && k.counter(s) == before {
				t.Errorf("%s kernel, sink=%v: its counter did not move while measuring", k.name, sink)
			}
		}
	}
}

// TestIssueScanAllocatesNothing: the issue scan walks an instruction's
// operation slots without building a slice, and parking a slot on its
// empty operand allocates nothing. Every cluster of every node of the
// 4x4x2 mesh runs a kernel, and 1000-cycle slices of Steps allocate
// nothing: a two-operation ALU loop (its FP result stalls the next
// iteration), and a load-use chain on local memory whose adds park on the
// loaded register every iteration (no trace sink, so the record log does
// not grow).
func TestIssueScanAllocatesNothing(t *testing.T) {
	for _, k := range []struct {
		name string
		src  func(s *Sim, n, cl int) string
		sink bool
	}{
		{"alu", func(*Sim, int, int) string {
			return "    movi i1, #0\nloop:\n    add i1, i1, #1 | fadd f1, f1, f2\n    br loop\n"
		}, true},
		{"load-use", func(s *Sim, n, cl int) string {
			return fmt.Sprintf("    movi i1, #%d\nloop:\n    ld i2, [i1]\n    add i3, i3, i2\n    br loop\n",
				s.HomeBase(n)+64+8*uint64(cl))
		}, false},
	} {
		t.Run(k.name, func(t *testing.T) {
			s, err := NewSim(Options{Dims: noc.Coord{X: 4, Y: 4, Z: 2}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.M.Close()
			if !k.sink {
				s.M.SetTrace(nil)
			}
			for n := 0; n < s.M.NumNodes(); n++ {
				for cl := 0; cl < isa.NumClusters; cl++ {
					if err := s.LoadASM(n, 0, cl, k.src(s, n, cl)); err != nil {
						t.Fatal(err)
					}
				}
			}
			step := func() {
				for i := 0; i < 1000; i++ {
					s.M.Step()
				}
			}
			step() // scan and trace buffers, and the kernels' pages, reach steady state
			th := s.M.Chip(0).Thread(0, 0)
			issued, stalls := th.Issued, th.StallCycles
			if allocs := testing.AllocsPerRun(3, step); allocs != 0 {
				t.Errorf("%v allocations per 1000-cycle slice, want 0", allocs)
			}
			if th.Issued == issued || th.StallCycles == stalls {
				t.Errorf("the kernel issued %d and stalled %d times, want both", th.Issued-issued, th.StallCycles-stalls)
			}
		})
	}
}
