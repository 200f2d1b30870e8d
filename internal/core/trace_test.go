package core

// Byte-identity pins for the typed trace record: the sha256 of the rendered
// timeline of runs that between them emit every record kind, captured at
// the last commit whose chips formatted each event with fmt.Sprintf. The
// lazy formatter in internal/trace must reproduce those bytes.

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/gp"
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
	cfg := DefaultChipConfig()
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

// TestTraceAllocatesNothing: recording is free of heap allocation. A
// load/store kernel steps 500-cycle slices with 0 allocations, with no sink
// and with a Recorder whose capacity was reserved up front. A SEND
// allocates its noc.Message, body and acknowledgement whether or not
// anything records, so on the SEND kernel the pin is that a reserved
// Recorder adds nothing to the sink-less count.
func TestTraceAllocatesNothing(t *testing.T) {
	slice := func(send, sink bool) (allocs float64, events int) {
		s := allocKernel(t, send)
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
		step() // chip buffers, queues and the handlers' pages reach steady state
		step()
		allocs = testing.AllocsPerRun(5, step)
		if sink {
			events = len(rec.Events)
		}
		return allocs, events
	}
	for _, sink := range []bool{false, true} {
		if allocs, events := slice(false, sink); allocs != 0 || sink != (events > 1000) {
			t.Errorf("load/store kernel, sink=%v: %v allocations per 500-cycle slice (%d events), want 0", sink, allocs, events)
		}
	}
	bare, _ := slice(true, false)
	recorded, events := slice(true, true)
	if recorded != bare || events < 1000 {
		t.Errorf("SEND kernel: %v allocations per slice with a reserved Recorder (%d events), %v without a sink", recorded, events, bare)
	}
}
