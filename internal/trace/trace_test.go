package trace

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/events"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/snap"
)

// kindTable holds one hand-built record of each kind beside the name and
// the literal detail string the chip's former Sprintf call sites produced.
var kindTable = []struct {
	e            Event
	name, detail string
}{
	{Event{Kind: MemIssue, Sub: uint8(mem.ReqRead), Arg: 0x410}, "mem-issue", "read addr=0x410"},
	{Event{Kind: MemIssue, Sub: uint8(mem.ReqWritePhys), Arg: 0}, "mem-issue", "stp addr=0x0"},
	{Event{Kind: MemComplete, Sub: uint8(mem.ReqWrite), Arg: 0x4100}, "mem-complete", "write addr=0x4100"},
	{Event{Kind: MemComplete, Sub: uint8(mem.ReqReadPhys), Arg: 1 << 63}, "mem-complete", "ldp addr=0x8000000000000000"},
	{Event{Kind: RetryComplete, Arg: 0x1007}, "retry-complete", "addr=0x1007"},
	{Event{Kind: MRetry, Arg: 0x2a}, "mretry", "addr=0x2a"},
	{Event{Kind: TLBW, Arg: 12}, "tlbw", "vpn=12"},
	{Event{Kind: RSTW, Arg: isa.RegDesc(2, 1, isa.Int(7))}, "rstw", "vt=2 cl=1 i7"},
	{Event{Kind: RSTW, Arg: isa.RegDesc(0, 3, isa.FP(15))}, "rstw", "vt=0 cl=3 f15"},
	{Fault(events.LTLBMiss, mem.ReqRead, 0x1010), "event", "event{ltlb-miss read addr=0x1010}"},
	{Fault(events.BlockStatus, mem.ReqWrite, 0x1008), "event", "event{block-status write addr=0x1008}"},
	{Fault(events.SyncFault, mem.ReqRead, 0x20), "event", "event{sync-fault read addr=0x20}"},
	{Event{Kind: SendPri0, Arg: 2, Sub: 1}.WithPeer(noc.Coord{X: 2, Y: 0, Z: 0}), "send", "pri0 to (2,0,0) dip=2 len=1"},
	{Event{Kind: SendPri1, Arg: 18446744073709551615, Sub: 3, Peer: 127}, "send", "pri1 to node 127 dip=18446744073709551615 len=3"},
	{Event{Kind: MsgRecv, Arg: 5, Sub: 1}.WithPeer(noc.Coord{X: 1, Y: 2, Z: 3}), "msg-recv", "pri1 dip=5 from (1,2,3)"},
	{Event{Kind: MsgReject, Arg: 2, Sub: 0}.WithPeer(noc.Coord{}), "msg-reject", "pri0 dip=2 from (0,0,0)"},
	{Event{Kind: Resend, Arg: 2}.WithPeer(noc.Coord{X: MaxCoord, Y: 7, Z: 1}), "resend", "dip=2 to (32767,7,1)"},
	{Event{Kind: ProtFault, Arg: 0}, "prot-fault", "send with illegal DIP 77"},
}

// tableRecorder holds kindTable's records, stamped with distinct cycles
// and nodes, and the one free-text detail.
func tableRecorder() *Recorder {
	r := &Recorder{}
	for i, row := range kindTable {
		e := row.e
		e.Cycle, e.Node = int64(100+i), int32(i%3)
		if e.Kind == ProtFault {
			e.Arg = r.AddText(row.detail)
		}
		r.Events = append(r.Events, e)
	}
	return r
}

func TestRecordIsSmallAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 32 {
		t.Errorf("Event is %d bytes, want <= 32", size)
	}
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		switch k := typ.Field(i).Type.Kind(); k {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("field %s has kind %v: the hot record must hold only fixed-width integers", typ.Field(i).Name, k)
		}
	}
}

func TestEveryKindFormatsAsBefore(t *testing.T) {
	r := tableRecorder()
	seen := map[Kind]bool{}
	for i, row := range kindTable {
		e := r.Events[i]
		seen[e.Kind] = true
		if e.Name() != row.name || r.Detail(e) != row.detail {
			t.Errorf("kind %d: %q %q, want %q %q", e.Kind, e.Name(), r.Detail(e), row.name, row.detail)
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if !seen[k] {
			t.Errorf("kind %d (%s) has no row in kindTable", k, kindNames[k])
		}
	}
}

func TestDrainMovesRecordsAndRehomesText(t *testing.T) {
	sink := &Recorder{}
	for round := 0; round < 3; round++ {
		src := tableRecorder()
		sink.Drain(src)
		if len(src.Events) != 0 || len(src.Text) != 0 {
			t.Fatalf("round %d: Drain left %d events, %d strings behind", round, len(src.Events), len(src.Text))
		}
	}
	if len(sink.Events) != 3*len(kindTable) || len(sink.Text) != 3 {
		t.Fatalf("sink holds %d events, %d strings", len(sink.Events), len(sink.Text))
	}
	for i, e := range sink.Events {
		if want := kindTable[i%len(kindTable)].detail; sink.Detail(e) != want {
			t.Errorf("event %d: detail %q, want %q", i, sink.Detail(e), want)
		}
	}
	sink.Reset()
	if len(sink.Events) != 0 || len(sink.Text) != 0 {
		t.Error("Reset did not clear")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := tableRecorder()
	var buf bytes.Buffer
	w := snap.NewEncoder(&buf)
	r.State(w, 0, 0)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := 8 + 32*len(r.Events) + 8 + 8 + len(r.Text[0]); buf.Len() != want {
		t.Errorf("encoded %d bytes, want %d (four words per record)", buf.Len(), want)
	}
	encoded := buf.Bytes()

	got := &Recorder{Events: []Event{{Kind: TLBW}}, Text: []string{"stale"}}
	rd := snap.NewDecoder(encoded)
	got.State(rd, 1<<10, 1<<10)
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Events, r.Events) || !slices.Equal(got.Text, r.Text) {
		t.Errorf("round trip changed the records:\n%+v\nvs\n%+v", got, r)
	}

	// Length caps and structural checks fail the reader instead of
	// producing records a formatter would choke on.
	for name, mutate := range map[string]func(p []byte){
		"unknown kind": func(p []byte) { p[8+3*8+6] = byte(numKinds) },
		"text index":   func(p []byte) { p[8+32*(len(r.Events)-1)+8] = 9 },
	} {
		p := slices.Clone(encoded)
		mutate(p)
		rd := snap.NewDecoder(p)
		(&Recorder{}).State(rd, 1<<10, 1<<10)
		if rd.Err() == nil {
			t.Errorf("%s: corrupt stream decoded cleanly", name)
		}
	}
	for name, caps := range map[string][2]int{"event cap": {3, 1 << 10}, "text cap": {1 << 10, 4}} {
		rd := snap.NewDecoder(encoded)
		(&Recorder{}).State(rd, caps[0], caps[1])
		if rd.Err() == nil {
			t.Errorf("%s: over-long stream decoded cleanly", name)
		}
	}
}

func TestFilter(t *testing.T) {
	r := &Recorder{Events: []Event{
		{Cycle: 1, Kind: SendPri0},
		{Cycle: 2, Kind: FaultEvent},
		{Cycle: 3, Node: 1, Kind: SendPri1},
		{Cycle: 4, Node: 1, Kind: RSTW},
	}}
	got := r.Filter(0, "send")
	if len(got) != 2 || got[0].Cycle != 1 || got[1].Cycle != 3 {
		t.Errorf("Filter(send) = %+v", got)
	}
	got = r.Filter(3)
	if len(got) != 2 {
		t.Errorf("Filter(from=3) = %+v", got)
	}
	got = r.Filter(0, "send", "rstw")
	if len(got) != 3 {
		t.Errorf("Filter(send,rstw) = %+v", got)
	}
}

func TestFirstAndFirstMatch(t *testing.T) {
	r := &Recorder{Events: []Event{
		{Cycle: 5, Kind: SendPri0, Arg: 1},
		{Cycle: 9, Node: 1, Kind: SendPri1, Arg: 2},
	}}
	e, ok := r.First(0, "send")
	if !ok || e.Cycle != 5 {
		t.Errorf("First = %+v, %v", e, ok)
	}
	e, ok = r.First(6, "send")
	if !ok || e.Cycle != 9 {
		t.Errorf("First(from 6) = %+v, %v", e, ok)
	}
	if _, ok := r.First(10, "send"); ok {
		t.Error("First past all events should fail")
	}
	e, ok = r.FirstMatch(0, func(e Event) bool { return e.Node == 1 })
	if !ok || e.Arg != 2 {
		t.Errorf("FirstMatch = %+v, %v", e, ok)
	}
	if _, ok := r.FirstMatch(0, func(Event) bool { return false }); ok {
		t.Error("FirstMatch with false pred should fail")
	}
}

func TestTimelineNormalizesAndFiltersNodes(t *testing.T) {
	r := &Recorder{}
	events := []Event{
		{Cycle: 100, Node: 0, Kind: SendPri1, Arg: 4, Sub: 2, Peer: 1},
		{Cycle: 105, Node: 1, Kind: MsgRecv, Arg: 4, Sub: 1},
		{Cycle: 110, Node: 2, Kind: TLBW, Arg: 3},
	}
	out := r.Timeline(events, 0, 1)
	want := "   cycle  event\n" +
		"       0  NODE 0: send           pri1 to node 1 dip=4 len=2\n" +
		"       5  NODE 1: msg-recv       pri1 dip=4 from (0,0,0)\n"
	if out != want {
		t.Errorf("timeline:\n%s\nwant:\n%s", out, want)
	}
	if r.Timeline(nil) != "(no events)\n" {
		t.Error("empty timeline wrong")
	}
	// No node filter: include everything.
	if all := r.Timeline(events); !strings.Contains(all, "      10  NODE 2: tlbw           vpn=3\n") {
		t.Errorf("unfiltered timeline should include node 2:\n%s", all)
	}
}
