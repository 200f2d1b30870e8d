package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Span kinds: one per layer boundary the traced driver crosses. The name
// is the layer (module) followed by what it was doing.
type spanKind uint8

const (
	spRun          spanKind = iota // root: one traced operation
	spChipStep                     // chip: Chip.Step over the due chips of a cycle
	spChipSkip                     // chip: Chip.SkipCycles over idle chips / clock jumps
	spMachineScan                  // machine: NextEvent scans (due-set and fast-forward)
	spMachineDrain                 // machine: FlushTrace + FlushNet over all chips
	spMachineNote                  // machine: per-chip activity accounting and arrival wake-ups
	spNocStep                      // noc: Network.Step
	spSnapFork                     // snap: Sim.Fork
	spSnapSave                     // snap: Sim.Save (into the digest hash)
	spDistRun                      // dist: dist.RunScenario
	spServeSubmit                  // serve: POST /api/v1/sessions
	spServeWait                    // serve: GET /api/v1/sessions/{id}/wait
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"run", "chip.step", "chip.skip", "machine.scan", "machine.drain",
	"machine.note", "noc.step", "snap.fork", "snap.save",
	"dist.run", "serve.submit", "serve.wait",
}

// span is one recorded interval. parent indexes the enclosing span in the
// same tracer (-1 for a root); op identifies the operation it belongs to.
type span struct {
	kind       spanKind
	parent     int32
	op         int32
	start, end time.Duration
}

type openSpan struct {
	kind     spanKind
	start    time.Duration
	children time.Duration // time covered by already-closed child spans
	index    int32         // position in raw, -1 when raw spans are not kept
}

// tracer records spans from the benchmark's side of each layer boundary.
// Per-kind totals are accumulated as spans close (self time = duration
// minus the part child spans cover); the raw spans are additionally kept
// in memory, up to maxRawSpans, when they are to be written out at the
// end. A tracer is single-goroutine; concurrent clients each own one and
// merge.
type tracer struct {
	keepRaw bool
	op      int32
	stack   []openSpan
	raw     []span

	total [numSpanKinds]time.Duration
	self  [numSpanKinds]time.Duration
	count [numSpanKinds]int64
}

// maxRawSpans bounds the in-memory span log (24 bytes each).
const maxRawSpans = 1 << 20

func (t *tracer) begin(k spanKind) { t.beginAt(k, now()) }

func (t *tracer) beginAt(k spanKind, at time.Duration) {
	o := openSpan{kind: k, start: at, index: -1}
	if t.keepRaw && len(t.raw) < maxRawSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].index
		}
		o.index = int32(len(t.raw))
		t.raw = append(t.raw, span{kind: k, parent: parent, op: t.op, start: at})
	}
	t.stack = append(t.stack, o)
}

func (t *tracer) end() { t.endAt(now()) }

func (t *tracer) endAt(at time.Duration) {
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	d := at - o.start
	t.total[o.kind] += d
	t.self[o.kind] += d - o.children
	t.count[o.kind]++
	if n > 0 {
		t.stack[n-1].children += d
	}
	if o.index >= 0 {
		t.raw[o.index].end = at
	}
}

// next closes the current span and opens a sibling of kind k on one clock
// reading, so back-to-back phases cost one timestamp per boundary.
func (t *tracer) next(k spanKind) {
	at := now()
	t.endAt(at)
	t.beginAt(k, at)
}

// merge folds another tracer's totals and raw spans into t.
func (t *tracer) merge(o *tracer) {
	base := int32(len(t.raw))
	for _, s := range o.raw {
		if len(t.raw) >= maxRawSpans {
			break
		}
		if s.parent >= 0 {
			s.parent += base
		}
		t.raw = append(t.raw, s)
	}
	for k := range t.total {
		t.total[k] += o.total[k]
		t.self[k] += o.self[k]
		t.count[k] += o.count[k]
	}
}

// perCall is the mean duration of kind k spans in nanoseconds.
func (t *tracer) perCall(k spanKind) float64 {
	if t.count[k] == 0 {
		return 0
	}
	return float64(t.total[k]) / float64(t.count[k])
}

// coverage is the share of root-span time that named child spans cover.
func (t *tracer) coverage() float64 {
	if t.total[spRun] == 0 {
		return 0
	}
	return 1 - float64(t.self[spRun])/float64(t.total[spRun])
}

// writeSpans writes the raw span log as CSV: id,parent,op,workload,name,start_ns,end_ns.
func (t *tracer) writeSpans(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,op,workload,name,start_ns,end_ns")
	for i, s := range t.raw {
		fmt.Fprintf(w, "%d,%d,%d,%s,%s,%d,%d\n", i, s.parent, s.op, workload,
			spanNames[s.kind], s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
