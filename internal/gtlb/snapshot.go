package gtlb

// Checkpoint support (DESIGN.md, "Checkpoint/restore") for the global
// destination table and the per-chip GTLB caches: EncodeState streams,
// the DecodeXState functions build new objects from the stream (entries
// are re-validated on the way in), and Clone copies the same fields for
// machine.Fork.

import (
	"fmt"
	"slices"

	"repro/internal/snap"
)

// maxEntries bounds decoded entry counts against corrupt input.
const maxEntries = 1 << 16

func encodeEntry(w *snap.Writer, e *Entry) {
	w.U64(e.VirtPage)
	w.U64(e.GroupPages)
	w.Int(e.Start.X)
	w.Int(e.Start.Y)
	w.Int(e.Start.Z)
	for _, l := range e.ExtentLog {
		w.Int(l)
	}
	w.U64(e.PagesPerNode)
}

func decodeEntry(r *snap.Reader) Entry {
	e := Entry{
		VirtPage:   r.U64(),
		GroupPages: r.U64(),
		Start:      NodeID{X: r.Int(), Y: r.Int(), Z: r.Int()},
	}
	for i := range e.ExtentLog {
		e.ExtentLog[i] = r.Int()
	}
	e.PagesPerNode = r.U64()
	if r.Err() == nil {
		if err := e.Validate(); err != nil {
			r.Fail(fmt.Errorf("snapshot entry: %w", err))
		}
	}
	return e
}

// EncodeState writes the GDT's entries in installation order.
func (t *Table) EncodeState(w *snap.Writer) {
	w.Len(len(t.entries))
	for i := range t.entries {
		encodeEntry(w, &t.entries[i])
	}
}

// DecodeTableState reads a GDT written by EncodeState.
func DecodeTableState(r *snap.Reader) *Table {
	t := &Table{}
	n := r.Len(maxEntries)
	for i := 0; i < n; i++ {
		t.entries = append(t.entries, decodeEntry(r))
	}
	return t
}

// Clone returns an independent GDT with t's entries.
func (t *Table) Clone() *Table {
	return &Table{entries: slices.Clone(t.entries)}
}

// EncodeState writes the GTLB's resident entries in refill order and its
// statistics.
func (g *GTLB) EncodeState(w *snap.Writer) {
	w.Len(len(g.resident))
	for i := range g.resident {
		encodeEntry(w, &g.resident[i])
	}
	w.U64(g.Hits)
	w.U64(g.Misses)
}

// DecodeGTLBState reads a GTLB written by EncodeState, backed by gdt (the
// restored machine's table).
func DecodeGTLBState(r *snap.Reader, gdt *Table, capacity int) *GTLB {
	g := &GTLB{gdt: gdt, capacity: capacity}
	n := r.Len(maxEntries)
	for i := 0; i < n; i++ {
		g.resident = append(g.resident, decodeEntry(r))
	}
	if r.Err() == nil && n > capacity {
		r.Fail(fmt.Errorf("gtlb: snapshot has %d resident entries, capacity %d", n, capacity))
	}
	g.Hits = r.U64()
	g.Misses = r.U64()
	return g
}

// Clone returns an independent GTLB with g's resident set, capacity and
// statistics, backed by gdt (the clone machine's own table).
func (g *GTLB) Clone(gdt *Table) *GTLB {
	return &GTLB{
		gdt:      gdt,
		resident: slices.Clone(g.resident),
		capacity: g.capacity,
		Hits:     g.Hits,
		Misses:   g.Misses,
	}
}
