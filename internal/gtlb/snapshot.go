package gtlb

// Checkpoint support (DESIGN.md, "Checkpoint/restore") for the global
// destination table and the per-chip GTLB caches: State walks a table or
// cache — filling a new one when decoding, with every entry re-validated
// on the way in — and Clone copies the same fields for machine.Fork.

import (
	"fmt"
	"slices"

	"repro/internal/snap"
)

// maxEntries bounds decoded entry counts against corrupt input.
const maxEntries = 1 << 16

func (e *Entry) state(c *snap.Codec) {
	c.U64(&e.VirtPage)
	c.U64(&e.GroupPages)
	c.Int(&e.Start.X)
	c.Int(&e.Start.Y)
	c.Int(&e.Start.Z)
	for i := range e.ExtentLog {
		c.Int(&e.ExtentLog[i])
	}
	c.U64(&e.PagesPerNode)
	if c.Reading() && c.Err() == nil {
		if err := e.Validate(); err != nil {
			c.Fail(fmt.Errorf("snapshot entry: %w", err))
		}
	}
}

// entriesState walks a length-prefixed entry list and returns its length.
func entriesState(c *snap.Codec, es *[]Entry) int {
	n := c.Len(len(*es), maxEntries)
	for i := 0; i < n && c.Err() == nil; i++ {
		snap.Elem(c, es, i).state(c)
	}
	return n
}

// CheckMesh reports a decoded GDT entry whose node region leaves a mesh
// of dims: translating through it would hand the network a destination
// it has no node for.
func (t *Table) CheckMesh(dims NodeID) error { return offMesh(t.entries, dims) }

// CheckMesh reports a decoded resident entry whose node region leaves a
// mesh of dims.
func (g *GTLB) CheckMesh(dims NodeID) error { return offMesh(g.resident, dims) }

func offMesh(es []Entry, dims NodeID) error {
	for _, e := range es {
		start := [3]int{e.Start.X, e.Start.Y, e.Start.Z}
		for d, size := range [3]int{dims.X, dims.Y, dims.Z} {
			if start[d] < 0 || start[d] > size-1<<e.ExtentLog[d] {
				return fmt.Errorf("gtlb: entry for page %d places nodes outside the %v mesh", e.VirtPage, dims)
			}
		}
	}
	return nil
}

// State walks the GDT's entries in installation order. A decoder fills a
// new &Table{}.
func (t *Table) State(c *snap.Codec) { entriesState(c, &t.entries) }

// Clone returns an independent GDT with t's entries.
func (t *Table) Clone() *Table {
	return &Table{entries: slices.Clone(t.entries)}
}

// State walks the GTLB's resident entries in refill order and its
// statistics. A decoder fills a GTLB from New, backed by the restored
// machine's table.
func (g *GTLB) State(c *snap.Codec) {
	n := entriesState(c, &g.resident)
	if c.Reading() && c.Err() == nil && n > g.capacity {
		c.Fail(fmt.Errorf("gtlb: snapshot has %d resident entries, capacity %d", n, g.capacity))
	}
	c.U64(&g.Hits)
	c.U64(&g.Misses)
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
