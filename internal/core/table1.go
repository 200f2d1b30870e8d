package core

// Table 1 of the paper: local and remote access times in cycles, for reads
// and writes across six memory-system states. Reads are timed exactly as
// the paper defines completion ("the requested data has been written into
// the destination register") by observing when a dependent operation can
// issue; writes are timed to the completion of the store at its home node
// ("the line containing the data has been fully loaded into the cache").
//
// Every cell is measured on a fresh two-node machine staged into the row's
// state, with the software handlers doing the work for the LTLB-miss and
// remote rows — the same methodology as the paper's Section 4.2.

import (
	"fmt"
	"strings"

	"repro/internal/mem"
	"repro/internal/trace"
)

// AccessClass names a Table 1 row.
type AccessClass int

const (
	LocalCacheHit AccessClass = iota
	LocalCacheMiss
	LocalLTLBMiss
	RemoteCacheHit
	RemoteCacheMiss
	RemoteLTLBMiss
	numAccessClasses
)

// String names the access class as Table 1 prints it.
func (a AccessClass) String() string {
	switch a {
	case LocalCacheHit:
		return "Local Cache Hit"
	case LocalCacheMiss:
		return "Local Cache Miss"
	case LocalLTLBMiss:
		return "Local LTLB Miss"
	case RemoteCacheHit:
		return "Remote Cache Hit"
	case RemoteCacheMiss:
		return "Remote Cache Miss"
	case RemoteLTLBMiss:
		return "Remote LTLB Miss"
	}
	return "?"
}

// Table1Row holds measured and paper-reported latencies for one access
// class.
type Table1Row struct {
	Class       AccessClass
	Read, Write int64
	PaperRead   int64
	PaperWrite  int64
}

// paperTable1 is Table 1 of the paper, for side-by-side reporting.
var paperTable1 = [numAccessClasses][2]int64{
	LocalCacheHit:   {3, 2},
	LocalCacheMiss:  {13, 19},
	LocalLTLBMiss:   {61, 67},
	RemoteCacheHit:  {138, 74},
	RemoteCacheMiss: {154, 90},
	RemoteLTLBMiss:  {202, 138},
}

// Table1 measures every cell and returns the rows in paper order. The six
// classes each stage a fresh two-node machine and run concurrently
// (ForEachMachine); within a class, the write cell warm-starts from a
// fork of the staged machine (see measureClass), so staging runs once per
// class instead of once per cell. The rows are assembled in paper order
// regardless.
func Table1() ([]Table1Row, error) {
	rows := make([]Table1Row, numAccessClasses)
	err := ForEachMachine(int(numAccessClasses), func(i int) error {
		c := AccessClass(i)
		rd, wr, err := measureClass(c)
		if err != nil {
			return fmt.Errorf("table1 %s: %w", c, err)
		}
		rows[c].Read, rows[c].Write = rd, wr
		return nil
	})
	if err != nil {
		return nil, err
	}
	for c := AccessClass(0); c < numAccessClasses; c++ {
		rows[c].Class = c
		rows[c].PaperRead = paperTable1[c][0]
		rows[c].PaperWrite = paperTable1[c][1]
	}
	return rows, nil
}

// measureClass stages a fresh machine into the class's state, then times
// the read cell on the staged machine and the write cell on a fork taken
// before the read — the checkpoint subsystem's warm start for the
// harness. The fork is bit-identical to the staged machine (a clone is
// indistinguishable from a restore of its snapshot, pinned for these
// very machines by TestSimForkMatchesRestore), so the write measurement
// equals the historical methodology's, which staged a second machine
// from scratch.
func measureClass(class AccessClass) (read, write int64, err error) {
	s, err := NewSim(Options{Nodes: 2})
	if err != nil {
		return 0, 0, err
	}
	local := class <= LocalLTLBMiss
	var addr uint64
	if local {
		addr = 16 // block 2 of node 0's first page
	} else {
		addr = s.HomeBase(1) + 16
	}

	if err := stageAccess(s, class, addr); err != nil {
		return 0, 0, err
	}
	w, err := s.Fork()
	if err != nil {
		return 0, 0, err
	}
	defer w.M.Close()
	if read, err = timeRead(s, addr); err != nil {
		return 0, 0, err
	}
	if write, err = timeWrite(w, class, addr); err != nil {
		return 0, 0, err
	}
	return read, write, nil
}

// stageAccess prepares the memory system state for the class.
func stageAccess(s *Sim, class AccessClass, addr uint64) error {
	switch class {
	case LocalCacheHit, LocalCacheMiss:
		s.MapLocal(0, addr/512, 2 /* BSReadWrite */, true)
	case LocalLTLBMiss:
		s.MapLocal(0, addr/512, 2, false) // LPT only
	case RemoteCacheHit, RemoteCacheMiss, RemoteLTLBMiss:
		// First-touch at the home node creates the page, primes its LTLB,
		// and stages the value; the warm-up loads also fill the cache line.
		src := fmt.Sprintf(`
    movi i1, #%d
    movi i2, #4242
    st [i1], i2
    ld i3, [i1]
    add i4, i3, #0
    halt
`, addr)
		if err := s.LoadASM(1, 0, 0, src); err != nil {
			return err
		}
		if _, err := s.Run(100000); err != nil {
			return err
		}
		if class >= RemoteCacheMiss {
			s.M.Chip(1).Mem.Cache.FlushAll(s.M.Chip(1).Mem.SDRAM)
		}
		if class == RemoteLTLBMiss {
			s.M.Chip(1).Mem.TLBInvalidate(addr / 512)
		}
		return nil
	}
	if err := s.Poke(0, addr, 4242); err != nil {
		return err
	}
	// Warm-up policy for the local rows: for a hit, touch the measured
	// word; for misses, touch a neighbouring block so the SDRAM row is
	// open but the measured block is not cached (the paper's Table 1
	// assumes the page-mode common case).
	warm := addr
	if class != LocalCacheHit {
		warm = addr - 8
	}
	warmSrc := fmt.Sprintf(`
    movi i1, #%d
    ld i2, [i1]
    add i3, i2, #0
    halt
`, warm)
	if err := s.LoadASM(0, 1, 0, warmSrc); err != nil {
		return err
	}
	if _, err := s.Run(100000); err != nil {
		return err
	}
	if class == LocalLTLBMiss {
		// The warm-up access pulled the entry into the LTLB; evict it
		// again so the measured access misses (LPT stays valid).
		s.M.Chip(0).Mem.TLBInvalidate(addr / 512)
	}
	return nil
}

// timeRead measures read-to-register-writeback latency with the
// cycle-counter bracket: ld issues one cycle after the first cyc read, and
// the final cyc read issues one cycle after the dependent add.
func timeRead(s *Sim, addr uint64) (int64, error) {
	src := fmt.Sprintf(`
    movi i1, #%d
    mov i8, cyc
    ld i2, [i1]
    add i3, i2, #0
    mov i9, cyc
    halt
`, addr)
	if err := s.LoadASM(0, 0, 0, src); err != nil {
		return 0, err
	}
	if _, err := s.Run(200000); err != nil {
		return 0, err
	}
	t0 := int64(s.Reg(0, 0, 0, 8))
	t1 := int64(s.Reg(0, 0, 0, 9))
	return t1 - t0 - 2, nil
}

// timeWrite measures store-issue to store-completion. Completion is the
// mem-complete trace event for the measured address: at node 0 for local
// rows, at the home node (possibly after handler retries) for remote rows.
func timeWrite(s *Sim, class AccessClass, addr uint64) (int64, error) {
	src := fmt.Sprintf(`
    movi i1, #%d
    movi i2, #5151
    mov i8, cyc
    st [i1], i2
    halt
`, addr)
	if err := s.LoadASM(0, 0, 0, src); err != nil {
		return 0, err
	}
	start := s.M.Cycle
	if _, err := s.Run(200000); err != nil {
		return 0, err
	}
	issue := int64(s.Reg(0, 0, 0, 8)) + 1
	var node int32
	if class >= RemoteCacheHit {
		node = 1
	}
	ev, ok := firstComplete(s.Recorder, start, node, addr, true)
	if !ok {
		return 0, fmt.Errorf("no completion event for write addr=%#x", addr)
	}
	return ev.Cycle - issue, nil
}

// firstComplete finds the first mem-complete record at node for exactly
// addr, at or after cycle from; storesOnly skips every access kind but the
// virtual store.
func firstComplete(r *trace.Recorder, from int64, node int32, addr uint64, storesOnly bool) (trace.Event, bool) {
	return r.FirstMatch(from, func(e trace.Event) bool {
		return e.Node == node && e.Kind == trace.MemComplete && e.Arg == addr &&
			(!storesOnly || mem.Kind(e.Sub) == mem.ReqWrite)
	})
}

// FormatTable1 renders rows as the paper's table with a measured column.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s  %14s  %14s\n", "", "read (cycles)", "write (cycles)")
	fmt.Fprintf(&b, "%-18s  %6s %7s  %6s %7s\n", "Access Type", "paper", "ours", "paper", "ours")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s  %6d %7d  %6d %7d\n",
			r.Class, r.PaperRead, r.Read, r.PaperWrite, r.Write)
	}
	return b.String()
}
