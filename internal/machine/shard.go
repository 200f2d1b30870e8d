package machine

// Distributed-engine hooks (see internal/dist and DESIGN.md "The
// distributed engine"): a shard worker process owns a contiguous node
// range [lo, hi) of the mesh and steps exactly those chips, while the
// coordinator owns the authoritative network, the clock, and the
// checkpoint/digest story. Two things cross the process boundary in
// machine terms: per-range chip state (the partial-machine wire frames
// below, used to assemble coordinated checkpoints and the final
// snapshot), and the per-cycle activity aggregates the coordinator's
// run-loop head needs, computed here with the same definitions as the
// in-process loop so the two engines share one completion story.

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/chip"
	"repro/internal/snap"
)

// Magic words bracketing a shard frame ("MSHARDFR" / "MSHRDEND").
const (
	shardFrameMagic   = 0x524644524148534d // "MSHARDFR"
	shardFrameTrailer = 0x444e45445248534d // "MSHRDEND"
)

// EncodeShard writes a partial-machine wire frame: the machine clock, the
// node range, and the full serialized state of chips [lo, hi). The frame
// shares the snapshot version (the chip encoding is the same); it does
// not carry config, network, GDT, or page-allocator state — frames only
// travel between processes already seeded from a common full snapshot.
func (m *Machine) EncodeShard(w io.Writer, lo, hi int) error {
	if lo < 0 || hi > len(m.Chips) || lo >= hi {
		return fmt.Errorf("machine: shard range [%d,%d) outside 0..%d", lo, hi, len(m.Chips))
	}
	m.syncDeferred()
	sw := snap.NewWriter(w)
	sw.U64(shardFrameMagic)
	sw.U64(SnapshotVersion)
	sw.I64(m.Cycle)
	sw.Int(lo)
	sw.Int(hi)
	for _, c := range m.Chips[lo:hi] {
		c.EncodeState(sw)
	}
	sw.U64(shardFrameTrailer)
	if err := sw.Flush(); err != nil {
		return fmt.Errorf("machine: encode shard [%d,%d): %w", lo, hi, err)
	}
	return nil
}

// AdoptShard reads a frame written by EncodeShard and installs its chips
// in this machine, which must have been seeded from the same full
// snapshot lineage (the frame's node range must match lo, hi). It is
// Restore for a chip range: the frame is fully decoded and validated into
// new chips before install replaces m.Chips[lo:hi] (new objects, as after
// a Restore). It returns the frame's machine clock; the caller decides
// whether (and to what) to advance m.Cycle.
func (m *Machine) AdoptShard(r io.Reader, lo, hi int) (int64, error) {
	sr := snap.NewReader(bufio.NewReader(r))
	if magic := sr.U64(); sr.Err() == nil && magic != shardFrameMagic {
		return 0, fmt.Errorf("machine: adopt shard: not a shard frame (bad magic %#x)", magic)
	}
	if v := sr.U64(); sr.Err() == nil && v != SnapshotVersion {
		return 0, fmt.Errorf("machine: adopt shard: unsupported frame version %d (this build reads version %d)", v, SnapshotVersion)
	}
	cycle := sr.I64()
	flo, fhi := sr.Int(), sr.Int()
	if sr.Err() == nil && (flo != lo || fhi != hi) {
		return 0, fmt.Errorf("machine: adopt shard: frame covers [%d,%d), want [%d,%d)", flo, fhi, lo, hi)
	}
	if lo < 0 || hi > len(m.Chips) || lo >= hi {
		return 0, fmt.Errorf("machine: shard range [%d,%d) outside 0..%d", lo, hi, len(m.Chips))
	}
	chips := make([]*chip.Chip, hi-lo)
	for i := range chips {
		chips[i] = chip.DecodeChipState(sr, m.Cfg.Chip, m.Net.CoordOf(lo+i), lo+i, m.Net, m.GDT)
	}
	if t := sr.U64(); sr.Err() == nil && t != shardFrameTrailer {
		sr.Fail(fmt.Errorf("machine: shard frame trailer missing (stream corrupt)"))
	}
	if err := sr.Err(); err != nil {
		return 0, fmt.Errorf("machine: adopt shard [%d,%d): %w", lo, hi, err)
	}
	m.syncDeferred()
	m.install(lo, chips, nil)
	return cycle, nil
}

// ShardActivity aggregates the run-loop quantities over chips [lo, hi):
// their Activity, the earliest chip NextEvent at cycle now, and the first
// faulted-thread description in FaultError's scan order (empty if none).
// The coordinator sums these per-shard reports to make exactly the
// QuietLoop calls Machine.Run makes in-process.
func (m *Machine) ShardActivity(lo, hi int, now int64) (a Activity, next int64, fault string) {
	next = NoEvent
	for _, c := range m.Chips[lo:hi] {
		a.Running += runningUserOf(c)
		if !c.Quiescent() {
			a.Busy++
		}
		a.Issued += c.InstsIssued
		if w := c.NextEvent(now); w < next {
			next = w
		}
	}
	return a, next, m.firstFault(lo, hi)
}

// ReadSnapshotConfig decodes just the configuration header of a snapshot
// stream written by Save, so a process can construct a compatible machine
// (New + Restore) from snapshot bytes alone — the distributed seed path.
func ReadSnapshotConfig(r io.Reader) (Config, error) {
	sr := snap.NewReader(bufio.NewReader(r))
	if magic := sr.U64(); sr.Err() == nil && magic != snapshotMagic {
		return Config{}, fmt.Errorf("machine: not a snapshot stream (bad magic %#x)", magic)
	}
	if v := sr.U64(); sr.Err() == nil && v != SnapshotVersion {
		return Config{}, fmt.Errorf("machine: unsupported snapshot version %d (this build reads version %d)", v, SnapshotVersion)
	}
	cfg := decodeConfig(sr)
	if err := sr.Err(); err != nil {
		return Config{}, fmt.Errorf("machine: read snapshot config: %w", err)
	}
	return cfg, nil
}
