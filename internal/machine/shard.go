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

// shard walks a partial-machine wire frame: the machine clock, the node
// range, and the full serialized state of chips [lo, hi). The frame
// shares the snapshot version (the chip encoding is the same); it does
// not carry config, network, GDT, or page-allocator state — frames only
// travel between processes already seeded from a common full snapshot.
// Decoding, chips receives new chips bound to m's network and GDT, and a
// frame of another node range is refused; the error is adoption's.
func (m *Machine) shard(c *snap.Codec, cycle *int64, lo int, chips []*chip.Chip) error {
	if err := header(c, shardFrameMagic, "shard frame", "frame"); err != nil {
		return fmt.Errorf("machine: adopt shard: %w", err)
	}
	c.I64(cycle)
	hi := lo + len(chips)
	flo, fhi := lo, hi
	c.Int(&flo)
	c.Int(&fhi)
	if c.Err() == nil && (flo != lo || fhi != hi) {
		return fmt.Errorf("machine: adopt shard: frame covers [%d,%d), want [%d,%d)", flo, fhi, lo, hi)
	}
	m.chipsState(c, lo, chips, *cycle)
	trailer := uint64(shardFrameTrailer)
	c.U64(&trailer)
	if c.Err() == nil && trailer != shardFrameTrailer {
		c.Fail(fmt.Errorf("machine: shard frame trailer missing (stream corrupt)"))
	}
	if err := c.Err(); err != nil {
		return fmt.Errorf("machine: adopt shard [%d,%d): %w", lo, hi, err)
	}
	return nil
}

// EncodeShard writes the partial-machine wire frame of chips [lo, hi)
// (see shard).
func (m *Machine) EncodeShard(w io.Writer, lo, hi int) error {
	if lo < 0 || hi > len(m.Chips) || lo >= hi {
		return fmt.Errorf("machine: shard range [%d,%d) outside 0..%d", lo, hi, len(m.Chips))
	}
	m.syncDeferred()
	c := snap.NewEncoder(w)
	m.shard(c, &m.Cycle, lo, m.Chips[lo:hi])
	if err := c.Flush(); err != nil {
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
	if lo < 0 || hi > len(m.Chips) || lo >= hi {
		return 0, fmt.Errorf("machine: shard range [%d,%d) outside 0..%d", lo, hi, len(m.Chips))
	}
	var cycle int64
	chips := make([]*chip.Chip, hi-lo)
	if err := m.shard(snap.NewDecoder(bufio.NewReader(r)), &cycle, lo, chips); err != nil {
		return 0, err
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
		a.Running += c.RunningUser()
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
// A configuration New cannot build is an error.
func ReadSnapshotConfig(r io.Reader) (Config, error) {
	c := snap.NewDecoder(bufio.NewReader(r))
	if err := header(c, snapshotMagic, "snapshot stream", "snapshot"); err != nil {
		return Config{}, fmt.Errorf("machine: %w", err)
	}
	var cfg Config
	configState(c, &cfg)
	if err := c.Err(); err != nil {
		return Config{}, fmt.Errorf("machine: read snapshot config: %w", err)
	}
	if err := cfg.check(); err != nil {
		return Config{}, fmt.Errorf("machine: snapshot header: %w", err)
	}
	return cfg, nil
}
