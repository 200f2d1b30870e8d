package core

// Checkpoint/restore wiring for the simulator facade (DESIGN.md,
// "Checkpoint/restore"): Save/Restore/Fork on Sim. The experiment
// harness's warm start is Table1's measureClass, which stages each
// access class once and measures the write cell on a fork. (Booting
// itself is already nearly free — lazy SDRAM plus the memoized runtime —
// so snapshots warm-start *staged* machines, not boots.)

import (
	"io"

	"repro/internal/trace"
)

// Save serializes the machine's complete simulation state to w (see
// machine.Save). The runtime and recorder are not part of the stream: the
// runtime is immutable and re-derivable from the options, and trace
// hooks are environment, not state.
func (s *Sim) Save(w io.Writer) error { return s.M.Save(w) }

// Restore replaces the machine's simulation state with a snapshot
// written by Save (see machine.Restore). The simulator's recorder and
// trace hooks keep recording across the restore.
func (s *Sim) Restore(r io.Reader) error { return s.M.Restore(r) }

// Fork clones the simulator (see machine.Fork: a structural copy that
// shares SDRAM pages copy-on-write): the clone shares the immutable
// runtime, starts a fresh trace recorder, and evolves independently
// (what-if runs from a common prefix), on another goroutine if desired.
func (s *Sim) Fork() (*Sim, error) {
	m, err := s.M.Fork()
	if err != nil {
		return nil, err
	}
	f := &Sim{M: m, RT: s.RT, Recorder: &trace.Recorder{}, homeSpan: s.homeSpan}
	m.SetTrace(f.Recorder)
	return f, nil
}
