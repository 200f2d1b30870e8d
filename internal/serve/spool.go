package serve

// The checkpoint spool: every session's recovery state lives in
// <spool>/<id>.ckpt, written atomically and durably (snap.WriteFileAtomic
// fsyncs the file and its directory) so it survives power loss, not just
// process death. A checkpoint is an envelope — identity, budgets, the
// verbatim .wl source, the resume position from core.ScenarioRun.Pos,
// results accumulated so far — plus, once the session has advanced, a
// machine snapshot taken at the same quantum boundary. An admission
// checkpoint (written before the session is queued) has no machine: it
// recovers by running from the start, which is the same deterministic
// execution. Crash dumps (<id>.crash) sit alongside for forensics; they
// are never used for recovery — recovery always resumes from a slice
// boundary so the replayed bound sequence matches an uninterrupted run.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/snap"
)

const (
	ckptMagic   = "msimdCk1" // 8 bytes
	ckptVersion = 1
	ckptTrailer = 0x6d73696d64436b31 // "msimdCk1" as a word
)

// checkpoint is a session's durable recovery state.
type checkpoint struct {
	ID          string
	Name        string
	Source      string // verbatim .wl text; re-parsed on adoption
	WallNanos   int64
	CycleBudget int64
	Retries     int

	// Resume position (core.ScenarioRun.Seek arguments).
	NextStep int
	PhaseRan int64
	Checks   int
	Phases   []core.PhaseResult

	// Machine snapshot at the matching quantum boundary; empty for an
	// admission checkpoint (resume = run from the start).
	Machine []byte
}

// ckptPath and crashPath name a session's spool files.
func ckptPath(spool, id string) string  { return filepath.Join(spool, id+".ckpt") }
func crashPath(spool, id string) string { return filepath.Join(spool, id+".crash") }

// writeCheckpoint spools ck atomically and durably.
func writeCheckpoint(path string, ck *checkpoint) error {
	return snap.WriteFileAtomic(path, func(wr io.Writer) error {
		if _, err := io.WriteString(wr, ckptMagic); err != nil {
			return err
		}
		w := snap.NewWriter(wr)
		w.Int(ckptVersion)
		w.String(ck.ID)
		w.String(ck.Name)
		w.String(ck.Source)
		w.I64(ck.WallNanos)
		w.I64(ck.CycleBudget)
		w.Int(ck.Retries)
		w.Int(ck.NextStep)
		w.I64(ck.PhaseRan)
		w.Int(ck.Checks)
		w.Int(len(ck.Phases))
		for _, p := range ck.Phases {
			w.String(p.Name)
			w.I64(p.Cycles)
		}
		w.Bytes(ck.Machine)
		w.U64(ckptTrailer)
		return w.Flush()
	})
}

// readCheckpoint loads and validates a spooled checkpoint.
func readCheckpoint(path string) (*checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < len(ckptMagic) || string(b[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("%s: not an msimd checkpoint", path)
	}
	r := snap.NewReader(bytes.NewReader(b[len(ckptMagic):]))
	r.Limit(int64(len(b) - len(ckptMagic)))
	if v := r.Int(); v != ckptVersion {
		return nil, fmt.Errorf("%s: checkpoint version %d, want %d", path, v, ckptVersion)
	}
	ck := &checkpoint{
		ID:          r.String(1 << 10),
		Name:        r.String(1 << 16),
		Source:      r.String(maxSubmitBytes),
		WallNanos:   r.I64(),
		CycleBudget: r.I64(),
		Retries:     r.Int(),
		NextStep:    r.Int(),
		PhaseRan:    r.I64(),
		Checks:      r.Int(),
	}
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if n < 0 || n > 1<<20 {
		return nil, fmt.Errorf("%s: implausible phase count %d", path, n)
	}
	for i := 0; i < n; i++ {
		ck.Phases = append(ck.Phases, core.PhaseResult{Name: r.String(1 << 16), Cycles: r.I64()})
	}
	ck.Machine = r.Bytes(1 << 32)
	if t := r.U64(); r.Err() == nil && t != ckptTrailer {
		return nil, fmt.Errorf("%s: bad checkpoint trailer %#x", path, t)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return ck, nil
}

// listCheckpoints returns the session IDs with a checkpoint in spool, in
// name order (which is admission order for server-allocated IDs).
func listCheckpoints(spool string) ([]string, error) {
	ents, err := os.ReadDir(spool)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range ents {
		if name, ok := strings.CutSuffix(e.Name(), ".ckpt"); ok && !e.IsDir() {
			ids = append(ids, name)
		}
	}
	return ids, nil
}

// removeSpooled deletes a session's spool files (checkpoint and crash
// dump) once it reaches a state that no longer needs them.
func removeSpooled(spool, id string) {
	os.Remove(ckptPath(spool, id))
	os.Remove(crashPath(spool, id))
}
