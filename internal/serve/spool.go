package serve

// The checkpoint spool: every session's recovery state lives in
// <spool>/<id>.ckpt, written atomically and durably (snap.WriteFileAtomic
// fsyncs the file and its directory) so it survives power loss, not just
// process death. A checkpoint is an envelope — identity, budgets, the
// verbatim .wl source, the core.ScenarioRun.Position — plus, once the
// session has advanced, a machine snapshot taken at the same quantum
// boundary. An admission checkpoint (written before the session is
// queued) has no machine: it recovers by running from the start, which is
// the same deterministic execution. Crash dumps (<id>.crash) sit alongside
// for forensics; they are never used for recovery.

import (
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
	ckptVersion = 2
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

	Pos core.Position // resume position (core.ScenarioRun.Seek)

	// Machine snapshot at the matching quantum boundary; empty for an
	// admission checkpoint (resume = run from the start).
	Machine []byte
}

// ckptPath and crashPath name a session's spool files.
func ckptPath(spool, id string) string  { return filepath.Join(spool, id+".ckpt") }
func crashPath(spool, id string) string { return filepath.Join(spool, id+".crash") }

// state walks the envelope after its magic, from the version word to the
// trailer, and describes a decoded version, position or trailer that is
// not this build's.
func (ck *checkpoint) state(c *snap.Codec) error {
	v := ckptVersion
	c.Int(&v)
	if v != ckptVersion {
		return fmt.Errorf("checkpoint version %d, want %d", v, ckptVersion)
	}
	c.String(&ck.ID, 1<<10)
	c.String(&ck.Name, 1<<16)
	c.String(&ck.Source, maxSubmitBytes)
	c.I64(&ck.WallNanos)
	c.I64(&ck.CycleBudget)
	c.Int(&ck.Retries)
	ck.Pos.State(c)
	c.Bytes(&ck.Machine, 1<<32)
	t := uint64(ckptTrailer)
	c.U64(&t)
	if c.Err() == nil && t != ckptTrailer {
		return fmt.Errorf("bad checkpoint trailer %#x", t)
	}
	return c.Err()
}

// writeCheckpoint spools ck atomically and durably.
func writeCheckpoint(path string, ck *checkpoint) error {
	return snap.WriteFileAtomic(path, func(wr io.Writer) error {
		if _, err := io.WriteString(wr, ckptMagic); err != nil {
			return err
		}
		c := snap.NewEncoder(wr)
		ck.state(c)
		return c.Flush()
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
	c := snap.NewDecoder(b[len(ckptMagic):])
	ck := &checkpoint{}
	if err := ck.state(c); err != nil {
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
