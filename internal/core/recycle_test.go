package core_test

// Recycled messages never alias (DESIGN.md, "Allocation discipline on hot
// paths"): chips reuse the messages they consume, and a message must have
// one owner at a time. A Fork copies every message it finds and starts each
// chip with an empty free list, so a message that two owners still share
// — a refused request also put up for reuse, a held request also freed —
// makes the original and a fork taken before the reuse step apart.

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/trace"
)

// stormIters is the number of rounds each node's sender runs.
const stormIters = 12

// bootStorm builds four nodes whose senders all target node 0, whose
// 12-word request queue refuses most of what arrives. Each round a sender
// issues a remote store (body 1), a fetch-and-add and a remote read (bodies
// 3 and 2, each answered by a SENDN reply at priority 1) to its own words
// on node 0, and writes back a whole block (body 8) on the next node.
func bootStorm(opts core.Options) (*core.Sim, error) {
	cfg := chip.DefaultConfig()
	cfg.MsgQueueCap = 12
	cfg.SendCredits = 4
	opts.Nodes, opts.Chip = 4, &cfg
	s, err := core.NewSim(opts)
	if err != nil {
		return nil, err
	}
	for n := 0; n < 4; n++ {
		hot, block := stormWords(s, n)
		if err := s.LoadASM(n, 0, 0, fmt.Sprintf(`
    movi i1, #%d
    add  i4, i1, #1
    movi i2, #%d
    movi i6, #0
loop:
    add  i8, i6, #%d
    movi i3, #%d
    send i1, i3, i8, #1
    add  i9, i8, #1
    add  i10, i8, #2
    add  i11, i8, #3
    add  i12, i8, #4
    add  i13, i8, #5
    add  i14, i8, #6
    add  i15, i8, #7
    movi i3, #%d
    send i2, i3, i8, #8
    movi i8, #1
    movi i9, #%d
    mov  i10, node
    movi i3, #%d
    send i4, i3, i8, #3
    movi i3, #%d
    send i1, i3, i9, #2
    add  i6, i6, #1
    lt   i7, i6, #%d
    brt  i7, loop
    halt
`, hot, block, stormTag(n), s.RT.DIPRemoteWrite, s.RT.DIPBlockWrite,
			isa.RegDesc(1, 1, isa.Int(1)), s.RT.DIPFetchAdd, s.RT.DIPRemoteRead, stormIters)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// stormWords returns sender n's store/fetch-add word on node 0 and the
// block it writes back on node n+1.
func stormWords(s *core.Sim, n int) (hot, block uint64) {
	return s.HomeBase(0) + 64 + 8*uint64(n), s.HomeBase((n+1)%4) + 128 + 8*uint64(n)
}

func stormTag(n int) int { return 1000 * (n + 1) }

// stormMailboxes reads what the handlers delivered: each sender's stored
// word and fetch-and-add counter on node 0, its block on the next node, and
// the register its replies wrote. It fails on anything the senders could
// not have sent.
func stormMailboxes(s *core.Sim) (string, error) {
	out := ""
	for n := 0; n < 4; n++ {
		hot, block := stormWords(s, n)
		last := uint64(stormTag(n) + stormIters - 1)
		var got [10]uint64
		for i, w := range []struct {
			node int
			addr uint64
		}{{0, hot}, {0, hot + 1}} {
			v, err := s.Peek(w.node, w.addr)
			if err != nil {
				return "", err
			}
			got[i] = v
		}
		for j := uint64(0); j < 8; j++ {
			v, err := s.Peek((n+1)%4, block+j)
			if err != nil {
				return "", err
			}
			got[2+j] = v
		}
		// Refusals reorder a sender's messages, so any round's store or
		// block may land last; a block is always one message's eight words.
		first := uint64(stormTag(n))
		in := func(v uint64) bool { return v >= first && v <= last }
		whole := true
		for j := range 8 {
			whole = whole && got[2+j] == got[2]+uint64(j)
		}
		if !in(got[0]) || got[1] != stormIters || !in(got[2]) || !whole {
			return "", fmt.Errorf("sender %d: store %d, counter %d, block %v; want a store and a whole block from rounds %d..%d and counter %d",
				n, got[0], got[1], got[2:], first, last, stormIters)
		}
		out += fmt.Sprintf("node %d: %v reply=%d\n", n, got, s.Reg(n, 1, 1, 1))
	}
	return out, nil
}

// stormDigests is the sha256 of the original storm's Save digests at every
// fork point and at the end, first captured when every SEND,
// acknowledgement and resend allocated a fresh message (re-pinned when
// snapshot version 2 moved only the SDRAM encoding, and when version 3
// moved only the thread contexts' encoding). It pins what the
// messages of the stream carry — their hop counts and cycles included —
// at every point.
const stormDigests = "0516839baf470314828d29bc05c4c96ce1596ada05fe164afb4c6a9d672856fc"

func TestRecycledMessagesNeverAlias(t *testing.T) {
	for _, eng := range forkEngines[:2] { // naive, event
		t.Run(eng.name, func(t *testing.T) {
			s, err := bootStorm(eng.opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.M.Close)
			var forks []*core.Sim
			pin := sha256.New()
			for !(s.M.UserDone() && s.M.Quiescent()) {
				if s.M.Cycle >= 20000 {
					t.Fatalf("the storm did not drain by cycle %d", s.M.Cycle)
				}
				if s.M.Cycle%64 == 0 {
					f, err := s.Fork()
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(f.M.Close)
					forks = append(forks, f)
					fmt.Fprintln(pin, digestOf(t, s))
				}
				s.M.Step()
			}
			end := s.M.Cycle
			want := digestOf(t, s)
			fmt.Fprintln(pin, want)
			if got := fmt.Sprintf("%x", pin.Sum(nil)); got != stormDigests {
				t.Errorf("digests along the run hash to %s, want %s", got, stormDigests)
			}
			wantBox, err := stormMailboxes(s)
			if err != nil {
				t.Fatal(err)
			}

			var returned uint64
			for _, c := range s.M.Chips {
				returned += c.MsgsReturned
			}
			resends := 0
			for _, e := range s.Recorder.Events {
				if e.Kind == trace.Resend {
					resends++
				}
			}
			if returned == 0 || resends == 0 {
				t.Fatalf("%d messages returned and %d resent; the storm must refuse and resend", returned, resends)
			}

			for i, f := range forks {
				from := f.M.Cycle
				for f.M.Cycle < end {
					f.M.Step()
				}
				if got := digestOf(t, f); got != want {
					t.Fatalf("fork at cycle %d (%d of %d) ends with digest %s, the original with %s", from, i+1, len(forks), got, want)
				}
				box, err := stormMailboxes(f)
				if err != nil {
					t.Fatalf("fork at cycle %d: %v", from, err)
				}
				if box != wantBox {
					t.Fatalf("fork at cycle %d delivered\n%s\nthe original\n%s", from, box, wantBox)
				}
			}
		})
	}
}
