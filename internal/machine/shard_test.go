package machine_test

// Shard-frame round trip: the distributed engine ships per-range chip
// state between processes as partial-machine frames (EncodeShard /
// DecodeShard / AdoptShard). Adopting the frames of a further-advanced
// machine into a stale peer must reproduce the donor's chip state bit for
// bit (proved by re-encoding) and leave a machine that runs on like the donor — under
// every engine, with the peer caught mid-phase — and corrupt or
// mismatched frames must fail descriptively without touching the target.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/noc"
	"repro/internal/rt"
	"repro/internal/trace"
)

func TestShardFrameRoundTrip(t *testing.T) {
	donor := buildSnapWorkload(t, snapModes[0])
	defer donor.Close()
	stepN(donor, 400)
	var s0 bytes.Buffer
	if err := donor.Save(&s0); err != nil {
		t.Fatal(err)
	}
	// The donor advances 300 more cycles on its own; its chips then travel
	// in two frames, and the naive continuation is the reference.
	stepN(donor, 300)
	var s1 bytes.Buffer
	if err := donor.Save(&s1); err != nil {
		t.Fatal(err)
	}
	ranges := [][2]int{{0, 2}, {2, 4}}
	frames := make([][]byte, len(ranges))
	for k, rg := range ranges {
		var frame bytes.Buffer
		if err := donor.EncodeShard(&frame, rg[0], rg[1]); err != nil {
			t.Fatal(err)
		}
		frames[k] = frame.Bytes()
	}
	frameCycle := donor.Cycle
	traceD := &trace.Recorder{}
	donor.SetTrace(traceD)
	ran, err := donor.Run(500000)
	if err != nil {
		t.Fatal(err)
	}
	want := snapFingerprint(t, donor, ran) + traceText(traceD)

	// adopt installs both frames in peer and requires the adopted ranges to
	// re-encode to the donor's frames byte for byte — the bit-identity the
	// distributed checkpoint and final-digest assembly depend on.
	adopt := func(t *testing.T, peer *machine.Machine) {
		t.Helper()
		for k, rg := range ranges {
			f, err := peer.DecodeShard(frames[k], rg[0], rg[1])
			if err != nil {
				t.Fatal(err)
			}
			if f.Cycle != frameCycle {
				t.Fatalf("frame cycle %d, donor at %d", f.Cycle, frameCycle)
			}
			peer.AdoptShard(f)
		}
		if peer.Cycle != frameCycle {
			t.Fatalf("adopting left the clock at %d, frames at %d", peer.Cycle, frameCycle)
		}
		for k, rg := range ranges {
			var got bytes.Buffer
			if err := peer.EncodeShard(&got, rg[0], rg[1]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frames[k], got.Bytes()) {
				t.Fatalf("shard [%d,%d): adopted frame re-encodes differently", rg[0], rg[1])
			}
		}
	}

	// Every peer is caught mid-phase (stale due-set entries and deferred
	// bookkeeping) with its trace sink already installed.
	for _, mode := range snapModes[1:] {
		t.Run(mode.name, func(t *testing.T) {
			peer := buildSnapWorkload(t, mode)
			defer peer.Close()
			stepN(peer, 401)
			traceP := &trace.Recorder{}
			peer.SetTrace(traceP)

			// A peer of the same snapshot lineage, now stale.
			if err := peer.Restore(s0.Bytes()); err != nil {
				t.Fatal(err)
			}
			adopt(t, peer)

			// Running on needs the frames' network too: restore the donor's
			// full state, wreck the chips' registers, and let the frames put
			// them back.
			if err := peer.Restore(s1.Bytes()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < peer.NumNodes(); i++ {
				peer.Chip(i).Thread(0, 0).Ints.Set(5, isa.W(0xbad))
			}
			adopt(t, peer)
			ran, err := peer.Run(500000)
			if err != nil {
				t.Fatal(err)
			}
			if got := snapFingerprint(t, peer, ran) + traceText(traceP); got != want {
				t.Errorf("continuation after AdoptShard under %s diverged from the naive donor's:\n%.1500s\nvs\n%.1500s",
					mode.name, got, want)
			}
		})
	}
}

func TestShardFrameErrors(t *testing.T) {
	m := buildSnapWorkload(t, snapMode{name: "event"})
	defer m.Close()
	stepN(m, 100)
	var frame bytes.Buffer
	if err := m.EncodeShard(&frame, 1, 3); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := m.Save(&before); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
		lo   int
		hi   int
		want string
	}{
		{"range mismatch", frame.Bytes(), 0, 2, "covers"},
		{"bad magic", append([]byte("NOTAFRAM"), frame.Bytes()[8:]...), 1, 3, "magic"},
		{"truncated", frame.Bytes()[:frame.Len()/2], 1, 3, "truncated"},
		{"missing trailer", frame.Bytes()[:frame.Len()-8], 1, 3, ""},
	}
	for _, tc := range cases {
		_, err := m.DecodeShard(tc.data, tc.lo, tc.hi)
		if err == nil {
			t.Fatalf("%s: adopt succeeded", tc.name)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	var after bytes.Buffer
	if err := m.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("failed DecodeShard mutated the machine")
	}
}

// TestReadShardConfig: the configuration a shard frame carries is the
// encoding machine's, and a machine built from it adopts the frame — a
// dist worker's first seed.
func TestReadShardConfig(t *testing.T) {
	m := buildSnapWorkload(t, snapMode{name: "event"})
	defer m.Close()
	stepN(m, 100)
	var frame bytes.Buffer
	if err := m.EncodeShard(&frame, 1, 3); err != nil {
		t.Fatal(err)
	}
	cfg, err := machine.ReadShardConfig(frame.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dims != m.Cfg.Dims || cfg.Chip != m.Cfg.Chip {
		t.Fatal("ReadShardConfig does not match the encoding machine")
	}
	fresh := machine.New(cfg)
	defer fresh.Close()
	f, err := fresh.DecodeShard(frame.Bytes(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	fresh.AdoptShard(f)
	var again bytes.Buffer
	if err := fresh.EncodeShard(&again, 1, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame.Bytes(), again.Bytes()) {
		t.Fatal("a fresh machine's adopted frame re-encodes differently")
	}
	other := m.Cfg
	other.Chip.IntLat++
	wrong := machine.New(other)
	defer wrong.Close()
	if _, err := wrong.DecodeShard(frame.Bytes(), 1, 3); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Errorf("a frame of another configuration: error %v, want it refused", err)
	}
}

// TestShardRangeStepping: a transport that owns chips [lo, hi) and drives
// them the way the dist worker does — the machine's chip phase through
// StepRange, the clock assigned from outside and jumped over idle windows,
// the stepped chips' outboxes taken instead of injected — must pull the
// EncodeShard frame the naive reference produces for that range: the
// deferred idle accounting has to be materialized by the pull, for chips
// that never became due again as well.
func TestShardRangeStepping(t *testing.T) {
	const nodes, lo, hi, cycles = 4, 1, 3, 3000
	build := func() *machine.Machine {
		m, _ := newMachine(t, nodes, rt.Options{})
		for i := 0; i < nodes; i++ {
			// Node-local work only (no chip outside the range steps here, so
			// nothing could answer a message): strided loads over the node's
			// own home range, i.e. LTLB misses, cache misses and the stall
			// cycles between them; node 2 halts early and idles.
			loadUser(t, m, i, 0, 0, fmt.Sprintf(`
    movi i1, #%d
    movi i2, #0
    movi i3, #%d
loop:
    ld i4, [i1]
    add i5, i5, i4
    st [i1+1], i5
    add i1, i1, #129
    add i2, i2, #1
    lt i6, i2, i3
    brt i6, loop
    halt
`, i*4096, 6+18*(i%2)))
		}
		return m
	}
	ref := build()
	defer ref.Close()
	for ref.Cycle < cycles {
		ref.StepAll()
	}

	w := build()
	defer w.Close()
	for i := lo; i < hi; i++ {
		w.Chip(i).Touch()
	}
	var stepped []int
	var out []*noc.Message
	steps, jumps := 0, 0
	for w.Cycle < cycles {
		now := w.Cycle
		stepped = w.StepRange(lo, hi, now, stepped[:0])
		for _, i := range stepped {
			out = w.Chip(i).TakeOutbox(out)
		}
		steps += len(stepped)
		w.Cycle = now + 1
		// The coordinator's fast-forward, from the range's activity report.
		if _, next, _ := w.ShardActivity(lo, hi, w.Cycle); next > w.Cycle {
			w.Cycle = min(next, cycles)
			jumps++
		}
	}
	if len(out) != 0 {
		t.Fatalf("workload sent %d messages; it is meant to be node-local", len(out))
	}
	if steps == 0 || steps >= (hi-lo)*cycles/2 || jumps == 0 {
		t.Fatalf("%d chip steps, %d clock jumps over %d cycles: the run deferred nothing", steps, jumps, cycles)
	}
	var want, got bytes.Buffer
	if err := ref.EncodeShard(&want, lo, hi); err != nil {
		t.Fatal(err)
	}
	if err := w.EncodeShard(&got, lo, hi); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("range stepped through StepRange encodes differently from the naive reference")
	}
	for i := lo; i < hi; i++ {
		if th := w.Chip(i).Thread(0, 0); th.StallCycles == 0 || th.Status != ref.Chip(i).Thread(0, 0).Status {
			t.Errorf("node %d: stalls %d, status %v vs reference %v", i, th.StallCycles, th.Status, ref.Chip(i).Thread(0, 0).Status)
		}
	}
}
