package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/machine"
)

// spinScenario is a tiny deterministic scenario: a counting loop of
// iters iterations (roughly 3.5 cycles each) with a register check.
func spinScenario(iters int) string {
	return fmt.Sprintf(`workload "spin%d"
mesh 1
generate sp spinloop iters=%d
load sp on node 0
run 1000000
expect reg node=0 cluster=0 reg=1 value=%d
`, iters, iters, iters)
}

// testConfig is a fast-everything server config over a temp spool.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Spool:           t.TempDir(),
		Workers:         2,
		Queue:           64,
		DefaultWall:     30 * time.Second,
		DefaultCycles:   1 << 20,
		CheckpointEvery: 256,
		Retries:         3,
		Backoff:         time.Millisecond,
		BackoffCap:      10 * time.Millisecond,
		Logf:            t.Logf,
	}
}

func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	sv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sv.Drain)
	return sv
}

func waitDone(t *testing.T, s *Session) Info {
	t.Helper()
	select {
	case <-s.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("session %s did not reach a terminal state (state %s)", s.ID, s.Info().State)
	}
	return s.Info()
}

func TestSubmitAndComplete(t *testing.T) {
	sv := mustServer(t, testConfig(t))
	s, err := sv.Submit("spin.wl", spinScenario(600))
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, s)
	if info.State != StateDone {
		t.Fatalf("state %s, failure %q (%s)", info.State, info.Failure, info.FailureClass)
	}
	if info.Checks != 1 || len(info.Phases) != 1 {
		t.Errorf("checks %d, phases %d; want 1, 1", info.Checks, len(info.Phases))
	}
	if info.TotalCycles < 600 {
		t.Errorf("total cycles %d, want >= 600 (chaos tests rely on this)", info.TotalCycles)
	}
	if info.Digest == "" {
		t.Error("no final-state digest")
	}
	if _, err := os.Stat(ckptPath(sv.cfg.Spool, s.ID)); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after completion: %v", err)
	}
}

// digestOf runs a scenario to completion on sv and returns its digest.
func digestOf(t *testing.T, sv *Server, name, src string) Info {
	t.Helper()
	s, err := sv.Submit(name, src)
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, s)
	if info.State != StateDone {
		t.Fatalf("%s: state %s, failure %q (%s)", name, info.State, info.Failure, info.FailureClass)
	}
	if info.Digest == "" {
		t.Fatalf("%s: no digest", name)
	}
	return info
}

// TestCrashRecoveryBitIdentical is the chaos recovery proof at unit
// scale: a session with an injected worker panic must complete after
// retry with a final-state digest identical to a chaos-free control run.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	src := spinScenario(600)

	control := mustServer(t, testConfig(t))
	want := digestOf(t, control, "spin.wl", src)

	cfg := testConfig(t)
	cfg.Chaos = &Chaos{Seed: 42, PanicEvery: 1, MaxCycle: 500}
	chaotic := mustServer(t, cfg)
	got := digestOf(t, chaotic, "spin.wl", src)

	if got.Retries == 0 {
		t.Fatal("chaos session completed without retrying — the injected panic never fired")
	}
	if got.FailureClass != guard.ClassCrash {
		t.Errorf("failure class %q, want %q", got.FailureClass, guard.ClassCrash)
	}
	if got.Digest != want.Digest {
		t.Errorf("recovered digest %s != control %s", got.Digest, want.Digest)
	}
	if got.TotalCycles != want.TotalCycles || got.Checks != want.Checks {
		t.Errorf("recovered run: %d cycles %d checks; control: %d cycles %d checks",
			got.TotalCycles, got.Checks, want.TotalCycles, want.Checks)
	}
}

// TestStallRecoveryBitIdentical injects a wall-clock stall that trips
// the per-attempt deadline; the retry runs clean and must match the
// control digest.
func TestStallRecoveryBitIdentical(t *testing.T) {
	src := spinScenario(600)

	control := mustServer(t, testConfig(t))
	want := digestOf(t, control, "spin.wl", src)

	cfg := testConfig(t)
	cfg.DefaultWall = 300 * time.Millisecond
	cfg.Grace = 5 * time.Second // stalled step returns within grace: clean stall-timeout
	cfg.Chaos = &Chaos{Seed: 7, StallEvery: 1, StallDelay: time.Second, MaxCycle: 500}
	chaotic := mustServer(t, cfg)
	got := digestOf(t, chaotic, "spin.wl", src)

	if got.Retries == 0 {
		t.Fatal("stalled session completed without retrying")
	}
	if got.FailureClass != guard.ClassStallTimeout {
		t.Errorf("failure class %q, want %q", got.FailureClass, guard.ClassStallTimeout)
	}
	if got.Digest != want.Digest {
		t.Errorf("recovered digest %s != control %s", got.Digest, want.Digest)
	}
}

// TestHangRecovery drives the grace-expired path: the stalled step
// outlives the grace, the machine is abandoned (never Closed), and the
// retry still converges to the control digest.
func TestHangRecovery(t *testing.T) {
	src := spinScenario(600)

	control := mustServer(t, testConfig(t))
	want := digestOf(t, control, "spin.wl", src)

	// DefaultWall + Grace < StallDelay: the first attempt is still wedged in
	// the stalled step when the grace expires, so it is a hang. The wall
	// leaves the chaos-free retry's 600-cycle spin room under -race.
	cfg := testConfig(t)
	cfg.DefaultWall = 400 * time.Millisecond
	cfg.Grace = 50 * time.Millisecond // expires while the probe still sleeps
	cfg.Chaos = &Chaos{Seed: 11, StallEvery: 1, StallDelay: 700 * time.Millisecond, MaxCycle: 500}
	chaotic := mustServer(t, cfg)
	got := digestOf(t, chaotic, "spin.wl", src)

	if got.Retries == 0 {
		t.Fatal("hung session completed without retrying")
	}
	if got.FailureClass != guard.ClassStallHang {
		t.Errorf("failure class %q, want %q", got.FailureClass, guard.ClassStallHang)
	}
	if got.Digest != want.Digest {
		t.Errorf("recovered digest %s != control %s", got.Digest, want.Digest)
	}
}

// TestNoCrossSessionInterference runs chaos-doomed sessions next to
// clean ones: every session, faulted or not, must finish with the digest
// of its chaos-free control. The small case crashes two of three; the
// full-mode case floods the pool with 28 concurrent sessions under mixed
// panic/stall chaos and must see both kinds of recovery, or it proved
// nothing.
func TestNoCrossSessionInterference(t *testing.T) {
	type chaosCase struct {
		name            string
		sessions        int
		chaos           Chaos
		wall            time.Duration // session deadline
		crashes, stalls int           // minimum recoveries of each kind
	}
	cases := []chaosCase{
		{"three", 3, Chaos{Seed: 3, PanicEvery: 2, MaxCycle: 250}, 30 * time.Second, 1, 0}, // seqs 2, 4 panic
	}
	if !testing.Short() {
		// Every 3rd admission panics and every 7th stalls past the
		// (shortened) deadline; an admission divisible by both panics.
		cases = append(cases, chaosCase{"mixed", 28,
			Chaos{Seed: 1234, PanicEvery: 3, StallEvery: 7, StallDelay: time.Second, MaxCycle: 600},
			300 * time.Millisecond, 1, 1})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := func(i int) (string, string) { return fmt.Sprintf("c%d.wl", i), spinScenario(300 + 40*i) }
			cfg := testConfig(t)
			cfg.Workers = 8
			control := mustServer(t, cfg)
			var want []Info
			for i := 0; i < c.sessions; i++ {
				name, text := src(i)
				want = append(want, digestOf(t, control, name, text))
			}

			cfg = testConfig(t)
			cfg.Workers = 8
			cfg.Grace = 5 * time.Second // a stalled step returns within grace
			cfg.DefaultWall = c.wall
			cfg.Chaos = &c.chaos
			chaotic := mustServer(t, cfg)
			var sessions []*Session
			for i := 0; i < c.sessions; i++ {
				name, text := src(i)
				s, err := chaotic.Submit(name, text)
				if err != nil {
					t.Fatal(err)
				}
				sessions = append(sessions, s)
			}
			crashed, stalled := 0, 0
			for i, s := range sessions {
				info := waitDone(t, s)
				if info.State != StateDone {
					t.Fatalf("session %d: %s (%s: %s)", i, info.State, info.FailureClass, info.Failure)
				}
				if info.Retries > 0 {
					switch info.FailureClass {
					case guard.ClassCrash:
						crashed++
					case guard.ClassStallTimeout, guard.ClassStallHang:
						stalled++
					}
				}
				if info.Digest != want[i].Digest {
					t.Errorf("session %d digest %s != control %s", i, info.Digest, want[i].Digest)
				}
			}
			if crashed < c.crashes || stalled < c.stalls {
				t.Errorf("%d crash and %d stall recoveries, want at least %d and %d; the interference test proved nothing",
					crashed, stalled, c.crashes, c.stalls)
			}
		})
	}
}

func TestAdmissionControl(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxNodes = 4
	cfg.MaxCycles = 1 << 20
	cfg.MaxWall = time.Minute
	sv := mustServer(t, cfg)

	reject := func(name, src, code string) {
		t.Helper()
		_, err := sv.Submit(name, src)
		var rej *Rejection
		if err == nil {
			t.Errorf("%s: admitted, want %s rejection", name, code)
			return
		}
		if ok := asRejection(err, &rej); !ok || rej.Code != code {
			t.Errorf("%s: error %v, want code %s", name, err, code)
		}
	}
	reject("parse", "workload \"x\"\nmesh 1\nbogus directive\n", "parse")
	reject("mesh", "workload \"x\"\nmesh 8\ngenerate sp spinloop iters=4\nload sp on node 0\nrun 100\n", "over-cap")
	reject("budget", "workload \"x\"\nmesh 1\nbudget 99999999999\ngenerate sp spinloop iters=4\nload sp on node 0\nrun 100\n", "over-cap")
	reject("deadline", "workload \"x\"\nmesh 1\ndeadline 50m\ngenerate sp spinloop iters=4\nload sp on node 0\nrun 100\n", "over-cap")
}

func asRejection(err error, out **Rejection) bool {
	r, ok := err.(*Rejection)
	if ok {
		*out = r
	}
	return ok
}

func TestQueueSheds(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.Queue = 1
	// Make the one worker slow so submissions pile up.
	src := spinScenario(50000)
	sv := mustServer(t, cfg)
	var rejected bool
	for i := 0; i < 20; i++ {
		_, err := sv.Submit(fmt.Sprintf("q%d.wl", i), src)
		var rej *Rejection
		if asRejection(err, &rej) {
			if rej.Code != "busy" {
				t.Fatalf("rejection %v, want busy", err)
			}
			if rej.RetryAfter <= 0 {
				t.Error("busy rejection without a Retry-After hint")
			}
			rejected = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !rejected {
		t.Error("20 submissions into a 1-deep queue never shed load")
	}
	if sv.Stats().Shed == 0 {
		t.Error("shed counter not bumped")
	}
}

func TestCancel(t *testing.T) {
	sv := mustServer(t, testConfig(t))
	s, err := sv.Submit("spin.wl", spinScenario(200000))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel() {
		t.Fatal("cancel rejected")
	}
	info := waitDone(t, s)
	if info.State != StateCanceled {
		t.Fatalf("state %s, want canceled", info.State)
	}
	if _, err := os.Stat(ckptPath(sv.cfg.Spool, s.ID)); !os.IsNotExist(err) {
		t.Error("canceled session left its checkpoint in the spool")
	}
	if s.Cancel() {
		t.Error("cancel of a terminal session accepted")
	}
}

// TestDrainSuspendsAndReAdopts is the drain/restart contract: drain
// checkpoints in-flight sessions as suspended, a new server over the
// same spool re-adopts them, and the resumed result is bit-identical to
// an uninterrupted run.
func TestDrainSuspendsAndReAdopts(t *testing.T) {
	src := spinScenario(20000)

	control := mustServer(t, testConfig(t))
	want := digestOf(t, control, "spin.wl", src)

	cfg := testConfig(t)
	cfg.Workers = 1
	sv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := sv1.Submit("spin.wl", src)
	if err != nil {
		t.Fatal(err)
	}
	// Give the session time to advance past at least one checkpoint, then
	// drain mid-run.
	deadline := time.Now().Add(10 * time.Second)
	for len(s1.Info().Phases) == 0 && s1.Info().State != StateDone && time.Now().Before(deadline) {
		if ck, err := readCheckpoint(ckptPath(cfg.Spool, s1.ID)); err == nil && len(ck.Machine) > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sv1.Drain()
	info := s1.Info()
	if info.State == StateDone {
		t.Skip("session finished before the drain landed; nothing to suspend")
	}
	if info.State != StateSuspended {
		t.Fatalf("after drain: state %s, want suspended", info.State)
	}
	ck, err := readCheckpoint(ckptPath(cfg.Spool, s1.ID))
	if err != nil {
		t.Fatalf("suspended session has no readable checkpoint: %v", err)
	}
	if ck.ID != s1.ID {
		t.Fatalf("checkpoint identity %s, want %s", ck.ID, s1.ID)
	}

	// Refusal while draining.
	if _, err := sv1.Submit("late.wl", src); err == nil {
		t.Error("submission accepted while draining")
	}

	// Boot a second server over the same spool: the session must be
	// re-adopted and run to a bit-identical completion.
	sv2 := mustServer(t, cfg)
	if sv2.Stats().Adopted != 1 {
		t.Fatalf("adopted %d sessions, want 1", sv2.Stats().Adopted)
	}
	s2, ok := sv2.Get(s1.ID)
	if !ok {
		t.Fatalf("re-adopted session %s not found", s1.ID)
	}
	got := waitDone(t, s2)
	if got.State != StateDone {
		t.Fatalf("resumed session: %s (%s: %s)", got.State, got.FailureClass, got.Failure)
	}
	if got.Digest != want.Digest {
		t.Errorf("resumed digest %s != control %s", got.Digest, want.Digest)
	}
	if got.TotalCycles != want.TotalCycles {
		t.Errorf("resumed cycles %d != control %d", got.TotalCycles, want.TotalCycles)
	}
}

func TestBudgetExhaustionPermanent(t *testing.T) {
	cfg := testConfig(t)
	sv := mustServer(t, cfg)
	src := "workload \"over\"\nmesh 1\nbudget 100\ngenerate sp spinloop iters=100000\nload sp on node 0\nrun 900000\n"
	s, err := sv.Submit("over.wl", src)
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, s)
	if info.State != StateFailed || info.FailureClass != guard.ClassBudget {
		t.Fatalf("state %s class %s, want failed/%s (failure %q)",
			info.State, info.FailureClass, guard.ClassBudget, info.Failure)
	}
	if info.Retries != 0 {
		t.Errorf("budget exhaustion was retried %d times; it is permanent", info.Retries)
	}
}

// TestBudgetExactAcrossResume: a session's cycle budget is global across
// its attempts and cuts off at exactly the budget cycle, as under msim —
// after a retry from a mid-run checkpoint, and on an attempt that resumes
// at the budget cycle itself, which must fail at its next run phase
// rather than run unbounded.
func TestBudgetExactAcrossResume(t *testing.T) {
	wantCutoff := func(t *testing.T, info Info, budget int64) {
		t.Helper()
		want := fmt.Sprintf("exhausted at cycle %d", budget)
		if info.State != StateFailed || info.FailureClass != guard.ClassBudget || !strings.Contains(info.Failure, want) {
			t.Fatalf("state %s class %s failure %q; want failed/%s %q", info.State, info.FailureClass, info.Failure, guard.ClassBudget, want)
		}
	}

	t.Run("retried", func(t *testing.T) {
		const budget = 1000
		cfg := testConfig(t)
		cfg.Chaos = &Chaos{Seed: 42, PanicEvery: 1, MaxCycle: 500}
		sv := mustServer(t, cfg)
		src := strings.Replace(spinScenario(600), "\nmesh 1\n", fmt.Sprintf("\nmesh 1\nbudget %d\n", budget), 1)
		s, err := sv.Submit("spin.wl", src)
		if err != nil {
			t.Fatal(err)
		}
		info := waitDone(t, s)
		if info.Retries == 0 {
			t.Fatal("the injected panic never fired")
		}
		wantCutoff(t, info, budget)
	})

	t.Run("none left", func(t *testing.T) {
		const src = "workload \"twice\"\nmesh 2\ngenerate sp spinloop iters=600\nload sp on node 0\nrun 1000000\nload sp on node 1\nrun 1000000\n"
		sc, err := core.ScenarioFromDSL("twice.wl", src)
		if err != nil {
			t.Fatal(err)
		}
		// The first phase in process, then the checkpoint a drain at that
		// boundary leaves, with the budget at exactly its cycle.
		sim, err := sc.NewSim(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer sim.M.Close()
		run := sc.NewRun(sim)
		sup := guard.New(sim.M, guard.Options{})
		err = sup.Do(func() error {
			for len(run.Position().Phases) == 0 {
				if _, err := run.Advance(sup, 0); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var snapshot bytes.Buffer
		if err := sim.M.Save(&snapshot); err != nil {
			t.Fatal(err)
		}
		budget := sim.M.Cycle
		cfg := testConfig(t)
		err = writeCheckpoint(ckptPath(cfg.Spool, "s000001"), &checkpoint{
			ID: "s000001", Name: "twice.wl", Source: src,
			WallNanos: int64(30 * time.Second), CycleBudget: budget,
			Pos: run.Position(), Machine: snapshot.Bytes(),
		})
		if err != nil {
			t.Fatal(err)
		}

		// msim's verdict on the same budget.
		_, err = sc.Run(core.Options{Supervise: guard.Options{CycleBudget: budget}})
		if guard.Classify(err) != guard.ClassBudget || !strings.Contains(err.Error(), fmt.Sprintf("exhausted at cycle %d", budget)) {
			t.Fatalf("in process: %v; want the budget cut off at cycle %d", err, budget)
		}

		sv := mustServer(t, cfg)
		s, ok := sv.Get("s000001")
		if !ok {
			t.Fatal("checkpointed session not adopted")
		}
		wantCutoff(t, waitDone(t, s), budget)
	})
}

func TestScenarioFailurePermanent(t *testing.T) {
	sv := mustServer(t, testConfig(t))
	src := "workload \"bad\"\nmesh 1\ngenerate sp spinloop iters=10\nload sp on node 0\nrun 100000\nexpect reg node=0 cluster=0 reg=1 value=11\n"
	s, err := sv.Submit("bad.wl", src)
	if err != nil {
		t.Fatal(err)
	}
	info := waitDone(t, s)
	if info.State != StateFailed || info.FailureClass != guard.ClassScenario {
		t.Fatalf("state %s class %s, want failed/%s", info.State, info.FailureClass, guard.ClassScenario)
	}
	if !strings.Contains(info.Failure, "expect reg") {
		t.Errorf("failure %q does not name the failing expectation", info.Failure)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := ckptPath(dir, "s000042")
	loop := machine.NewLeg(5000)
	loop.Begin(777, machine.Activity{Issued: 99})
	want := &checkpoint{
		ID: "s000042", Name: "x.wl", Source: "workload \"x\"\nmesh 1\n",
		WallNanos: int64(time.Minute), CycleBudget: 123456, Retries: 2,
		Pos: core.Position{Next: 3, Loop: loop, Checks: 4,
			Phases: []core.PhaseResult{{Name: "a", Cycles: 10}, {Name: "b", Cycles: 20}}},
		Machine: []byte{1, 2, 3, 4, 5},
	}
	if err := writeCheckpoint(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Name != want.Name || got.Source != want.Source ||
		got.WallNanos != want.WallNanos || got.CycleBudget != want.CycleBudget ||
		got.Retries != want.Retries || got.Pos.Next != want.Pos.Next ||
		got.Pos.Loop != want.Pos.Loop || got.Pos.Checks != want.Pos.Checks ||
		!slices.Equal(got.Pos.Phases, want.Pos.Phases) || !bytes.Equal(got.Machine, want.Machine) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// Corruption is an error, not a panic or a half-read.
	b, _ := os.ReadFile(path)
	os.WriteFile(path, b[:len(b)-3], 0o644)
	if _, err := readCheckpoint(path); err == nil {
		t.Error("truncated checkpoint decoded without error")
	}
	os.WriteFile(path, []byte("not a checkpoint at all"), 0o644)
	if _, err := readCheckpoint(path); err == nil {
		t.Error("garbage checkpoint decoded without error")
	}
}

func TestParseChaos(t *testing.T) {
	c, err := ParseChaos("seed=9,panic=3,stall=5,delay=1500ms,maxcycle=2000")
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 9 || c.PanicEvery != 3 || c.StallEvery != 5 ||
		c.StallDelay != 1500*time.Millisecond || c.MaxCycle != 2000 {
		t.Fatalf("parsed %+v", c)
	}
	for _, bad := range []string{"panic", "panic=x", "wibble=1", "maxcycle=0"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("ParseChaos(%q) accepted", bad)
		}
	}
	// Determinism: same seq, same fault.
	p1, d1 := c.probe(3, 4)
	p2, d2 := c.probe(3, 4)
	if (p1 == nil) != (p2 == nil) || d1 != d2 {
		t.Errorf("probe derivation not deterministic: %q vs %q", d1, d2)
	}
	if _, d := c.probe(15, 4); !strings.Contains(d, "panic") {
		t.Errorf("seq 15 (both panic and stall multiples): %q, want panic-wins", d)
	}
}

// TestChaosSitesGolden pins the fault sites of one chaos configuration
// (TestNoCrossSessionInterference's seed and cadences): they are a pure
// function of (seed, admission number) through faultinject.SplitMix64,
// and must not move when the mixer's home does.
func TestChaosSitesGolden(t *testing.T) {
	c := &Chaos{Seed: 1234, PanicEvery: 3, StallEvery: 7, StallDelay: 3 * time.Second, MaxCycle: 600}
	for seq, want := range map[uint64]string{
		3:   "panic at node 3 from cycle 40",
		6:   "panic at node 0 from cycle 4",
		7:   "stall 3s at node 2 from cycle 280",
		14:  "stall 3s at node 3 from cycle 412",
		21:  "panic at node 2 from cycle 117",
		200: "",
	} {
		if _, got := c.probe(seq, 4); got != want {
			t.Errorf("admission %d: chaos site %q, want %q", seq, got, want)
		}
	}
}

// --- HTTP API ---

func TestHTTPAPI(t *testing.T) {
	sv := mustServer(t, testConfig(t))
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	// Health.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Submit via JSON.
	body, _ := json.Marshal(submitRequest{Name: "spin.wl", Source: spinScenario(600)})
	resp, err = http.Post(ts.URL+"/api/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || info.ID == "" {
		t.Fatalf("submit: %d, %+v", resp.StatusCode, info)
	}

	// Wait for completion.
	resp, err = http.Get(ts.URL + "/api/v1/sessions/" + info.ID + "/wait")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.State != StateDone || info.Digest == "" {
		t.Fatalf("wait: %+v", info)
	}

	// Stream of a finished session: replay ends with an "end" event.
	resp, err = http.Get(ts.URL + "/api/v1/sessions/" + info.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	var events []streamEvent
	dec := json.NewDecoder(resp.Body)
	for {
		var ev streamEvent
		if err := dec.Decode(&ev); err != nil {
			break
		}
		events = append(events, ev)
	}
	resp.Body.Close()
	if len(events) == 0 || events[len(events)-1].Event != "end" {
		t.Fatalf("stream events: %+v", events)
	}

	// Raw text submission.
	resp, err = http.Post(ts.URL+"/api/v1/sessions?name=raw.wl", "text/plain",
		strings.NewReader(spinScenario(300)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("raw submit: %d", resp.StatusCode)
	}

	// Parse errors are 400 with a positional message.
	resp, err = http.Post(ts.URL+"/api/v1/sessions", "text/plain", strings.NewReader("mesh mesh mesh"))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || apiErr.Code != "parse" {
		t.Fatalf("bad scenario: %d %+v", resp.StatusCode, apiErr)
	}

	// List includes both sessions.
	resp, err = http.Get(ts.URL + "/api/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list []Info
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 2 {
		t.Fatalf("list: %d sessions, want 2", len(list))
	}

	// 404.
	resp, err = http.Get(ts.URL + "/api/v1/sessions/nonesuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing session: %d", resp.StatusCode)
	}

	// Stats counted the work.
	resp, err = http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Submitted != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestHTTPCancelAndDrainStatus(t *testing.T) {
	sv := mustServer(t, testConfig(t))
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(submitRequest{Name: "spin.wl", Source: spinScenario(200000)})
	resp, err := http.Post(ts.URL+"/api/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info Info
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/sessions/"+info.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	s, _ := sv.Get(info.ID)
	if got := waitDone(t, s); got.State != StateCanceled {
		t.Fatalf("state %s, want canceled", got.State)
	}

	// Second cancel conflicts.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel: %d, want 409", resp.StatusCode)
	}

	// Drain flips health and refuses submissions with 503.
	sv.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/api/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
}

// TestSpoolQuarantine is the corrupt-spool regression test: a boot over
// a spool holding truncated, garbage, and wrongly-identified .ckpt files
// must quarantine each (rename to .bad, never delete — forensic
// evidence), count them, and still adopt and finish the healthy session.
func TestSpoolQuarantine(t *testing.T) {
	cfg := testConfig(t)
	src := spinScenario(100)

	good := &checkpoint{ID: "s000001", Name: "spin.wl", Source: src,
		WallNanos: int64(30 * time.Second), CycleBudget: 1 << 20}
	if err := writeCheckpoint(ckptPath(cfg.Spool, good.ID), good); err != nil {
		t.Fatal(err)
	}
	// Torn write: a valid checkpoint cut short mid-payload.
	var buf bytes.Buffer
	if err := writeCheckpoint(ckptPath(cfg.Spool, "s000002"), good); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(ckptPath(cfg.Spool, "s000002"))
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(whole[:20])
	if err := os.WriteFile(ckptPath(cfg.Spool, "s000002"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Garbage that is not a checkpoint at all.
	if err := os.WriteFile(ckptPath(cfg.Spool, "s000003"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A checkpoint whose internal identity disagrees with its file name.
	bad := *good
	bad.ID = "s000099"
	if err := writeCheckpoint(ckptPath(cfg.Spool, "s000004"), &bad); err != nil {
		t.Fatal(err)
	}

	sv := mustServer(t, cfg)
	st := sv.Stats()
	if st.Adopted != 1 || st.Quarantined != 3 {
		t.Fatalf("adopted %d quarantined %d, want 1 and 3", st.Adopted, st.Quarantined)
	}
	for _, id := range []string{"s000002", "s000003", "s000004"} {
		if _, err := os.Stat(ckptPath(cfg.Spool, id)); !os.IsNotExist(err) {
			t.Errorf("%s.ckpt still in the spool after quarantine", id)
		}
		if _, err := os.Stat(ckptPath(cfg.Spool, id) + ".bad"); err != nil {
			t.Errorf("%s.ckpt.bad missing: %v", id, err)
		}
	}
	s, ok := sv.Get("s000001")
	if !ok {
		t.Fatal("healthy session not adopted")
	}
	info := waitDone(t, s)
	if info.State != StateDone {
		t.Fatalf("adopted session: %s (%s: %s)", info.State, info.FailureClass, info.Failure)
	}
}

// TestRetryObservability checks the recovery bookkeeping a crashed-then-
// recovered session exposes: attempt count, live backoff while retrying,
// the sticky last failure class, and the server's aggregate recovery
// counters.
func TestRetryObservability(t *testing.T) {
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.Backoff = 300 * time.Millisecond
	cfg.BackoffCap = 2 * time.Second
	cfg.Chaos = &Chaos{Seed: 42, PanicEvery: 1, MaxCycle: 500}
	sv := mustServer(t, cfg)

	s, err := sv.Submit("spin.wl", spinScenario(600))
	if err != nil {
		t.Fatal(err)
	}
	// Catch the session inside its first backoff window: state retrying
	// with a human-readable backoff duration.
	sawBackoff := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info := s.Info()
		if info.State == StateRetrying && info.Backoff != "" {
			sawBackoff = true
			break
		}
		if info.State.Terminal() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !sawBackoff {
		t.Error("never observed state=retrying with a backoff value")
	}

	info := waitDone(t, s)
	if info.State != StateDone {
		t.Fatalf("state %s (%s: %s)", info.State, info.FailureClass, info.Failure)
	}
	if info.Retries < 1 || info.Attempts < 2 {
		t.Errorf("retries %d attempts %d, want >= 1 and >= 2", info.Retries, info.Attempts)
	}
	if info.Attempts != info.Retries+1 {
		t.Errorf("attempts %d != retries %d + 1", info.Attempts, info.Retries)
	}
	if info.Backoff != "" {
		t.Errorf("backoff %q still set on a done session", info.Backoff)
	}
	if info.FailureClass != guard.ClassCrash {
		t.Errorf("last failure class %q, want %q (sticky after recovery)", info.FailureClass, guard.ClassCrash)
	}

	st := sv.Stats()
	if st.Retries < 1 || st.Recovered < 1 {
		t.Errorf("stats retries %d recovered %d, want >= 1 each", st.Retries, st.Recovered)
	}
	if st.Restores < 1 {
		t.Errorf("stats restores %d, want >= 1 (retry resumed from a boundary checkpoint)", st.Restores)
	}
}

// TestWaitReturnSeesStats: a terminal transition and its Stats counter
// are one critical section, so a client whose /wait has returned reads
// /stats that already count that session — for every terminal state, and
// for the recovered count of a session that got there through a retry.
func TestWaitReturnSeesStats(t *testing.T) {
	cfg := testConfig(t)
	cfg.Chaos = &Chaos{Seed: 42, PanicEvery: 3, MaxCycle: 500} // sessions 3 and 6 crash once
	sv := mustServer(t, cfg)
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	getJSON := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	// waitThenStats is the client sequence under test.
	waitThenStats := func(s *Session) (Info, Stats) {
		t.Helper()
		var info Info
		var st Stats
		getJSON("/api/v1/sessions/"+s.ID+"/wait", &info)
		getJSON("/api/v1/stats", &st)
		return info, st
	}

	const bad = "workload \"bad\"\nmesh 1\ngenerate sp spinloop iters=10\nload sp on node 0\nrun 100000\nexpect reg node=0 cluster=0 reg=1 value=11\n"
	var done, failed, recovered uint64
	for i := 1; i <= 8; i++ {
		src := spinScenario(600 + i)
		if i == 5 {
			src = bad
		}
		s, err := sv.Submit(fmt.Sprintf("s%d.wl", i), src)
		if err != nil {
			t.Fatal(err)
		}
		info, st := waitThenStats(s)
		switch info.State {
		case StateDone:
			done++
			if info.Retries > 0 {
				recovered++
			}
		case StateFailed:
			failed++
		default:
			t.Fatalf("session %d: /wait returned state %s", i, info.State)
		}
		if st.Done != done || st.Failed != failed || st.Recovered != recovered {
			t.Fatalf("after /wait of session %d (%s, %d retries): stats done %d failed %d recovered %d, want %d %d %d",
				i, info.State, info.Retries, st.Done, st.Failed, st.Recovered, done, failed, recovered)
		}
	}
	if failed != 1 || recovered == 0 {
		t.Fatalf("test exercised %d failed, %d recovered sessions; want 1 and >= 1", failed, recovered)
	}

	s, err := sv.Submit("long.wl", spinScenario(200000))
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel()
	if info, st := waitThenStats(s); info.State != StateCanceled || st.Canceled != 1 {
		t.Fatalf("after /wait of a canceled session: state %s, stats canceled %d", info.State, st.Canceled)
	}

	// Suspended is not terminal, but /wait answers it immediately too.
	s, err = sv.Submit("long.wl", spinScenario(200000))
	if err != nil {
		t.Fatal(err)
	}
	go sv.Drain()
	if info, st := waitThenStats(s); info.State != StateSuspended || st.Suspended != 1 {
		t.Fatalf("after /wait of a drained session: state %s, stats suspended %d", info.State, st.Suspended)
	}
}

// TestFailureClassJSON pins the failure_class strings of the session
// JSON: clients switch on them, so moving the taxonomy into guard must
// not change a byte.
func TestFailureClassJSON(t *testing.T) {
	for class, want := range map[guard.Class]string{
		guard.ClassCrash:        `"failure_class":"crash"`,
		guard.ClassStallTimeout: `"failure_class":"stall-timeout"`,
		guard.ClassStallHang:    `"failure_class":"stall-hang"`,
		guard.ClassBudget:       `"failure_class":"budget"`,
		guard.ClassScenario:     `"failure_class":"scenario"`,
	} {
		b, err := json.Marshal(Info{FailureClass: class})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(b, []byte(want)) {
			t.Errorf("class %s encodes as %s, want it to contain %s", class, b, want)
		}
	}
	if b, _ := json.Marshal(Info{}); bytes.Contains(b, []byte("failure_class")) {
		t.Errorf("a session that never failed encodes a failure_class: %s", b)
	}
}
