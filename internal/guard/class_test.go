package guard_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/guard"
	"repro/internal/machine"
)

// TestClassify is the supervision taxonomy in one table: every class, as
// each layer raises it — guard's *Failure (bare and as Do produces it), the errors the session service passes through or
// wraps, the coordinator's shard failures (bare and as the terminal
// recovery-cap error wraps them) — and which of them a retry can get
// past.
func TestClassify(t *testing.T) {
	m := newM(t, 1, 0)
	load(t, m, 0, spinSrc)
	crashed := guard.New(m, guard.Options{}).Do(func() error { panic("boom") })
	budgeted := func() error {
		_, err := guard.New(m, guard.Options{CycleBudget: 100}).Run(1 << 20)
		return err
	}()
	timedOut := guard.New(m, guard.Options{Timeout: time.Millisecond}).Do(func() error {
		_, err := m.Run(1 << 40)
		return err
	})
	release := make(chan struct{})
	defer close(release)
	hung := guard.New(newM(t, 1, 0), guard.Options{Timeout: time.Millisecond, Grace: time.Millisecond}).Do(func() error {
		<-release
		return nil
	})
	shard := func(c guard.Class) error {
		return &dist.ShardFailure{Shard: 1, Class: c, Cycle: 7, Err: errors.New("x")}
	}

	cases := []struct {
		name      string
		err       error
		want      guard.Class
		transient bool
	}{
		// guard
		{"guard: contained panic out of Do", crashed, guard.ClassCrash, true},
		{"guard: budget exhausted in RunPhase", budgeted, guard.ClassBudget, false},
		{"guard: wall deadline, stop answered", timedOut, guard.ClassStallTimeout, true},
		{"guard: wall deadline, stop ignored", hung, guard.ClassStallHang, true},
		// serve
		{"serve: failed expectation with its source position",
			fmt.Errorf("s.wl:6:1: expect reg: node 0 vthread 0 cluster 0 i1 = 10, want 11"), guard.ClassScenario, false},
		{"serve: phase outran its own bound",
			fmt.Errorf("s.wl:5:1: %w", fmt.Errorf("machine: %w within 10 cycles", machine.ErrCycleLimit)), guard.ClassBudget, false},
		{"serve: retries exhausted keeps the cause's class",
			fmt.Errorf("%w (retries exhausted after 4 attempts)", crashed), guard.ClassCrash, true},
		// dist
		{"dist: worker reported a panic", shard(guard.ClassCrash), guard.ClassCrash, true},
		{"dist: worker missed the window deadline", shard(guard.ClassStallTimeout), guard.ClassStallTimeout, true},
		{"dist: worker connection died", shard(guard.ClassLost), guard.ClassLost, true},
		{"dist: recovery cap tripped names its cause",
			fmt.Errorf("dist: recovery limit 8 exhausted: %w", shard(guard.ClassLost)), guard.ClassLost, true},
		{"dist: budget through the coordinator", &guard.Failure{Class: guard.ClassBudget, Cycle: 100, Budget: 100}, guard.ClassBudget, false},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: the setup produced no error", c.name)
			continue
		}
		got := guard.Classify(c.err)
		if got != c.want || got.Transient() != c.transient {
			t.Errorf("%s: Classify(%v) = %q (transient %v), want %q (transient %v)",
				c.name, c.err, got, got.Transient(), c.want, c.transient)
		}
	}

	// The class strings are wire format: msimd's failure_class, msim
	// -shards' failure table.
	for c, want := range map[guard.Class]string{
		guard.ClassCrash: "crash", guard.ClassStallTimeout: "stall-timeout", guard.ClassStallHang: "stall-hang",
		guard.ClassLost: "lost", guard.ClassBudget: "budget", guard.ClassScenario: "scenario",
	} {
		if string(c) != want {
			t.Errorf("class %q renamed; the wire string is %q", c, want)
		}
	}
}

// TestExitCodeFollowsClass: the CLIs' exit code is a function of the
// failure class msimd reports (guard.Classify), wrapped or not, so the
// three cannot disagree about what kind of failure a run ended in. msim
// exits through guard.ExitCode; the dist rows are what msim -shards sees
// when a shard failure outlives the recovery cap.
func TestExitCodeFollowsClass(t *testing.T) {
	shard := func(c guard.Class) error { return &dist.ShardFailure{Class: c, Err: errors.New("x")} }
	capped := func(c guard.Class) error {
		return fmt.Errorf("dist: recovery limit 2 exhausted: %w", shard(c))
	}
	for _, tc := range []struct {
		err  error
		want int
	}{
		{errors.New("expect failed"), 1},
		{fmt.Errorf("machine: %w within 5 cycles", machine.ErrCycleLimit), 3},
		{&guard.Failure{Class: guard.ClassStallTimeout}, 3},
		{&guard.Failure{Class: guard.ClassStallHang}, 3},
		{fmt.Errorf("phase p: %w", &guard.Failure{Class: guard.ClassBudget}), 3},
		{&guard.Failure{Class: guard.ClassCrash, Value: "boom"}, 4},
		{shard(guard.ClassLost), 4},
		{shard(guard.ClassStallTimeout), 3},
		{capped(guard.ClassCrash), 4},
		{capped(guard.ClassLost), 4},
		{capped(guard.ClassStallTimeout), 3},
		{capped(guard.ClassStallHang), 3},
	} {
		if got := guard.ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d (class %s)", tc.err, got, tc.want, guard.Classify(tc.err))
		}
	}
}
