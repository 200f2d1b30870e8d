package repro_test

// A run's own cycle bound, met on every front end: the failure class is
// the one vocabulary msim's exit codes (in process or sharded) and msimd's
// failure_class are all read from, so the same "no completion within N
// cycles" must be the same verdict wherever it happens.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/serve"
)

// TestPhaseBoundSameOnEveryFrontEnd runs a bound too short for its program
// through msim -cycles, msim -workload, msim -shards 2 -workload and an
// msimd session: the CLIs exit 3 and the session fails with class budget.
func TestPhaseBoundSameOnEveryFrontEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the CLIs")
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/msim").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	text, err := os.ReadFile(filepath.Join("testdata", "workloads", "loopsync2.wl"))
	if err != nil {
		t.Fatal(err)
	}
	src := strings.Replace(string(text), "\nrun ITERS*200+10000\n", "\nrun 50\n", 1)
	if src == string(text) {
		t.Fatal("loopsync2.wl no longer has the run step this test shortens")
	}
	wl := filepath.Join(t.TempDir(), "short.wl")
	if err := os.WriteFile(wl, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{
		{"msim", "-cycles", "50", filepath.Join("testdata", "fib.masm")},
		{"msim", "-workload", wl},
		{"msim", "-shards", "2", "-workload", wl},
	} {
		cmd := exec.Command(filepath.Join(bin, args[0]), args[1:]...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 3 || !strings.Contains(stderr.String(), "no completion within 50 cycles") {
			t.Errorf("%s: %v, stderr %q; want exit 3 for the run's own bound", strings.Join(args, " "), err, stderr.String())
		}
	}

	sv, err := serve.New(serve.Config{Spool: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Drain()
	s, err := sv.Submit("short.wl", src)
	if err != nil {
		t.Fatal(err)
	}
	<-s.Done()
	if info := s.Info(); info.State != serve.StateFailed || info.FailureClass != guard.ClassBudget {
		t.Errorf("msimd session: state %s, class %q (%s); want failed with class %q",
			info.State, info.FailureClass, info.Failure, guard.ClassBudget)
	}
}
