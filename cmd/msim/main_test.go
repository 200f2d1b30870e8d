package main

// Flag-validation tests: the -workload exclusivity matrix as a unit test
// over workloadFlagConflict, and the msim binary end-to-end asserting
// the documented exit codes (2 for usage errors, 0 for a valid run).

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestWorkloadFlagConflict(t *testing.T) {
	// Model msim's flag surface on a private FlagSet so the test can
	// choose what was "explicitly set" without touching flag.CommandLine.
	newSet := func(args ...string) *flag.FlagSet {
		fs := flag.NewFlagSet("msim", flag.PanicOnError)
		fs.Int("nodes", 2, "")
		fs.Int("node", 0, "")
		fs.Int("vthread", 0, "")
		fs.Int("cluster", 0, "")
		fs.Int64("cycles", 1_000_000, "")
		fs.Bool("caching", false, "")
		fs.String("save", "", "")
		fs.String("restore", "", "")
		fs.Bool("naive", false, "")
		fs.Int("workers", 0, "")
		fs.Bool("trace", false, "")
		fs.Duration("timeout", 0, "")
		fs.String("crash-dump", "", "")
		fs.String("workload", "", "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "s.wl"}, ""},
		{[]string{"-workload", "s.wl", "-restore", "m.snap"}, "restore"},
		{[]string{"-workload", "s.wl", "-save", "m.snap"}, "save"},
		{[]string{"-workload", "s.wl", "-nodes", "4"}, "nodes"},
		{[]string{"-workload", "s.wl", "-cycles", "99"}, "cycles"},
		{[]string{"-workload", "s.wl", "-caching"}, "caching"},
		{[]string{"-workload", "s.wl", "-vthread", "1", "-cluster", "2"}, "cluster"}, // Visit walks lexically
		// The engine and supervision flags stay compatible.
		{[]string{"-workload", "s.wl", "-naive", "-workers", "2", "-trace", "-timeout", "1s", "-crash-dump", "d"}, ""},
	} {
		fs := newSet(tc.args...)
		if got := workloadFlagConflict(fs.Visit); got != tc.want {
			t.Errorf("workloadFlagConflict(%v) = %q, want %q", tc.args, got, tc.want)
		}
	}
}

func buildMsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "msim")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func TestUsageErrorsExitTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildMsim(t)
	wl := filepath.Join(t.TempDir(), "spin.wl")
	src := "workload \"spin\"\nmesh 1\ngenerate sp spinloop iters=10\nload sp on node 0\nrun 1000\n"
	if err := os.WriteFile(wl, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-workload", wl, "-restore", "m.snap"}, "-restore does not combine with -workload"},
		{[]string{"-workload", wl, "-save", "m.snap"}, "-save does not combine with -workload"},
		{[]string{"-workload", wl, "-nodes", "4"}, "-nodes does not combine with -workload"},
		{[]string{"-workload", wl, "prog.masm"}, "positional program argument"},
		{[]string{"-vthread", "9", "prog.masm"}, "-vthread 9 outside"},
		{[]string{"-node", "5", "prog.masm"}, "-node 5 outside"},
	} {
		cmd := exec.Command(bin, tc.args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("msim %v: err %v, want exit 2 (stderr: %s)", tc.args, err, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), tc.wantErr) {
			t.Errorf("msim %v stderr = %q, want substring %q", tc.args, stderr.String(), tc.wantErr)
		}
		if !strings.Contains(stderr.String(), "msim -h") {
			t.Errorf("msim %v stderr lacks the usage hint: %q", tc.args, stderr.String())
		}
	}

	// The compatible combination runs the scenario and exits 0.
	out, err := exec.Command(bin, "-naive", "-timeout", "30s", "-workload", wl).CombinedOutput()
	if err != nil {
		t.Fatalf("msim -naive -timeout 30s -workload: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), fmt.Sprintf("workload: %s", "spin")) {
		t.Errorf("workload run output: %s", out)
	}
}
