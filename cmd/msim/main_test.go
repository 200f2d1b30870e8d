package main

// Flag-validation tests: the -workload exclusivity matrix as a unit test
// over workloadFlagConflict, and the msim binary end-to-end asserting
// the documented exit codes (2 for usage errors, 0 for a valid run), in
// process and over shard worker processes (-shards).

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
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
		fs.Bool("trace", false, "")
		fs.Duration("timeout", 0, "")
		fs.String("crash-dump", "", "")
		fs.String("workload", "", "")
		fs.Int("shards", 0, "")
		fs.Int64("checkpoint-every", 4096, "")
		fs.String("drill-kill", "", "")
		fs.String("drill-hang", "", "")
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
		{[]string{"-workload", "s.wl", "-naive", "-trace", "-timeout", "1s", "-crash-dump", "d"}, ""},
		// -shards owns the engine; the distributed flags need -shards.
		{[]string{"-workload", "s.wl", "-shards", "2", "-trace", "-timeout", "1s", "-crash-dump", "d",
			"-checkpoint-every", "64", "-drill-kill", "0@9", "-drill-hang", "1@9"}, ""},
		{[]string{"-workload", "s.wl", "-shards", "2", "-naive"}, "naive"},
		{[]string{"-workload", "s.wl", "-shards", "2", "-nodes", "4"}, "nodes"},
		{[]string{"-workload", "s.wl", "-checkpoint-every", "64"}, "checkpoint-every"},
		{[]string{"-workload", "s.wl", "-drill-kill", "0@9"}, "drill-kill"},
	} {
		fs := newSet(tc.args...)
		if got, _ := workloadFlagConflict(fs.Visit); got != tc.want {
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

// runProgram runs msim on a two-node machine over the program src,
// returning its exit code and standard error.
func runProgram(t *testing.T, bin, src string) (int, string) {
	t.Helper()
	prog := filepath.Join(t.TempDir(), "prog.masm")
	if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runExit(t, bin, "-nodes", "2", prog)
	return code, stderr
}

// TestBadSendBodyExitsOne: a program whose SEND body runs outside the
// register file is a bad input file (exit 1, positioned assembly error),
// not a crashed run (a negative length) or one that stalls to its cycle
// bound (a length past i15).
func TestBadSendBodyExitsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildMsim(t)
	for _, n := range []string{"-1", "100"} {
		src := "    movi i1, #16\n    movi i2, #5\n    send i1, i2, i8, #" + n + "\n    halt\n"
		if code, stderr := runProgram(t, bin, src); code != 1 || !strings.Contains(stderr, "asm: line 3: send body") {
			t.Errorf("msim with send body length %s: exit %d, stderr %q; want exit 1 and a line 3 send body error", n, code, stderr)
		}
	}
}

// TestBadRecordExitsOne: likewise a TLBW/MRETRY record outside i0..i12,
// which would otherwise stall the privileged thread to the cycle bound
// (exit 3) or read the wrong register file.
func TestBadRecordExitsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildMsim(t)
	for _, src := range []string{"    movi i1, #1\n    mretry i14\n    halt\n", "    movi i1, #1\n    tlbw f2\n    halt\n"} {
		if code, stderr := runProgram(t, bin, src); code != 1 || !strings.Contains(stderr, "asm: line 2: ") || !strings.Contains(stderr, " record ") {
			t.Errorf("msim on %q: exit %d, stderr %q; want exit 1 and a line 2 record error", src, code, stderr)
		}
	}
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
		{[]string{"-nodes", "40000", "../../testdata/fib.masm"}, "-nodes 40000 outside"},
		{[]string{"-shards", "2", "../../testdata/fib.masm"}, "-shards runs a -workload scenario distributed"},
		{[]string{"-drill-kill", "0@9", "../../testdata/fib.masm"}, "-drill-kill runs a -workload scenario distributed"},
		{[]string{"-workload", wl, "-shards", "2", "-naive"}, "-naive does not combine with -shards"},
		{[]string{"-workload", wl, "-max-recoveries", "3"}, "-max-recoveries requires -shards"},
		{[]string{"-workload", wl, "-shards", "2", "-max-recoveries", "-1"}, "-max-recoveries -1 is not a count"},
		{[]string{"-workload", wl, "-shards", "2", "-window-timeout", "0"}, "-window-timeout 0s is not a deadline"},
		{[]string{"-workload", wl, "-shards", "2", "-window-timeout", "-1s"}, "-window-timeout -1s is not a deadline"},
		{[]string{"-workload", wl, "-drill-panic", "0@9"}, "-drill-panic requires -shards"},
		{[]string{"-gen-seed", "3", "-shards", "2"}, "-shards does not combine with -gen-seed"},
		// A drill that can never fire names itself: spin.wl has one node.
		{[]string{"-workload", wl, "-shards", "2", "-drill-panic", "5@100"}, "panic drill 5@100 can never fire"},
	} {
		code, _, stderr := runExit(t, bin, tc.args...)
		if code != 2 {
			t.Errorf("msim %v: exit %d, want 2 (stderr: %s)", tc.args, code, stderr)
			continue
		}
		if !strings.Contains(stderr, tc.wantErr) {
			t.Errorf("msim %v stderr = %q, want substring %q", tc.args, stderr, tc.wantErr)
		}
		if !strings.Contains(stderr, "msim -h") {
			t.Errorf("msim %v stderr lacks the usage hint: %q", tc.args, stderr)
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

// runExit runs bin with args, returning its exit code, standard output
// and standard error.
func runExit(t *testing.T, bin string, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), stdout.String(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stdout.String(), stderr.String()
}

// TestShardedRunDigestAndDeadline: over two shard worker processes a
// scenario ends on the digest an in-process run reports, and on the
// digest line msim prints for that in-process run; a scenario's
// wall-clock deadline is a watchdog cutoff (exit 3) there as in process.
func TestShardedRunDigestAndDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildMsim(t)
	path := filepath.Join("..", "..", "testdata", "workloads", "meshsmooth4.wl")
	sc, err := core.ScenarioFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sc.Run(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	line := "digest: " + ref.Digest + "\n"
	for _, args := range [][]string{{"-workload", path}, {"-shards", "2", "-workload", path}} {
		if code, out, stderr := runExit(t, bin, args...); code != 0 || !strings.Contains(out, line) {
			t.Errorf("msim %v: exit %d, want 0 and the in-process %q\n%s%s", args, code, line, out, stderr)
		}
	}

	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	late := filepath.Join(t.TempDir(), "deadline.wl")
	if err := os.WriteFile(late, []byte(strings.Replace(string(text), "\nmesh 4\n", "\nmesh 4\ndeadline 1ms\n", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	// Sharded only: launching the workers alone outlasts 1ms, where the
	// in-process run can finish inside it.
	if code, _, stderr := runExit(t, bin, "-shards", "2", "-workload", late); code != 3 || !strings.Contains(stderr, "deadline") {
		t.Errorf("msim -shards 2 on a 1ms deadline: exit %d, stderr %q; want exit 3 and a deadline cutoff", code, stderr)
	}
}

// TestShardedZeroRecoveries: -max-recoveries 0 means none, not the
// library's default cap, so the first shard failure ends the run with its
// class's exit code (a lost shard: 4).
func TestShardedZeroRecoveries(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildMsim(t)
	path := filepath.Join("..", "..", "testdata", "workloads", "redblack.wl")
	code, _, stderr := runExit(t, bin, "-shards", "2", "-max-recoveries", "0", "-drill-kill", "1@500", "-workload", path)
	if code != 4 || !strings.Contains(stderr, "recovery limit 0 exhausted") || !strings.Contains(stderr, "shard 1 lost") {
		t.Errorf("msim -shards 2 -max-recoveries 0 -drill-kill 1@500: exit %d, stderr %q; want exit 4 and shard 1 lost past a cap of 0", code, stderr)
	}
}

// TestShardedCheckpointCadence: -checkpoint-every is a literal cadence
// end to end. A two-node scenario whose one phase runs past 8 192 cycles
// takes its phase-entry checkpoint only at -checkpoint-every 0, one more
// per 1 000 cycles at 1000 and one more per 4 096 at the default; every
// run prints the in-process run's digest line.
func TestShardedCheckpointCadence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildMsim(t)
	wl := filepath.Join(t.TempDir(), "long.wl")
	src := "workload \"long spin\"\nmesh 2\ngenerate sp spinloop iters=3000\nload sp on all\nrun 100000\n"
	if err := os.WriteFile(wl, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := runExit(t, bin, "-workload", wl)
	digest := regexp.MustCompile(`(?m)^digest: \S+$`).FindString(out)
	phase := regexp.MustCompile(`(?m)^\s+phase phase0\s+(\d+) cycles$`).FindStringSubmatch(out)
	if code != 0 || digest == "" || phase == nil {
		t.Fatalf("msim -workload: exit %d, no digest or phase line\n%s%s", code, out, stderr)
	}
	cycles, err := strconv.ParseInt(phase[1], 10, 64)
	if err != nil || cycles <= 8192 {
		t.Fatalf("the phase runs %s cycles, want more than 8192 (two default cadences)", phase[1])
	}
	for _, c := range []struct {
		args  []string
		every int64 // 0: the phase-entry checkpoint only
	}{
		{[]string{"-checkpoint-every", "0"}, 0},
		{[]string{"-checkpoint-every", "1000"}, 1000},
		{nil, 4096},
	} {
		args := append(append([]string{"-shards", "2"}, c.args...), "-workload", wl)
		want := int64(1)
		if c.every > 0 {
			want += (cycles - 1) / c.every
		}
		code, out, stderr := runExit(t, bin, args...)
		line := fmt.Sprintf("supervision: %d checkpoint(s), 0 recover(ies)", want)
		if code != 0 || !strings.Contains(out, line) || !strings.Contains(out, digest+"\n") {
			t.Errorf("msim %v: exit %d; want 0, %q and the in-process %q\n%s%s", args, code, line, digest, out, stderr)
		}
	}
}

// TestShardedCrashDump: a sharded run gets msim's failure path — a run
// step too short for its program exits 3 with the cutoff diagnostic and
// writes the -crash-dump snapshot, byte-identical to the one the
// in-process engine writes for the same cutoff.
func TestShardedCrashDump(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildMsim(t)
	text, err := os.ReadFile(filepath.Join("..", "..", "testdata", "workloads", "loopsync2.wl"))
	if err != nil {
		t.Fatal(err)
	}
	src := strings.Replace(string(text), "\nrun ITERS*200+10000\n", "\nrun 50\n", 1)
	if src == string(text) {
		t.Fatal("loopsync2.wl no longer has the run step this test shortens")
	}
	dir := t.TempDir()
	wl := filepath.Join(dir, "short.wl")
	if err := os.WriteFile(wl, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := core.ScenarioFromFile(wl)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sc.NewSim(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	restored := s.M
	defer restored.Close()
	var dumps [][]byte
	for _, engine := range [][]string{{"-shards", "2"}, nil} {
		dump := filepath.Join(dir, fmt.Sprintf("dump%d.msnap", len(dumps)))
		args := append(engine, "-crash-dump", dump, "-workload", wl)
		code, _, stderr := runExit(t, bin, args...)
		if code != 3 || !strings.Contains(stderr, "no completion within 50 cycles") ||
			!strings.Contains(stderr, "machine state at cutoff") || !strings.Contains(stderr, "crash dump written to "+dump) {
			t.Fatalf("msim %v: exit %d, stderr %q; want exit 3, the cutoff diagnostic and the dump", args, code, stderr)
		}
		b, err := os.ReadFile(dump)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(b); err != nil {
			t.Fatalf("msim %v: the crash dump is not a snapshot of the scenario's machine: %v", args, err)
		}
		dumps = append(dumps, b)
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Error("the sharded run's crash dump differs from the in-process run's")
	}
}
