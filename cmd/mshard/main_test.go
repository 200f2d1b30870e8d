package main

// The mshard binary end to end: over two shard worker processes a
// scenario ends on the digest Scenario.Run reports in process, and a
// scenario's wall-clock deadline is a watchdog cutoff (exit 3), as under
// msim.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestShardedRunDigestAndDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := filepath.Join(t.TempDir(), "mshard")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	path := filepath.Join("..", "..", "testdata", "workloads", "meshsmooth4.wl")
	sc, err := core.ScenarioFromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sc.Run(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-shards", "2", path).Output()
	if err != nil {
		t.Fatalf("mshard -shards 2 %s: %v\n%s", path, err, out)
	}
	if !strings.Contains(string(out), "digest: "+ref.Digest+"\n") {
		t.Errorf("mshard output lacks the in-process digest %s:\n%s", ref.Digest, out)
	}

	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	late := filepath.Join(t.TempDir(), "deadline.wl")
	if err := os.WriteFile(late, []byte(strings.Replace(string(text), "\nmesh 4\n", "\nmesh 4\ndeadline 1ms\n", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-shards", "2", late)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 || !strings.Contains(stderr.String(), "deadline") {
		t.Errorf("mshard on a 1ms deadline: %v, stderr %q; want exit 3 and a deadline cutoff", err, stderr.String())
	}
}
