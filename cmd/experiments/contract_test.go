package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/contract.sha256 from this build's output")

// The output contract: the reduced-scale run of every experiment prints
// exactly the bytes whose digest is committed in testdata/contract.sha256.
// A change that moves the output on purpose is a declared output move: it
// re-records the digest with -update and says so.
func TestOutputContract(t *testing.T) {
	checkContract(t, map[string][]byte{
		"run-all": runMain(t, "-link", "20e6", "-interval", "30", "-perhour", "0.3", "-maxivl", "2", "-run", "all"),
	})
}

// runMain runs experiments with args to a clean exit and returns its stdout.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("experiments %s: %v; stderr:\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out
}

// checkContract compares each case's output digest with
// testdata/contract.sha256, or rewrites that file under -update.
func checkContract(t *testing.T, outs map[string][]byte) {
	t.Helper()
	var got strings.Builder
	for _, name := range slices.Sorted(maps.Keys(outs)) {
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(outs[name]), name)
	}
	const path = "testdata/contract.sha256"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("output contract broken (re-record a declared output move with -update):\ngot\n%swant\n%s", got.String(), want)
	}
}
