package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// runMainEnv, when set, makes the test binary run flowstats' main instead
// of the tests, so a case drives the real command without building it.
const runMainEnv = "FLOWSTATS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var update = flag.Bool("update", false, "rewrite testdata/contract.sha256 from this build's output")

// The output contract: flowstats over a capture the test writes prints
// exactly the bytes whose digests are committed in testdata/contract.sha256,
// under both the 5-tuple and the /24 definition at a second Δ. A change that
// moves the output on purpose is a declared output move: it re-records the
// digests with -update and says so.
func TestOutputContract(t *testing.T) {
	in := writeCapture(t)
	checkContract(t, map[string][]byte{
		"5tuple":         runMain(t, "-in", in, "-def", "5tuple"),
		"prefix24-delta": runMain(t, "-in", in, "-def", "prefix24", "-delta", "0.1"),
	})
}

// runMain runs flowstats with args to a clean exit and returns its stdout.
func runMain(t *testing.T, args ...string) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("flowstats %s: %v; stderr:\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out
}

// writeCapture writes the first 60 s of the reduced-scale trace-1 as a pcap
// into a test directory and returns its path.
func writeCapture(t *testing.T) string {
	t.Helper()
	specs, err := trace.DefaultSuite(trace.SuiteOptions{LinkBps: 20e6, IntervalSec: 30, MaxIntervals: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := specs[0].Config()
	cfg.Warmup = 60
	path := filepath.Join(t.TempDir(), "capture.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pw, err := trace.NewPcapWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.StreamParallelBlocksCtx(context.Background(), cfg, 1, pw.AddBlock); err != nil {
		t.Fatal(err)
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
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
