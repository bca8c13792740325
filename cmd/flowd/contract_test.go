package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/contract.sha256 from this build's output")

// The output contract: flowd's reports for fixed arguments hash to the
// digests committed in testdata/contract.sha256 — synthetic ingest with and
// without checkpointing, and a replayed capture the test writes itself. A
// change that moves the output on purpose is a declared output move: it
// re-records the digests with -update and says so.
func TestOutputContract(t *testing.T) {
	args := []string{"-epochs", "4", "-epoch", "120", "-interval", "20"}
	outs := map[string][]byte{}
	for name, a := range map[string][]string{
		"synthetic":      args,
		"synthetic-ckpt": append([]string{"-ckpt", t.TempDir()}, args...),
		"pcap":           {"-source", "pcap", "-in", writeCapture(t), "-epoch", "60", "-epochs", "2", "-interval", "20"},
	} {
		outs[name] = []byte(strings.Join(runFlowd(t, 0, 0, a...), "\n"))
	}
	checkContract(t, outs)
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
