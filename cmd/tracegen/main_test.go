package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runMainEnv, when set, makes the test binary run tracegen's main instead
// of the tests, so the contract drives the real program without building it.
const runMainEnv = "TRACEGEN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var update = flag.Bool("update", false, "rewrite testdata/contract.sha256 from this build's output")

// The output contract: the files tracegen writes for a small suite-mode run
// hash to the digests committed in testdata/contract.sha256 — the pcap
// bytes and the -store file bytes. A change that moves the output on purpose
// is a declared output move: it re-records the digests with -update and says
// so.
func TestOutputContract(t *testing.T) {
	args := []string{"-trace", "1", "-maxivl", "1", "-link", "20e6", "-interval", "30"}
	dir := t.TempDir()
	var got strings.Builder
	for _, c := range []struct{ name, file string }{
		{"pcap", "trace.pcap"},
		{"store", "trace.fstore"},
	} {
		path := filepath.Join(dir, c.file)
		a := append([]string{"-o", path}, args...)
		if c.name == "store" {
			a = append(a, "-store")
		}
		runTracegen(t, a...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(data), c.name)
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

// runTracegen runs tracegen with args to its exit under a one-minute bound.
func runTracegen(t *testing.T, args ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("tracegen %v: %v; stderr:\n%s", args, err, stderr.String())
	}
}
