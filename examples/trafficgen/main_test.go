package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runMainEnv, when set, makes the test binary run the example's main
// instead of the tests, so the contract drives the real program without
// building it.
const runMainEnv = "TRAFFICGEN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var update = flag.Bool("update", false, "rewrite testdata/contract.sha256 from this build's output")

// The output contract: the example prints exactly the bytes whose digest is
// committed in testdata/contract.sha256. A change that moves the output on
// purpose is a declared output move: it re-records the digest with -update
// and says so. The run takes ~11 s (2-core host), so it skips under -short.
func TestOutputContract(t *testing.T) {
	if testing.Short() {
		t.Skip("trafficgen's contract run takes ~11 s; skipped under -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("trafficgen: %v; stderr:\n%s", err, stderr.String())
	}
	got := fmt.Sprintf("%x  trafficgen\n", sha256.Sum256(out))
	const path = "testdata/contract.sha256"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("output contract broken (re-record a declared output move with -update):\ngot  %swant %s", got, want)
	}
}
