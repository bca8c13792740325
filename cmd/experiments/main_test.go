package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runMainEnv, when set, makes the test binary run experiments' main
// instead of the tests, so a case drives the real flag parsing, validation
// and exit code without building the command.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Each bad length or Δ flag must exit 1 at the command line, naming the
// flag — never panic mid-run on an unbinnable window.
func TestRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-predsec", []string{"-predsec", "Inf", "-run", "table2"}},
		{"-predsec", []string{"-predsec", "1e15", "-run", "table2"}},
		{"-delta", []string{"-delta", "Inf", "-run", "table1"}},
		{"-interval", []string{"-interval", "1e15", "-run", "table1"}},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], c.args...)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit %v, want status 1; stderr:\n%s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.flag+" ") {
				t.Fatalf("stderr does not name %s:\n%s", c.flag, stderr.String())
			}
		})
	}
}
