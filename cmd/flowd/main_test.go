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

// runMainEnv, when set, makes the test binary run flowd's main instead of
// the tests, so a case drives the real flag parsing, validation and exit
// code without building the command.
const runMainEnv = "FLOWD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Each bad synthetic or interval flag must exit 1 at the command line,
// naming the flag — never panic, restart-loop or measure a degenerate trace.
func TestRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"-interval", []string{"-interval", "Inf"}},
		{"-interval", []string{"-interval", "1e15"}},
		{"-epoch", []string{"-epoch", "Inf"}},
		{"-lambda", []string{"-lambda", "Inf"}},
		{"-b", []string{"-b", "NaN"}},
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
