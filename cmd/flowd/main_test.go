package main

import (
	"bufio"
	"context"
	"errors"
	"math/rand/v2"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
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

// runFlowd runs flowd with args to its exit under a 30 s bound and returns
// its stdout lines. With stopAt > 0 it sends sig once that many lines have
// been read, and the run must end the way sig ends flowd: a clean exit for
// SIGTERM, death by the signal for SIGKILL.
func runFlowd(t *testing.T, stopAt int, sig syscall.Signal, args ...string) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		lines = append(lines, sc.Text())
		if len(lines) == stopAt {
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
		}
	}
	err = cmd.Wait()
	var exit *exec.ExitError
	killed := errors.As(err, &exit) && exit.Sys().(syscall.WaitStatus).Signal() == syscall.SIGKILL
	if (stopAt > 0 && sig == syscall.SIGKILL) != killed || (err != nil && !killed) {
		t.Fatalf("flowd %s ended with %v; stderr:\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return lines
}

// reportIndex parses the interval index of one flowd report line.
func reportIndex(t *testing.T, line string) int {
	t.Helper()
	f := strings.Fields(line)
	if len(f) < 2 || f[0] != "interval" {
		t.Fatalf("not a report line: %q", line)
	}
	i, err := strconv.Atoi(f[1])
	if err != nil {
		t.Fatalf("report line %q: %v", line, err)
	}
	return i
}

// A flowd stopped by SIGTERM or SIGKILL partway through a bounded stream and
// rerun with the same arguments must, across both runs, report every
// interval in full exactly as an uninterrupted run does. A drained interval
// shows up as (partial) in the stopped run and in full after the restart; a
// SIGKILL may land after an interval's report but before its checkpoint, so
// that one interval may be reported twice, identically.
func TestRestartKeepsReports(t *testing.T) {
	args := []string{"-epochs", "200", "-epoch", "120", "-interval", "20", "-lambda", "20"}
	golden := runFlowd(t, 0, 0, args...)
	if len(golden) != 1200 || !strings.HasSuffix(golden[len(golden)-1], "(partial)") {
		t.Fatalf("uninterrupted run: %d reports, last %q", len(golden), golden[len(golden)-1])
	}
	// Stop points stay far enough from the end that flowd, running ahead of
	// the reader by at most a pipe buffer of lines, is still measuring.
	rng := rand.New(rand.NewPCG(20, 6))
	for _, sig := range []syscall.Signal{syscall.SIGTERM, syscall.SIGKILL} {
		stopAt := 50 + rng.IntN(400)
		t.Run(sig.String(), func(t *testing.T) {
			ckpt := append([]string{"-ckpt", t.TempDir()}, args...)
			first := runFlowd(t, stopAt, sig, ckpt...)
			if len(first) >= len(golden) {
				t.Fatalf("the %s at report %d did not interrupt the run", sig, stopAt)
			}
			lastFull := -1
			for _, l := range first {
				if !strings.HasSuffix(l, "(partial)") {
					lastFull = reportIndex(t, l)
				}
			}
			if sig == syscall.SIGTERM && !strings.HasSuffix(first[len(first)-1], "(partial)") {
				t.Fatalf("SIGTERM drained no partial interval; last report %q", first[len(first)-1])
			}
			second := runFlowd(t, 0, 0, ckpt...)
			seen := make([]int, len(golden))
			for i, l := range append(first, second...) {
				idx := reportIndex(t, l)
				if idx < 0 || idx >= len(golden) {
					t.Fatalf("report for interval %d outside the stream", idx)
				}
				if l == golden[idx] {
					seen[idx]++
					continue
				}
				if i >= len(first) || !strings.HasSuffix(l, "(partial)") {
					t.Fatalf("interval %d differs from the uninterrupted run:\n got %q\nwant %q", idx, l, golden[idx])
				}
			}
			for idx, n := range seen {
				switch {
				case n == 0:
					t.Fatalf("interval %d was never reported in full", idx)
				case n > 1 && !(sig == syscall.SIGKILL && n == 2 && idx == lastFull):
					t.Fatalf("interval %d reported %d times", idx, n)
				}
			}
		})
	}
}
