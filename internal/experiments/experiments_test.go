package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/trace"
)

// tinyOptions keeps the smoke tests fast: a 10 Mb/s link with two 20 s
// intervals per trace.
func tinyOptions() Options {
	return Options{
		Suite: trace.SuiteOptions{
			LinkBps:          10e6,
			IntervalSec:      20,
			IntervalsPerHour: 0.2,
			MaxIntervals:     2,
		},
		Quiet: true,
	}
}

func newTestRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunnerSpecs(t *testing.T) {
	r := newTestRunner(t)
	if len(r.Specs()) != 7 {
		t.Fatalf("suite has %d traces, want 7", len(r.Specs()))
	}
	if r.opts.Delta != 0.2 {
		t.Fatalf("default delta = %g, want 0.2", r.opts.Delta)
	}
}

// Every experiment must run to completion and produce non-empty output on
// the tiny suite. This is the regression net for the whole harness.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping experiment smoke test in -short mode")
	}
	r := newTestRunner(t)
	cases := []struct {
		name string
		fn   func(*Runner, *bytes.Buffer) error
	}{
		{"table1", func(r *Runner, w *bytes.Buffer) error { return r.Table1(w) }},
		{"fig1", func(r *Runner, w *bytes.Buffer) error { return r.Fig1(w) }},
		{"fig3", func(r *Runner, w *bytes.Buffer) error { return r.Fig3(w) }},
		{"fig4", func(r *Runner, w *bytes.Buffer) error { return r.Fig4(w) }},
		{"fig5", func(r *Runner, w *bytes.Buffer) error { return r.Fig5(w) }},
		{"fig6", func(r *Runner, w *bytes.Buffer) error { return r.Fig6(w) }},
		{"fig7", func(r *Runner, w *bytes.Buffer) error { return r.Fig7(w) }},
		{"fig8", func(r *Runner, w *bytes.Buffer) error { return r.Fig8(w) }},
		{"fig9", func(r *Runner, w *bytes.Buffer) error { return r.Fig9(w) }},
		{"fig10", func(r *Runner, w *bytes.Buffer) error { return r.Fig10(w) }},
		{"fig11", func(r *Runner, w *bytes.Buffer) error { return r.Fig11(w) }},
		{"fig12", func(r *Runner, w *bytes.Buffer) error { return r.Fig12(w) }},
		{"fig13", func(r *Runner, w *bytes.Buffer) error { return r.Fig13(w) }},
		{"table2", func(r *Runner, w *bytes.Buffer) error { return r.Table2(w, 240, 1) }},
		{"fig14", func(r *Runner, w *bytes.Buffer) error { return r.Fig14(w, 240, 1) }},
		{"appA", func(r *Runner, w *bytes.Buffer) error { return r.AppA(w) }},
		{"appC", func(r *Runner, w *bytes.Buffer) error { return r.AppC(w, 2) }},
		{"ablation-shots", func(r *Runner, w *bytes.Buffer) error { return r.AblationShots(w) }},
		{"ablation-baseline", func(r *Runner, w *bytes.Buffer) error { return r.AblationBaseline(w) }},
		{"ablation-delta", func(r *Runner, w *bytes.Buffer) error { return r.AblationDelta(w) }},
		{"ablation-split", func(r *Runner, w *bytes.Buffer) error { return r.AblationSplit(w) }},
		{"ablation-smoothing", func(r *Runner, w *bytes.Buffer) error { return r.AblationSmoothing(w) }},
		{"ablation-lrd", func(r *Runner, w *bytes.Buffer) error { return r.AblationLRD(w) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.fn(r, &buf); err != nil {
				t.Fatalf("%s failed: %v", c.name, err)
			}
			out := buf.String()
			if len(strings.TrimSpace(out)) == 0 {
				t.Fatalf("%s produced no output", c.name)
			}
			if !strings.Contains(out, "===") {
				t.Fatalf("%s missing section header:\n%s", c.name, out)
			}
		})
	}
}

func TestStatsConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping suite measurement in -short mode")
	}
	r := newTestRunner(t)
	for _, def := range []flow.Definition{flow.By5Tuple, flow.ByPrefix24} {
		sts, err := r.Stats(def)
		if err != nil {
			t.Fatal(err)
		}
		if len(sts) == 0 {
			t.Fatalf("%s: no interval stats", def)
		}
		for _, s := range sts {
			if s.MeasMean <= 0 || s.MeasCoV <= 0 {
				t.Fatalf("%s %s/%d: degenerate measurement %+v", def, s.Trace, s.Index, s)
			}
			if s.Lambda <= 0 || s.MeanS <= 0 || s.MeanS2oD <= 0 {
				t.Fatalf("%s %s/%d: degenerate model inputs", def, s.Trace, s.Index)
			}
			// Model CoV ordering: K(b) grows with b, so the Δ-averaged CoV
			// must too.
			if !(s.ModelCoV[0] < s.ModelCoV[1] && s.ModelCoV[1] < s.ModelCoV[2]) {
				t.Fatalf("model CoV not increasing in b: %v", s.ModelCoV)
			}
			if s.UtilClass() == "" {
				t.Fatal("empty utilisation class")
			}
		}
	}
}

func TestStatsCached(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping suite measurement in -short mode")
	}
	r := newTestRunner(t)
	a, err := r.Stats(flow.By5Tuple)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Stats(flow.By5Tuple)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("cached stats differ in length")
	}
	for i := range a {
		if a[i].MeasCoV != b[i].MeasCoV {
			t.Fatal("cached stats differ")
		}
	}
}

// AblationSplit measures trace 1 on its own and reads nothing of the suite
// measurement, so running it alone must leave the suite unmeasured.
func TestAblationSplitLeavesSuiteUnmeasured(t *testing.T) {
	r := newTestRunner(t)
	var buf bytes.Buffer
	if err := r.AblationSplit(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "extra") {
		t.Fatalf("no split report:\n%s", buf.String())
	}
	if r.measured {
		t.Fatal("AblationSplit measured the whole suite")
	}
}
