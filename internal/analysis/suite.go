// Package analysis assembles the repo's invariant suite: which analyzer
// governs which packages. cmd/repolint is a thin shell over this table.
//
// The suite enforces three invariants the measurement pipeline's
// correctness rests on (see README "Invariants"):
//
//   - determinism: pipeline output is a pure function of (seed, config) —
//     no wall clock, no math/rand, no map-iteration order;
//   - zero-allocation hot paths: functions annotated //repro:hotpath do
//     not allocate in steady state;
//   - pool discipline: trace.GetBlock/PutBlock are balanced with no use
//     after put;
//
// plus the PR-6 kernel guarantee that internal/core kernels carry no
// stray transcendentals or exact float comparisons (floatconst).
package analysis

import (
	"strings"

	"repro/internal/analysis/determinism"
	"repro/internal/analysis/floatconst"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/poolcheck"
)

// PipelinePackages are the packages under the bit-identical-output
// contract: everything a measurement byte flows through.
var PipelinePackages = []string{
	"repro/internal/trace",
	"repro/internal/flow",
	"repro/internal/timeseries",
	"repro/internal/core",
	"repro/internal/experiments",
}

// Module is the module path; the allocation and pool checks run on every
// package beneath it.
const Module = "repro"

// Suite returns the configured analyzer set.
func Suite() []framework.Scoped {
	return []framework.Scoped{
		{Analyzer: determinism.Analyzer, Match: inPipeline},
		{Analyzer: hotpath.Analyzer, Match: inModule},
		{Analyzer: poolcheck.Analyzer, Match: inModule},
		{Analyzer: floatconst.Analyzer, Match: func(p string) bool { return p == "repro/internal/core" }},
	}
}

func inPipeline(path string) bool {
	for _, p := range PipelinePackages {
		if path == p {
			return true
		}
	}
	return false
}

func inModule(path string) bool {
	return path == Module || strings.HasPrefix(path, Module+"/")
}
