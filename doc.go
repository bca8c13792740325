// Package repro is a reproduction of "A flow-based model for Internet
// backbone traffic" (Barakat, Thiran, Iannaccone, Diot, Owezarski,
// IMC 2002): a Poisson shot-noise model of the total data rate on an
// uncongested backbone link, together with the full measurement pipeline,
// synthetic trace substrate, and the paper's three applications
// (dimensioning, prediction, traffic generation).
//
// The public surface lives under internal/ because this module is a
// research artefact: cmd/ holds the user-facing binaries, examples/ the
// runnable API tours, and bench_test.go (this package) the benchmark
// harness that regenerates every table and figure of the paper. See
// README.md for the map and its "Pipeline architecture" section for the
// architecture.
package repro
