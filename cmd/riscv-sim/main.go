// riscv-sim runs an RV32IM assembly program on the cycle-accurate
// superscalar ("SS") core model and reports the pipeline statistics.
//
// Usage:
//
//	riscv-sim [-config 2way|4way] [-tage] [-nopenalty] [-validate] [-trace out.kanata] file.s
//	riscv-sim -sample [-sample-interval N] [-sample-warmup N] [-sample-window N] file.s
//
// -sample switches to sampled simulation (DESIGN.md §16): a functional
// fast-forward with periodic checkpoints, detailed simulation of warmed
// sample windows, and a reconstructed whole-program estimate with
// confidence intervals, printed to stderr in place of the full pipeline
// statistics. Program output and the exit code are exact (the
// fast-forward executes every instruction).
package main

import (
	"os"

	"straight/internal/simcli"
)

func main() {
	os.Exit(simcli.Main("riscv-sim", "ss", os.Args[1:], os.Stdout, os.Stderr, simcli.NoPenaltyFlag))
}
