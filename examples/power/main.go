// Power example: the Fig 17 reproduction in miniature. Runs CoreMark-
// equivalent work on the 2-way SS and STRAIGHT models, feeds the activity
// counters to the calibrated power model, and prints the per-module
// relative power at 1.0x / 2.5x / 4.0x clock — showing the rename-logic
// power all but disappearing on STRAIGHT.
package main

import (
	"fmt"
	"log"

	"straight/internal/bench"
	"straight/internal/power"
	"straight/internal/uarch"
	"straight/internal/workloads"
)

func main() {
	scale := bench.ScaleQuick

	ssIm, err := bench.BuildRISCV(workloads.CoreMark, scale.CoreMarkIters)
	if err != nil {
		log.Fatal(err)
	}
	ssRes, err := bench.RunCore(bench.CoreSS, uarch.SS2Way(), ssIm, nil)
	if err != nil {
		log.Fatal(err)
	}
	stIm, err := bench.BuildSTRAIGHT(workloads.CoreMark, scale.CoreMarkIters, 31, bench.ModeREP)
	if err != nil {
		log.Fatal(err)
	}
	stRes, err := bench.RunCore(bench.CoreStraight, uarch.Straight2Way(), stIm, nil)
	if err != nil {
		log.Fatal(err)
	}

	m := power.NewModel()
	fmt.Printf("SS rename logic is %.1f%% of its \"other modules\" power (paper: ~5.7%%)\n\n",
		100*m.RenameShareOfOther(&ssRes.Stats))
	rows := m.Figure17(&ssRes.Stats, &stRes.Stats, []float64{1.0, 2.5, 4.0})
	fmt.Print(power.FormatRows(rows))

	bs := m.Analyze(&ssRes.Stats, power.KindSS, 1.0)
	bt := m.Analyze(&stRes.Stats, power.KindStraight, 1.0)
	fmt.Printf("\nAt baseline clock, STRAIGHT removes %.1f%% of the rename power,\n",
		100*(1-bt.Rename/bs.Rename))
	fmt.Printf("register file power changes by %+.1f%%, other modules by %+.1f%%\n",
		100*(bt.RegFile/bs.RegFile-1), 100*(bt.Other/bs.Other-1))
}
