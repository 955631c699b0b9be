package main

import (
	"testing"

	"lvp/internal/exp"
)

// The measured geometric means recorded in EXPERIMENTS.md (§Figure 6,
// §Table 6) sit 0.550 in total, 0.0458 on average, from the paper's.
func TestSpeedupMAEPinned(t *testing.T) {
	f6 := &exp.Fig6Result{
		GMPPC: [4]float64{1.012, 1.010, 1.104, 1.134},
		GMAXP: [3]float64{1.030, 1.083, 1.150},
	}
	t6 := &exp.Table6Result{
		GMPlus: 1.204,
		GMLVP:  [4]float64{1.022, 1.020, 1.175, 1.243},
	}
	if got, want := speedupMAE(f6, t6), 0.550/12; !near(got, want) {
		t.Errorf("speedupMAE = %v, want %v", got, want)
	}
}

func TestSpeedupMAEZeroOnPaperValues(t *testing.T) {
	var f6 exp.Fig6Result
	var t6 exp.Table6Result
	copy(f6.GMPPC[:], paperGM[0:4])
	copy(f6.GMAXP[:], paperGM[4:7])
	t6.GMPlus = paperGM[7]
	copy(t6.GMLVP[:], paperGM[8:12])
	if got := speedupMAE(&f6, &t6); got != 0 {
		t.Errorf("speedupMAE of the paper's own values = %v, want 0", got)
	}
}
