package main

import (
	"math"

	"lvp/internal/exp"
)

// paperGM holds the paper's twelve published geometric-mean speedups, in
// measuredGM's order, as EXPERIMENTS.md quotes them: §Figure 6 (620
// Simple/Constant/Limit/Perfect 1.03, 1.03, 1.06, 1.13; 21164
// Simple/Limit/Perfect 1.06, 1.09, 1.16) and §Table 6 (620+ over 620 1.061;
// LVP on the 620+ 1.046, 1.042, 1.077, 1.113). The model is checked against
// these numbers only; it has not been validated on hardware.
var paperGM = [12]float64{
	1.03, 1.03, 1.06, 1.13,
	1.06, 1.09, 1.16,
	1.061,
	1.046, 1.042, 1.077, 1.113,
}

// measuredGM lists the reproduction's geometric means in paperGM's order.
func measuredGM(f6 *exp.Fig6Result, t6 *exp.Table6Result) [12]float64 {
	var m [12]float64
	copy(m[0:4], f6.GMPPC[:])
	copy(m[4:7], f6.GMAXP[:])
	m[7] = t6.GMPlus
	copy(m[8:12], t6.GMLVP[:])
	return m
}

// speedupMAE is the mean absolute difference between the measured and the
// published geometric-mean speedups.
func speedupMAE(f6 *exp.Fig6Result, t6 *exp.Table6Result) float64 {
	m := measuredGM(f6, t6)
	var sum float64
	for i, p := range paperGM {
		sum += math.Abs(m[i] - p)
	}
	return sum / float64(len(paperGM))
}
