// Quickstart: measure value locality of one workload, attach the paper's
// Simple LVP unit, and compare PowerPC 620 cycle counts with and without it.
package main

import (
	"fmt"
	"log"

	"lvp"
)

func main() {
	// 1. Build and functionally execute a workload, collecting its trace
	// (the paper's trace-generation phase).
	tr, err := lvp.BuildTrace("grep", lvp.PPC, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %s/%s, %d instructions\n", tr.Name, tr.Target, tr.Len())

	// The trace stores each static instruction once, plus per-record
	// lanes of dynamic facts; Summarize counts them by kind in one walk.
	sum := tr.Summarize()
	fmt.Printf("branches: %d, loads: %d\n", sum.Branches, sum.Loads)

	// 2. Measure load value locality at history depths 1 and 16
	// (paper Figure 1).
	for _, r := range lvp.MeasureLocality(tr, 1, 16) {
		fmt.Printf("value locality, depth %2d: %5.1f%%\n", r.Depth, r.Overall.Percent())
	}

	// 3. Run the LVP unit over the trace (paper's annotation phase).
	ann, stats, err := lvp.Annotate(tr, lvp.Simple)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Simple LVP unit: coverage %.1f%%, accuracy %.1f%%, constants %.1f%%\n",
		100*stats.Coverage(), 100*stats.Accuracy(), 100*stats.ConstantRate())

	// 4. Feed the annotated trace to the cycle-level 620 model.
	base := lvp.Simulate620(tr, nil, "")
	fast := lvp.Simulate620(tr, ann, "Simple")
	fmt.Printf("PowerPC 620:  base %d cycles (IPC %.2f)\n", base.Cycles, base.IPC())
	fmt.Printf("PowerPC 620:  +LVP %d cycles (IPC %.2f)\n", fast.Cycles, fast.IPC())
	fmt.Printf("speedup: %.3f\n", float64(base.Cycles)/float64(fast.Cycles))
}
