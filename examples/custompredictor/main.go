// Custompredictor: plug a user-defined value predictor into the framework —
// the extension direction the paper's §7 sketches ("moving beyond
// history-based prediction to computed predictions").
//
// The example builds a hybrid predictor that arbitrates between a last-value
// and a stride component with per-entry confidence counters, then compares
// it against the built-in predictors across the whole suite.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"lvp"
)

// hybrid arbitrates between last-value and stride prediction with a
// per-entry 2-bit chooser (positive = trust stride), updated towards
// whichever component was right.
type hybrid struct {
	last    lvp.Predictor
	stride  lvp.Predictor
	chooser []int8
	mask    uint64
}

func newHybrid(entries int) *hybrid {
	return &hybrid{
		last:    lvp.NewLastValue(entries),
		stride:  lvp.NewStride(entries),
		chooser: make([]int8, entries),
		mask:    uint64(entries - 1),
	}
}

func (h *hybrid) Name() string { return "hybrid" }

func (h *hybrid) idx(pc uint64) int { return int((pc / 4) & h.mask) }

func (h *hybrid) Lookup(pc uint64) (uint64, bool) {
	if h.chooser[h.idx(pc)] > 0 {
		return h.stride.Lookup(pc)
	}
	return h.last.Lookup(pc)
}

func (h *hybrid) Update(pc, actual uint64) {
	i := h.idx(pc)
	lvGuess, _ := h.last.Lookup(pc)
	stGuess, _ := h.stride.Lookup(pc)
	lv, st := lvGuess == actual, stGuess == actual
	switch {
	case st && !lv && h.chooser[i] < 2:
		h.chooser[i]++
	case lv && !st && h.chooser[i] > -2:
		h.chooser[i]--
	}
	h.last.Update(pc, actual)
	h.stride.Update(pc, actual)
}

func main() {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tlast-value\tstride\tcontext-2\thybrid")
	for _, b := range lvp.Benchmarks() {
		tr, err := lvp.BuildTrace(b.Name, lvp.PPC, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n", b.Name,
			100*lvp.MeasurePredictor(tr, lvp.NewLastValue(1024)),
			100*lvp.MeasurePredictor(tr, lvp.NewStride(1024)),
			100*lvp.MeasurePredictor(tr, lvp.NewContext(1024, 4096)),
			100*lvp.MeasurePredictor(tr, newHybrid(1024)))
	}
	w.Flush()
}
