package lvp

import (
	"fmt"
	"testing"

	"lvp/internal/bench"
	"lvp/internal/prog"
	"lvp/internal/vm"
)

// TestAnnotateGeneralPinned pins AnnotateGeneral's per-state counts, its
// Table 3 identification totals and its LVPT/LCT event counters for Simple
// and Limit on three PPC workloads, so any change to the unit's prediction,
// classification or training decisions that reaches general value
// prediction shows here as a diff.
func TestAnnotateGeneralPinned(t *testing.T) {
	want := map[string]string{
		"compress/Simple": "Simple/GVP writers=76313 states=[65778 30 10505 0] pred=10505/10739 unpred=65544/65574 lvpt={Lookups:76313 Hits:76262 Updates:76313 Replacements:65538 TagMisses:0 AliasEvicts:0} lct={Lookups:76313 Updates:76313 Transitions:[[65753 25 0] [20 0 15] [0 10 10490]]}",
		"compress/Limit":  "Limit/GVP writers=76313 states=[58651 1333 16329 0] pred=16329/18839 unpred=56141/57474 lvpt={Lookups:76313 Hits:76262 Updates:76313 Replacements:57078 TagMisses:0 AliasEvicts:0} lct={Lookups:76313 Updates:76313 Transitions:[[58005 646 0] [639 0 701] [0 694 15628]]}",
		"grep/Simple":     "Simple/GVP writers=49965 states=[25272 288 24405 0] pred=24405/25203 unpred=24474/24762 lvpt={Lookups:49965 Hits:49914 Updates:49965 Replacements:24729 TagMisses:0 AliasEvicts:0} lct={Lookups:49965 Updates:49965 Transitions:[[25105 167 0] [144 0 167] [0 144 24238]]}",
		"grep/Limit":      "Limit/GVP writers=49965 states=[15135 2670 32160 0] pred=32160/33677 unpred=13618/16288 lvpt={Lookups:49965 Hits:49914 Updates:49965 Replacements:16121 TagMisses:0 AliasEvicts:0} lct={Lookups:49965 Updates:49965 Transitions:[[14209 926 0] [901 0 1794] [0 1769 30366]]}",
		"tomcatv/Simple":  "Simple/GVP writers=90067 states=[87161 0 2906 0] pred=2906/2927 unpred=87140/87140 lvpt={Lookups:90067 Hits:90005 Updates:90067 Replacements:87093 TagMisses:0 AliasEvicts:0} lct={Lookups:90067 Updates:90067 Transitions:[[87157 4 0] [0 0 4] [0 0 2902]]}",
		"tomcatv/Limit":   "Limit/GVP writers=90067 states=[87163 0 2904 0] pred=2904/2912 unpred=87155/87155 lvpt={Lookups:90067 Hits:90005 Updates:90067 Replacements:86640 TagMisses:0 AliasEvicts:0} lct={Lookups:90067 Updates:90067 Transitions:[[87159 4 0] [0 0 4] [0 0 2900]]}",
	}
	for _, name := range []string{"compress", "grep", "tomcatv"} {
		bm, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := bm.Build(prog.PPC, 1)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := vm.Run(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{Simple, Limit} {
			_, st, err := AnnotateGeneral(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			key := name + "/" + cfg.Name
			got := fmt.Sprintf("%s writers=%d states=%v pred=%d/%d unpred=%d/%d lvpt=%+v lct=%+v",
				st.Config, st.Loads, st.States,
				st.PredictableIdentified, st.PredictableTotal,
				st.UnpredictableIdentified, st.UnpredictableTotal, st.LVPT, st.LCT)
			if got != want[key] {
				t.Errorf("%s:\n got %s\nwant %s", key, got, want[key])
			}
		}
	}
}
