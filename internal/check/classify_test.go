package check

import (
	"fmt"
	"testing"

	"easeio/internal/apps"
	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/mem"
	"easeio/internal/power"
	"easeio/internal/stats"
)

// perWordClassify is the oracle for classify's memory comparison: every
// word read through one bounds-checked Mem.Read, folded byte by byte
// into an FNV-1a hash, the first mismatch rendered as the divergence
// detail. It returns the hash of the words and the detail ("" when
// memory matches golden).
func perWordClassify(r *replayer, dev *kernel.Device, rt kernel.Hooks) (uint64, string) {
	const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211
	h := uint64(fnvOffset)
	detail := ""
	for i, v := range r.bench.App.Vars {
		if r.golden.sensed[i] {
			continue
		}
		a := rt.AddrOf(v)
		for w := 0; w < v.Words; w++ {
			got := dev.Mem.Read(a.Add(w))
			h = (h ^ uint64(got&0xff)) * fnvPrime
			h = (h ^ uint64(got>>8)) * fnvPrime
			if want := r.golden.vars[i][w]; got != want && detail == "" {
				detail = fmt.Sprintf("%s[%d] = %d, want %d", v.Name, w, got, want)
			}
		}
	}
	return h, detail
}

// finishedRun is one app run under continuous power, with its device
// left at the final state for classify to inspect.
type finishedRun struct {
	bench *apps.Bench
	dev   *kernel.Device
	rt    kernel.Hooks
	run   *stats.Run
}

func runToEnd(t *testing.T, factory experiments.AppFactory, kind experiments.RuntimeKind) finishedRun {
	t.Helper()
	bench, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	sess := kernel.NewSession(experiments.NewRuntime(kind), bench.App, power.Continuous{})
	run, err := sess.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	return finishedRun{bench: bench, dev: sess.Device(), rt: sess.Runtime(), run: run}
}

// allCounts snapshots every bank's access counters.
func allCounts(m *mem.Memory) (c [mem.NumBanks]mem.Counters) {
	for b := range c {
		c[b] = m.Counts(mem.Bank(b))
	}
	return c
}

// TestClassifyMatchesPerWordPath perturbs several words of a finished
// run and checks classify against the per-word oracle: the first
// differing word is reported with the same Detail text, the reads booked
// are the ones the per-word path books, and the outcome hashes separate
// exactly the states the per-word FNV hash separates.
func TestClassifyMatchesPerWordPath(t *testing.T) {
	pl, err := goldenPass(dmaFactory, experiments.EaseIO, Config{}.fill())
	if err != nil {
		t.Fatal(err)
	}
	type edit struct {
		v    string
		word int
		val  uint16
	}
	cases := []struct {
		name  string
		edits []edit
	}{
		{"golden", nil},
		{"three words of dst", []edit{{"dst", 4097, 1}, {"dst", 17, 2}, {"dst", 4999, 3}}},
		{"dst and checksum", []edit{{"checksum", 0, 7}, {"dst", 3, 9}}},
		{"checksum only", []edit{{"checksum", 0, 7}}},
		{"dst tail word", []edit{{"dst", 4999, 3}}},
		{"dst high bits", []edit{{"dst", 3, 0x8000}, {"dst", 7, 0x8000}}},
		{"dst high bits again", []edit{{"dst", 3, 0x8000}, {"dst", 7, 0x8000}}},
		// Same first divergence, then one more word in each 4-word chunk
		// of a 16-word block: only the hashed words tell these apart.
		{"dst[0]", []edit{{"dst", 0, 1}}},
		{"dst[0], dst[2]", []edit{{"dst", 0, 1}, {"dst", 2, 1}}},
		{"dst[0], dst[5]", []edit{{"dst", 0, 1}, {"dst", 5, 1}}},
		{"dst[0], dst[9]", []edit{{"dst", 0, 1}, {"dst", 9, 1}}},
		{"dst[0], dst[14]", []edit{{"dst", 0, 1}, {"dst", 14, 1}}},
		{"dst[0], dst[4998]", []edit{{"dst", 0, 1}, {"dst", 4998, 1}}},
	}
	hashes := make([]uint64, len(cases))
	oracleHashes := make([]uint64, len(cases))
	for ci, tc := range cases {
		// Two identical runs: one for classify, one for the oracle, so
		// each starts from the same counters.
		span, word := runToEnd(t, dmaFactory, experiments.EaseIO), runToEnd(t, dmaFactory, experiments.EaseIO)
		for _, fr := range []finishedRun{span, word} {
			for _, e := range tc.edits {
				var a mem.Addr
				found := false
				for _, v := range fr.bench.App.Vars {
					if v.Name == e.v {
						a, found = fr.rt.AddrOf(v).Add(e.word), true
					}
				}
				if !found {
					t.Fatalf("no var %q", e.v)
				}
				fr.dev.Mem.Write(a, fr.dev.Mem.Read(a)^e.val)
			}
		}
		r := &replayer{bench: span.bench, golden: pl.g}
		before := allCounts(span.dev.Mem)
		out := r.classify(span.dev, span.rt, span.run, nil)
		spanReads := allCounts(span.dev.Mem)

		ro := &replayer{bench: word.bench, golden: pl.g}
		wordBefore := allCounts(word.dev.Mem)
		oh, detail := perWordClassify(ro, word.dev, word.rt)
		wordReads := allCounts(word.dev.Mem)

		if (detail == "") != (tc.edits == nil) {
			t.Fatalf("%s: per-word oracle detail %q for %d edits", tc.name, detail, len(tc.edits))
		}
		if before != wordBefore {
			t.Fatalf("%s: runs disagree before classify: %v vs %v", tc.name, before, wordBefore)
		}
		if spanReads != wordReads {
			t.Errorf("%s: counters after classify %v, per-word path %v", tc.name, spanReads, wordReads)
		}
		switch {
		case detail == "" && out.div != nil:
			t.Errorf("%s: classify diverged (%s: %s), per-word memory matches", tc.name, out.div.Kind, out.div.Detail)
		case detail != "" && (out.div == nil || out.div.Kind != "memory"):
			t.Errorf("%s: classify %+v, want memory divergence %q", tc.name, out.div, detail)
		case detail != "" && out.div.Detail != detail:
			t.Errorf("%s: Detail %q, per-word %q", tc.name, out.div.Detail, detail)
		}
		hashes[ci], oracleHashes[ci] = out.hash, oh
	}
	for i := range cases {
		for j := range cases {
			if (hashes[i] == hashes[j]) != (oracleHashes[i] == oracleHashes[j]) {
				t.Errorf("%s vs %s: hashes equal = %v, per-word hashes equal = %v",
					cases[i].name, cases[j].name, hashes[i] == hashes[j], oracleHashes[i] == oracleHashes[j])
			}
		}
	}
}
