// Fuzzing the nested-schedule enumeration: nestedPlan is a pure
// function of a level's outcomes, and the checkpoint tree's soundness
// leans on a handful of its structural invariants
// (representatives in range, ascending, never diverging, every evaluated
// passing point accounted for exactly once). The fuzzer synthesizes
// arbitrary outcome vectors and range bounds and checks the invariants
// directly.

package check

import (
	"reflect"
	"testing"
)

// synthOutcomes decodes one fuzz byte per candidate point: bit 0 =
// evaluated, bit 1 = diverging, the rest the outcome hash (a small hash
// space, so equal-hash runs — the collapse case — are common).
func synthOutcomes(data []byte) []outcome {
	if len(data) > 512 {
		data = data[:512]
	}
	out := make([]outcome, len(data))
	for i, b := range data {
		if b&1 == 0 {
			continue
		}
		out[i].evaluated = true
		out[i].hash = uint64(b >> 2)
		if b&2 != 0 {
			out[i].div = &Divergence{Kind: "memory"}
		}
	}
	return out
}

func FuzzNestedScheduleEnumeration(f *testing.F) {
	f.Add([]byte{}, 0, 0)
	f.Add([]byte{1, 1, 1}, 0, 3)
	f.Add([]byte{1, 3, 1, 5, 5, 0, 5, 1}, 0, 8)
	f.Add([]byte{5, 5, 9, 9, 3, 1}, 1, 5)
	f.Add([]byte{1, 0, 1, 0, 9}, -3, 99)

	f.Fuzz(func(t *testing.T, data []byte, lo, hi int) {
		out := synthOutcomes(data)

		// Clamp the way nestedPlan itself does, to state the invariants
		// over the effective range.
		clo, chi := lo, hi
		if clo < 0 {
			clo = 0
		}
		if chi > len(out) {
			chi = len(out)
		}

		reps := nestedPlan(out, lo, hi)
		if again := nestedPlan(out, lo, hi); !reflect.DeepEqual(reps, again) {
			t.Fatalf("nestedPlan is not deterministic: %v vs %v", reps, again)
		}

		passing := 0
		for i := clo; i < chi; i++ {
			if out[i].evaluated && out[i].div == nil {
				passing++
			}
		}
		covered := 0
		prev := -1
		for _, rp := range reps {
			if rp.idx < clo || rp.idx >= chi {
				t.Fatalf("representative %d outside range [%d, %d)", rp.idx, clo, chi)
			}
			if rp.idx <= prev {
				t.Fatalf("representatives not ascending: %v", reps)
			}
			prev = rp.idx
			o := out[rp.idx]
			if !o.evaluated {
				t.Fatalf("representative %d was never evaluated", rp.idx)
			}
			if o.div != nil {
				t.Fatalf("diverging point %d selected as representative", rp.idx)
			}
			// Expand the representative's maximal run by the collapse
			// rules and require exactly 1+collapsed members.
			members := 1
			for i := rp.idx + 1; i < chi; i++ {
				if !out[i].evaluated {
					continue
				}
				if out[i].div != nil || out[i].hash != o.hash {
					break
				}
				members++
			}
			// A longer same-hash run would have been collapsed further, so
			// the booked count can be smaller only when the next
			// representative interrupts it — which the reconstruction
			// above already stops at via the hash change or divergence;
			// equal hash with no break means the run truly continues.
			if members != 1+rp.collapsed {
				t.Fatalf("representative %d stands for %d members, run has %d (out=%+v)",
					rp.idx, 1+rp.collapsed, members, reps)
			}
			covered += 1 + rp.collapsed
		}
		if covered != passing {
			t.Fatalf("representatives cover %d evaluated passing points, range has %d", covered, passing)
		}
		if passing > 0 {
			first := -1
			for i := clo; i < chi; i++ {
				if out[i].evaluated && out[i].div == nil {
					first = i
					break
				}
			}
			if len(reps) == 0 || reps[0].idx != first {
				t.Fatalf("first evaluated passing point %d is not the first representative (%v)", first, reps)
			}
		}
	})
}
