package kernel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"easeio/internal/power"
	"easeio/internal/units"
)

// TestChargeBeforeFailureMatchesSliced compares Charge with the sliced
// loop it short-cuts, over random durations, energies and failure
// points under Timer and Schedule supplies: the clock, the ledger and
// the slice whose step fails must be identical. Failure points land
// before, inside and after the charge, exactly on slice boundaries and
// off them.
func TestChargeBeforeFailureMatchesSliced(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	failed := 0
	const draws = 4000
	for i := 0; i < draws; i++ {
		dt := time.Duration(1 + rng.Int63n(int64(60*chargeSlice)))
		if rng.Intn(4) == 0 {
			dt = time.Duration(1+rng.Intn(60)) * chargeSlice
		}
		e := units.Energy(rng.Int63n(int64(50 * units.Microjoule)))
		pre := time.Duration(rng.Int63n(int64(10 * chargeSlice)))
		fire := pre + time.Duration(rng.Int63n(int64(2*dt+chargeSlice)))
		if rng.Intn(4) == 0 {
			fire = pre + time.Duration(rng.Intn(62))*chargeSlice
		}
		if rng.Intn(16) == 0 {
			fire = pre - time.Duration(rng.Int63n(int64(chargeSlice))) // already due
		}
		fire = max(fire, 1)
		overhead, wasted, timer := rng.Intn(2) == 0, rng.Intn(3) == 0, rng.Intn(2) == 0
		name := fmt.Sprintf("dt=%v e=%d pre=%v fire=%v overhead=%v wasted=%v timer=%v",
			dt, e, pre, fire, overhead, wasted, timer)

		run := func(sliced bool) (*Device, bool) {
			var s power.Supply = power.NewSchedule(fire)
			if timer {
				s = power.NewTimer(power.TimerConfig{OnMin: fire, OnMax: fire, OffMin: 1, OffMax: 1})
			}
			d := NewDevice(s, 1)
			c := &Ctx{Dev: d}
			c.BulkCharge(pre, units.Energy(pre), false)
			if wasted {
				c.PushWasted()
			}
			return d, chargePanics(func() {
				if sliced {
					c.chargeSliced(d, dt, e, overhead)
				} else {
					c.Charge(dt, e, overhead)
				}
			})
		}
		got, gotFail := run(false)
		want, wantFail := run(true)
		if gotFail != wantFail {
			t.Fatalf("%s: Charge failed=%v, sliced loop failed=%v", name, gotFail, wantFail)
		}
		if gotFail {
			failed++
		}
		if *got.Clock != *want.Clock {
			t.Fatalf("%s: clock %+v, sliced loop %+v", name, *got.Clock, *want.Clock)
		}
		if !reflect.DeepEqual(got.Ledger, want.Ledger) {
			t.Fatalf("%s: ledger %+v, sliced loop %+v", name, *got.Ledger, *want.Ledger)
		}
	}
	if failed < draws/4 || failed > draws*3/4 {
		t.Errorf("%d of %d charges reached the failure point; want a mix", failed, draws)
	}
}

// chargePanics runs f and reports whether it unwound with the power
// failure sentinel; any other panic propagates.
func chargePanics(f func()) (failed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(powerFailure); !ok {
				panic(r)
			}
			failed = true
		}
	}()
	f()
	return false
}
