package wire

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"easeio/internal/check"
)

// TestPackReportRoundTrip pins PackReport/UnpackReport: reports come
// back deep-equal (nil lists stay nil), from concurrent packers sharing
// the writer pool, and a damaged packing is an error, never a report.
func TestPackReportRoundTrip(t *testing.T) {
	big := check.Report{App: "weather", Runtime: "Alpaca", Failures: 2, Candidates: 900, Explored: 900,
		Depths:  []check.DepthStats{{Depth: 2, Expanded: 3, Collapsed: 40, Candidates: 500, Explored: 500}},
		Minimal: []time.Duration{time.Millisecond, 2 * time.Millisecond}}
	for i := 0; i < 400; i++ {
		big.Divergences = append(big.Divergences, check.Divergence{
			At: time.Duration(i) * time.Microsecond, Index: i, Kind: "memory",
			Detail: "signal[0] = 65465, want 65460", Schedule: []time.Duration{time.Millisecond, time.Duration(i)}})
	}
	reports := []check.Report{
		{App: "temp", Runtime: "EaseIO", Candidates: 10, Explored: 10},
		{App: "branch", Runtime: "Alpaca", Note: "n", Divergences: []check.Divergence{{At: 1, Kind: "output"}},
			Minimal: []time.Duration{1}},
		big,
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				r := &reports[(g+i)%len(reports)]
				got, err := UnpackReport(PackReport(r))
				if err != nil || !reflect.DeepEqual(*got, *r) {
					t.Errorf("round trip of %s/%s: got %+v, %v", r.App, r.Runtime, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	packed := PackReport(&big)
	if raw := AppendReport(nil, big); len(packed)*4 > len(raw) {
		t.Errorf("packed %d bytes from a %d-byte encoding; want at least 4x smaller", len(packed), len(raw))
	}
	for _, bad := range [][]byte{nil, packed[:len(packed)/2], append([]byte{0xff}, packed...)} {
		if r, err := UnpackReport(bad); err == nil {
			t.Errorf("damaged packing (%d bytes) unpacked to %+v", len(bad), r)
		}
	}
}
