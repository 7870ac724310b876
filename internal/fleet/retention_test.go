package fleet

import (
	"context"
	"encoding/json"
	"testing"

	"easeio/internal/check"
	"easeio/internal/experiments"
)

// TestFinishedCheckJobKeepsPackedReport pins how a finished check job
// retains its report: packed, never decoded, both when the merge
// finishes it and when WAL replay does, with Wait decoding a fresh
// report that marshals byte-identically to check.Run's.
func TestFinishedCheckJobKeepsPackedReport(t *testing.T) {
	var walPath string
	c := newTestCoordinator(t, func(cfg *CoordinatorConfig) { walPath = cfg.WALPath })
	stop := startLoopback(t, c, 2)

	want, err := check.Run(context.Background(), check.Fig6Bench, experiments.Alpaca,
		check.Config{Failures: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(Spec{Mode: ModeCheck, App: "fig6", Runtime: "Alpaca",
		Failures: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitResult(t, c, id)
	stop()

	verify := func(c *Coordinator, when string) {
		t.Helper()
		c.mu.Lock()
		j := c.jobs[id]
		held, packed := j.result.Report, len(j.report)
		c.mu.Unlock()
		if held != nil || packed == 0 {
			t.Fatalf("%s: finished job holds a decoded report (%v) or no packed one (%d bytes)", when, held != nil, packed)
		}
		first := waitResult(t, c, id)
		got, err := json.Marshal(first.Report)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(wantJSON) {
			t.Errorf("%s: Wait's report JSON differs from check.Run's:\n got %s\nwant %s", when, got, wantJSON)
		}
		first.Report.Divergences = nil
		if again := waitResult(t, c, id); again.Report == first.Report || len(again.Report.Divergences) != len(want.Divergences) {
			t.Errorf("%s: a later Wait shares the report an earlier one returned", when)
		}
	}
	verify(c, "after merge")
	c.Close()

	replayed, err := New(CoordinatorConfig{WALPath: walPath, Source: testApps})
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	verify(replayed, "after WAL replay")
}
