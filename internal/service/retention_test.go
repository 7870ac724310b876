package service

import (
	"context"
	"encoding/json"
	"testing"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/wire"
)

// TestFinishedCheckJobKeepsPackedReport pins how a finished check job
// retains its report: packed, and decoded afresh on every Status. The
// Status JSON must be byte-identical to the same status carrying the
// checker's own report, in process and delegated to the fleet, for
// passing, diverging and nested reports; and no Status may hand out a
// report another Status shares.
func TestFinishedCheckJobKeepsPackedReport(t *testing.T) {
	specs := []JobSpec{
		{App: "temp", Runtime: "EaseIO", Mode: "check", CheckExhaustive: true, BaseSeed: 3},
		{App: "branch", Runtime: "Alpaca", Mode: "check", CheckExhaustive: true},
		{App: "fir", Runtime: "Alpaca", Mode: "check", CheckExhaustive: true},
		{App: "dma", Runtime: "Alpaca", Mode: "check", CheckExhaustive: true, Failures: 2},
	}
	inProc, reg, _, _ := newTestStack(t, 8, 2)
	fleetMgr, freg, coord := newFleetStack(t)
	startWorkers(t, coord, freg, 2)

	for _, m := range []struct {
		name string
		mgr  *Manager
	}{{"in-process", inProc}, {"fleet", fleetMgr}} {
		for _, spec := range specs {
			name := m.name + "/" + spec.App + "/" + spec.Runtime
			j, err := m.mgr.Submit(spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			awaitJob(t, j)
			if st := j.State(); st != Succeeded {
				t.Fatalf("%s: state %v: %+v", name, st, j.Status())
			}
			bp, _ := reg.Lookup(spec.App)
			kind, _ := experiments.ParseRuntimeKind(spec.Runtime)
			want, err := check.Run(context.Background(), bp.Factory, kind, check.Config{
				Seed: spec.BaseSeed, Failures: spec.Failures})
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}

			st := j.Status()
			got, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			st.Check = want
			exp, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(exp) {
				t.Errorf("%s: Status JSON differs from the checker's report:\n got %s\nwant %s", name, got, exp)
			}

			// Scribbling over one status's report must not reach the next.
			first := j.Status()
			first.Check.Divergences, first.Check.Explored = nil, -1
			again, err := json.Marshal(j.Status())
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != string(got) {
				t.Errorf("%s: a later Status shares the report an earlier one returned", name)
			}

			j.mu.Lock()
			packed := j.report
			j.mu.Unlock()
			if raw := wire.AppendReport(nil, *want); len(want.Divergences) > 10 && len(packed) >= len(raw) {
				t.Errorf("%s: retained %d bytes, not below the %d-byte encoding", name, len(packed), len(raw))
			}
		}
	}
}
