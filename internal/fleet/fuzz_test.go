package fleet

import (
	"encoding/hex"
	"reflect"
	"testing"
	"time"

	"easeio/internal/check"
)

// FuzzDecodeWALRecord drives the WAL record decoder with arbitrary
// bytes: it must never panic, and any record it accepts must re-encode
// to bytes that decode to an equal record — replaying a log that an
// earlier replay rewrote changes nothing. The seeds are one record of
// each type plus an adaptive-era submit record in the frozen layout.
func FuzzDecodeWALRecord(f *testing.F) {
	for _, r := range []record{
		{Type: recSubmit, Job: 3, Spec: Spec{Mode: ModeCheck, App: "fig6", Runtime: "Alpaca",
			Seed: 17, Off: 3 * time.Millisecond, Failures: 2, Shards: 4, ShardWorkers: 2}},
		{Type: recPlan, Job: 3, Plan: &check.Plan{App: "fig6-app", Runtime: "Alpaca",
			GoldenOnTime: time.Second, GoldenCorrect: true, Candidates: 9},
			Shards: [][2]int{{0, 1}, {1, 2}}, Level1: []byte{0xA}, Tasks: [][]byte{{1}, {2, 3}}},
		{Type: recLease, Job: 3, Shard: 1, Worker: "w0", At: 12345},
		{Type: recShardDone, Job: 3, Shard: 1, Payload: []byte{1, 2, 3}},
		{Type: recShardFail, Job: 3, Shard: 0, Err: "boom", At: 987654321},
		{Type: recJobDone, Job: 3, Payload: []byte{9}, Errs: []string{"run 4: x"}},
		{Type: recJobFail, Job: 4, Err: "gave up"},
	} {
		f.Add(r.encode())
	}
	adaptive, err := hex.DecodeString(adaptiveSubmitHex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(adaptive)

	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := decodeRecord(b)
		if err != nil {
			return
		}
		r2, err := decodeRecord(r.encode())
		if err != nil {
			t.Fatalf("re-decode of %s record failed: %v", r.Type, err)
		}
		if !reflect.DeepEqual(r2, r) {
			t.Fatalf("%s record changed across re-encoding:\n got %+v\nwant %+v", r.Type, r2, r)
		}
	})
}
