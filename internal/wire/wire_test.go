package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"easeio/internal/check"
	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/power"
	"easeio/internal/rtbase"
	"easeio/internal/stats"
)

// captureCheckpoints runs the fig6 bench under kind on a timer supply
// and returns mid-run checkpoints (every strideth charge-slice cut) plus
// the end-of-run state.
func captureCheckpoints(t testing.TB, kind experiments.RuntimeKind, stride int) []*kernel.Checkpoint {
	t.Helper()
	bench, err := check.Fig6Bench()
	if err != nil {
		t.Fatal(err)
	}
	dev := kernel.NewDevice(experiments.TimerSupply(), 42)
	sink := &snapSink{dev: dev, stride: stride}
	dev.Cuts = sink
	if err := kernel.RunApp(dev, experiments.NewRuntime(kind), bench.App); err != nil {
		t.Fatal(err)
	}
	return append(sink.cps, dev.Snapshot())
}

type snapSink struct {
	dev    *kernel.Device
	stride int
	n      int
	cps    []*kernel.Checkpoint
}

func (s *snapSink) NoteCut(time.Duration) {
	if s.n++; s.n%s.stride == 0 {
		s.cps = append(s.cps, s.dev.Snapshot())
	}
}

// reEncode decodes an encoded checkpoint and encodes the result again.
func reEncode(t *testing.T, b []byte) []byte {
	t.Helper()
	st, err := DecodeCheckpointState(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return AppendCheckpointState(nil, st)
}

// TestCheckpointRoundTrip pins that a live checkpoint survives the wire:
// encode → decode → re-encode is byte-identical, for mid-run and
// end-of-run checkpoints across every runtime.
func TestCheckpointRoundTrip(t *testing.T) {
	kinds := []experiments.RuntimeKind{
		experiments.Alpaca, experiments.InK, experiments.EaseIO, experiments.JustDo,
	}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cps := captureCheckpoints(t, kind, 3)
			if len(cps) < 2 {
				t.Fatalf("only %d checkpoints captured", len(cps))
			}
			for i, cp := range cps {
				b, err := EncodeCheckpoint(nil, cp)
				if err != nil {
					t.Fatalf("checkpoint %d: encode: %v", i, err)
				}
				if got := PeekKind(b); got != KindCheckpoint {
					t.Fatalf("checkpoint %d: PeekKind = %v", i, got)
				}
				if b2 := reEncode(t, b); !bytes.Equal(b, b2) {
					t.Errorf("checkpoint %d: re-encode differs (%d vs %d bytes)", i, len(b), len(b2))
				}
			}
		})
	}
}

// TestCheckpointRestoreFidelity pins that a checkpoint shipped through
// the wire restores a device to exactly the state the original
// checkpoint restores: decode+import on the far side, restore into a
// fresh device, and the device's own re-snapshot encodes byte-identically
// to a restore of the in-process original.
func TestCheckpointRestoreFidelity(t *testing.T) {
	for _, cp := range captureCheckpoints(t, experiments.EaseIO, 2) {
		b, err := EncodeCheckpoint(nil, cp)
		if err != nil {
			t.Fatal(err)
		}
		remote, err := DecodeCheckpoint(b)
		if err != nil {
			t.Fatal(err)
		}

		restoreState := func(from *kernel.Checkpoint) []byte {
			bench, err := check.Fig6Bench()
			if err != nil {
				t.Fatal(err)
			}
			dev := kernel.NewDevice(experiments.TimerSupply(), 42)
			rt := experiments.NewRuntime(experiments.EaseIO)
			if err := rt.Attach(dev, bench.App); err != nil {
				t.Fatal(err)
			}
			dev.Restore(from)
			out, err := EncodeCheckpoint(nil, dev.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			return out
		}

		if local, far := restoreState(cp), restoreState(remote); !bytes.Equal(local, far) {
			t.Fatal("device restored from decoded checkpoint differs from device restored from original")
		}
	}
}

// TestCheckpointDecodeErrors pins the decoder's rejection paths: wrong
// kind, truncation anywhere, and trailing garbage all error out (never
// panic — the fuzz target widens this).
func TestCheckpointDecodeErrors(t *testing.T) {
	cp := captureCheckpoints(t, experiments.EaseIO, 8)[0]
	b, err := EncodeCheckpoint(nil, cp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSweepShard(b); err == nil {
		t.Error("decoding a checkpoint as a sweep shard succeeded")
	}
	for _, cut := range []int{0, 1, 3, len(b) / 2, len(b) - 1} {
		if _, err := DecodeCheckpointState(b[:cut]); err == nil {
			t.Errorf("decoding %d-byte prefix succeeded", cut)
		}
	}
	if _, err := DecodeCheckpointState(append(bytes.Clone(b), 0)); err == nil {
		t.Error("decoding with a trailing byte succeeded")
	}
	bad := bytes.Clone(b)
	bad[2] = Version + 1
	if _, err := DecodeCheckpointState(bad); err == nil {
		t.Error("decoding an unknown version succeeded")
	}
}

// TestShardMessagesRoundTrip covers the fleet's control-plane messages
// with representative values, including empty and non-empty slices.
func TestShardMessagesRoundTrip(t *testing.T) {
	ss := SweepShard{Job: 7, Shard: 2, App: "weather-db", Runtime: "ease-io",
		BaseSeed: -12345, Lo: 250, Hi: 500, Workers: 4}
	gotSS, err := DecodeSweepShard(AppendSweepShard(nil, ss))
	if err != nil || gotSS != ss {
		t.Errorf("sweep shard: got %+v, %v; want %+v", gotSS, err, ss)
	}

	cs := CheckShard{Job: 8, Shard: 0, App: "dma", Runtime: "alpaca", Seed: 99,
		Off: 3 * time.Millisecond, FromBoot: true, CutLo: 10, CutHi: 64, Workers: 2}
	gotCS, err := DecodeCheckShard(AppendCheckShard(nil, cs))
	if err != nil || gotCS != cs {
		t.Errorf("check shard: got %+v, %v; want %+v", gotCS, err, cs)
	}

	sr := SweepResult{Job: 7, Shard: 2, Errs: []string{"run 3: boom"}}
	sr.Agg = stats.AggregatorState{App: "fir", Runtime: "ink", Runs: 3,
		Energy: 1234, OnTime: time.Second, WallTime: 2 * time.Second,
		PowerFailures: 17, IOExecs: 41, Correct: 2, Incorrect: 1,
		Totals: []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}}
	sr.Agg.Work[0] = stats.Totals{T: time.Millisecond, E: 5}
	gotSR, err := DecodeSweepResult(AppendSweepResult(nil, sr))
	if err != nil || !reflect.DeepEqual(gotSR, sr) {
		t.Errorf("sweep result: got %+v, %v; want %+v", gotSR, err, sr)
	}

	cr := CheckResult{Job: 8, Shard: 1, Explored: 40, Pruned: 3,
		Divergences: []check.Divergence{
			{At: time.Millisecond, Index: 12, Kind: "memory", Detail: "word 7"},
			{At: 2 * time.Millisecond, Index: 13, Kind: "output", Detail: "verdict"},
		}}
	gotCR, err := DecodeCheckResult(AppendCheckResult(nil, cr))
	if err != nil || !reflect.DeepEqual(gotCR, cr) {
		t.Errorf("check result: got %+v, %v; want %+v", gotCR, err, cr)
	}

	// Empty-slice forms decode to nil slices, not empty non-nil ones.
	empty := SweepResult{Job: 1, Shard: 0}
	gotEmpty, err := DecodeSweepResult(AppendSweepResult(nil, empty))
	if err != nil || !reflect.DeepEqual(gotEmpty, empty) {
		t.Errorf("empty sweep result: got %+v, %v", gotEmpty, err)
	}
}

// TestShardLayoutFrozen pins the check and subtree shard layouts to
// bytes captured before the exhaustive flag and grid size were retired
// (both written as true and 0 then): they must decode, and re-encode to
// the same bytes, so a coordinator replaying an older WAL hands workers
// the shards it planned.
func TestShardLayoutFrozen(t *testing.T) {
	const checkHex = "45570203080203646d6106416c70616361c601809bee020014800101000402"
	wantCS := CheckShard{Job: 8, Shard: 1, App: "dma", Runtime: "Alpaca", Seed: 99,
		Off: 3 * time.Millisecond, CutLo: 10, CutHi: 64, Workers: 2, Failures: 1}
	const subtreeHex = "45570208030404666967360645617365494f5480897a04010004010180ade2040604" +
		"deadbeef020102040601020004"
	wantSS := SubtreeShard{Job: 3, Shard: 2, App: "fig6", Runtime: "EaseIO", Seed: 42,
		Off: time.Millisecond, Failures: 2, Workers: 2,
		Roots: []SubtreeRoot{{
			Schedule:   []time.Duration{5 * time.Millisecond},
			Collapsed:  3,
			Checkpoint: []byte{0xde, 0xad, 0xbe, 0xef},
			RT: rtbase.BaseWireState{Cur: 1,
				Slots:    []rtbase.IOSlotState{{TaskID: 1, TaskInst: 2, ExecCount: 3, Completed: true}},
				TaskInst: []int32{0, 2}},
		}}}

	b, err := hex.DecodeString(checkHex)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := DecodeCheckShard(b)
	if err != nil || cs != wantCS {
		t.Errorf("check shard fixture: got %+v, %v; want %+v", cs, err, wantCS)
	}
	if got := AppendCheckShard(nil, cs); !bytes.Equal(got, b) {
		t.Errorf("check shard re-encodes to %x, want %x", got, b)
	}

	b, err = hex.DecodeString(subtreeHex)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := DecodeSubtreeShard(b)
	if err != nil || !reflect.DeepEqual(ss, wantSS) {
		t.Errorf("subtree shard fixture: got %+v, %v; want %+v", ss, err, wantSS)
	}
	if got := AppendSubtreeShard(nil, ss); !bytes.Equal(got, b) {
		t.Errorf("subtree shard re-encodes to %x, want %x", got, b)
	}
}

// TestShardIDs covers the one job/shard reader over all six shard task
// and result kinds: it reports the ids and whether the message is a
// result, and rejects truncated messages (it decodes in full) and
// messages of other kinds.
func TestShardIDs(t *testing.T) {
	for _, tc := range []struct {
		msg    []byte
		result bool
	}{
		{AppendSweepShard(nil, SweepShard{Job: 7, Shard: 3, App: "dma", Runtime: "EaseIO", Hi: 8}), false},
		{AppendCheckShard(nil, CheckShard{Job: 7, Shard: 3, App: "fig6", Runtime: "InK"}), false},
		{AppendSubtreeShard(nil, SubtreeShard{Job: 7, Shard: 3, App: "fig6", Runtime: "InK", Failures: 2}), false},
		{AppendSweepResult(nil, SweepResult{Job: 7, Shard: 3}), true},
		{AppendCheckResult(nil, CheckResult{Job: 7, Shard: 3, Explored: 4}), true},
		{AppendSubtreeResult(nil, SubtreeResult{Job: 7, Shard: 3}), true},
	} {
		kind := PeekKind(tc.msg)
		job, shard, result, err := ShardIDs(tc.msg)
		if err != nil || job != 7 || shard != 3 || result != tc.result {
			t.Errorf("%v: got job %d shard %d result %v err %v", kind, job, shard, result, err)
		}
		if _, _, _, err := ShardIDs(tc.msg[:len(tc.msg)-1]); err == nil {
			t.Errorf("%v: truncated message accepted", kind)
		}
	}
	if _, _, _, err := ShardIDs(AppendSummary(nil, stats.Summary{})); err == nil {
		t.Error("summary message accepted as a shard")
	}
}

// TestSummaryReportRoundTrip covers the WAL's merged-outcome payloads.
func TestSummaryReportRoundTrip(t *testing.T) {
	sum := stats.Summary{App: "temp", Runtime: "just-do", Runs: 100,
		PowerFailures: 900, IOExecs: 5000, IORepeats: 70, IOSkips: 30,
		DMAExecs: 12, MeanEnergy: 777, MeanOnTime: time.Second,
		MeanWallTime: 3 * time.Second, P50TotalTime: 900 * time.Millisecond,
		P95TotalTime: 2 * time.Second, CorrectRuns: 99, IncorrectRuns: 1}
	sum.Work[1] = stats.Totals{T: time.Minute, E: 42}
	gotSum, err := DecodeSummary(AppendSummary(nil, sum))
	if err != nil || gotSum != sum {
		t.Errorf("summary: got %+v, %v; want %+v", gotSum, err, sum)
	}

	rep := check.Report{App: "branch", Runtime: "ease-io", Seed: 5,
		Off: 3 * time.Millisecond, GoldenOnTime: 80 * time.Millisecond,
		GoldenCorrect: true, Candidates: 64, Explored: 64, Note: "",
		Divergences: []check.Divergence{{At: time.Millisecond, Index: 3, Kind: "ledger", Detail: "pending"}},
		Minimal:     []time.Duration{time.Millisecond}}
	gotRep, err := DecodeReport(AppendReport(nil, rep))
	if err != nil || !reflect.DeepEqual(gotRep, rep) {
		t.Errorf("report: got %+v, %v; want %+v", gotRep, err, rep)
	}
}

// TestFrames pins the framing contract: clean boundary EOF, torn tails,
// and CRC corruption are three distinguishable outcomes.
func TestFrames(t *testing.T) {
	var log []byte
	payloads := [][]byte{[]byte("first"), {}, []byte("third-longer-payload")}
	for _, p := range payloads {
		log = AppendFrame(log, p)
	}

	r := bytes.NewReader(log)
	for i, want := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %q, want %q", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("clean boundary: got %v, want io.EOF", err)
	}

	// Every possible torn tail either reads cleanly short or reports
	// ErrTornFrame — never a corrupt payload and never a panic.
	for cut := 1; cut < len(log); cut++ {
		r := bytes.NewReader(log[:cut])
		for {
			_, err := ReadFrame(r)
			if err == nil {
				continue
			}
			if err == io.EOF || errors.Is(err, ErrTornFrame) {
				break
			}
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
	}

	// Flipping a payload byte is caught by the CRC.
	bad := bytes.Clone(log)
	bad[FrameOverhead] ^= 0xff
	if _, err := ReadFrame(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("corrupt payload: got %v, want ErrCorruptFrame", err)
	}

	// An absurd length field is rejected before allocating.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("huge length: got %v, want ErrCorruptFrame", err)
	}
}

// TestWriteFrame pins the io.Writer path against AppendFrame.
func TestWriteFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if want := AppendFrame(nil, []byte("payload")); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("WriteFrame wrote %x, want %x", buf.Bytes(), want)
	}
	got, err := ReadFrame(&buf)
	if err != nil || string(got) != "payload" {
		t.Fatalf("read back %q, %v", got, err)
	}
}

// TestSupplyStateVariety pins that every serializable supply kind
// survives the checkpoint encoding, including the harvested supply's
// float gain.
func TestSupplyStateVariety(t *testing.T) {
	cp := captureCheckpoints(t, experiments.EaseIO, 8)[0]
	st, err := cp.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range []power.WireState{
		{Kind: power.WireContinuous},
		{Kind: power.WireSchedule, Fired: 3},
		{Kind: power.WireTimer, NextAt: 7 * time.Millisecond, Seed: -4, Draws: 19},
		{Kind: power.WireHarvested, Stored: 123456, Gain: 0.8125, Dead: true},
	} {
		st.HasSupply, st.SupplyName, st.Supply = true, ws.Kind, ws
		b := AppendCheckpointState(nil, st)
		got, err := DecodeCheckpointState(b)
		if err != nil {
			t.Fatalf("%s: %v", ws.Kind, err)
		}
		if got.Supply != ws {
			t.Errorf("%s: got %+v, want %+v", ws.Kind, got.Supply, ws)
		}
		if _, err := kernel.ImportCheckpoint(got); err != nil {
			t.Errorf("%s: import: %v", ws.Kind, err)
		}
	}
}
