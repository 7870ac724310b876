// Freshness-oracle tests: the sensor app's staleness bound sits inside
// its Timely window, so runtimes that reuse the stored reading after a
// reboot stay perfectly consistent — the memory and output oracles pass —
// while serving a sample older than the app declared it can tolerate.
// Only the Timely(Δt) divergence class sees that.

package check

import (
	"context"
	"strings"
	"testing"

	"easeio/internal/apps"
	"easeio/internal/experiments"
)

func sensorFactory() (*apps.Bench, error) {
	return apps.NewSensorApp(apps.DefaultSensorConfig())
}

// TestFreshnessOracleSensor pins the demonstration: EaseIO keeps the
// sensor app consistent but stale (every divergence is "timely", none
// are memory/output), while Alpaca and InK re-sense on reboot and pass.
func TestFreshnessOracleSensor(t *testing.T) {
	t.Parallel()
	cases := []struct {
		kind      experiments.RuntimeKind
		wantStale bool
	}{
		{experiments.EaseIO, true},
		{experiments.Alpaca, false},
		{experiments.InK, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.kind.String(), func(t *testing.T) {
			t.Parallel()
			rep, err := Run(context.Background(), sensorFactory, tc.kind,
				Config{Workers: 2})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Candidates == 0 || rep.Explored != rep.Candidates {
				t.Fatalf("exhaustive run explored %d of %d candidates", rep.Explored, rep.Candidates)
			}
			timely := 0
			for _, d := range rep.Divergences {
				switch d.Kind {
				case "timely":
					timely++
					if !strings.Contains(d.Detail, "Timely(Δt)") {
						t.Errorf("timely detail %q does not carry the Timely(Δt) tag", d.Detail)
					}
				default:
					// The whole point: staleness is invisible to the
					// memory, output and ledger oracles.
					t.Errorf("unexpected %s divergence at %v: %s", d.Kind, d.At, d.Detail)
				}
			}
			if tc.wantStale && timely == 0 {
				t.Fatalf("%s served no stale reading — the consistent-but-stale gap is gone", tc.kind)
			}
			if !tc.wantStale && timely != 0 {
				t.Fatalf("%s flagged %d timely divergences; it should re-sense on reboot", tc.kind, timely)
			}
		})
	}
}

// TestFreshnessOracleCheckpointedMatchesFromBoot cross-validates the two
// replay modes on a freshness app: the staleness record rides in the
// run record, so restoring a checkpoint must reproduce the sample clocks
// exactly.
func TestFreshnessOracleCheckpointedMatchesFromBoot(t *testing.T) {
	t.Parallel()
	ckpt, err := Run(context.Background(), sensorFactory, experiments.EaseIO,
		Config{Workers: 2})
	if err != nil {
		t.Fatalf("checkpointed: %v", err)
	}
	boot, err := Run(context.Background(), sensorFactory, experiments.EaseIO,
		Config{Workers: 2, FromBoot: true})
	if err != nil {
		t.Fatalf("from-boot: %v", err)
	}
	if a, b := ckpt.Render(), boot.Render(); a != b {
		t.Fatalf("replay modes disagree on the sensor app:\ncheckpointed:\n%s\nfrom-boot:\n%s", a, b)
	}
}

// TestFreshnessNestedReplayModes extends the freshness claims to the
// k=2 checkpoint tree, where depth-2 replays resume from checkpoints
// taken along recovery trajectories: the sample clocks must survive
// that double restore (ckpt vs from-boot byte identity), staleness must
// stay invisible to every oracle but Timely(Δt), and the stale/clean
// split across runtimes must match the single-failure demonstration.
func TestFreshnessNestedReplayModes(t *testing.T) {
	cases := []struct {
		kind      experiments.RuntimeKind
		wantStale bool
	}{
		{experiments.EaseIO, true},
		{experiments.JustDo, true},
		{experiments.Alpaca, false},
		{experiments.InK, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Failures: 2, Workers: 2}
			ckpt, err := Run(context.Background(), sensorFactory, tc.kind, cfg)
			if err != nil {
				t.Fatalf("checkpointed: %v", err)
			}
			cfg.FromBoot = true
			boot, err := Run(context.Background(), sensorFactory, tc.kind, cfg)
			if err != nil {
				t.Fatalf("from-boot: %v", err)
			}
			if a, b := ckpt.Render(), boot.Render(); a != b {
				t.Fatalf("k=2 replay modes disagree on the sensor app:\ncheckpointed:\n%s\nfrom-boot:\n%s", a, b)
			}
			timely := 0
			for _, d := range ckpt.Divergences {
				if d.Kind != "timely" {
					t.Errorf("unexpected %s divergence on schedule %v: %s", d.Kind, d.Schedule, d.Detail)
					continue
				}
				timely++
			}
			if tc.wantStale && timely == 0 {
				t.Fatalf("%s served no stale reading under nested failures", tc.kind)
			}
			if !tc.wantStale && timely != 0 {
				t.Fatalf("%s flagged %d timely divergences at k=2; it should re-sense on reboot", tc.kind, timely)
			}
		})
	}
}
