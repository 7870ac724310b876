// Command easeio-check model-checks crash consistency: it enumerates
// every charge-slice boundary of a golden continuous-power run, replays
// the app with a single power failure injected at each boundary, and
// differentially compares final non-volatile memory, the output
// verdict and the work ledger against the golden run.
//
// Usage:
//
//	easeio-check [-app NAME|all] [-runtime NAME|all] [-k N]
//	             [-seed S] [-off D] [-workers N] [-fromboot] [-broken]
//
// Every candidate failure point is replayed; -exhaustive is still
// accepted, as a no-op, so existing scripts keep working.
//
// Replays restore golden-prefix checkpoints and simulate only the
// post-failure suffix by default; -fromboot re-simulates every replay
// from boot instead. Both modes render byte-identical reports.
//
// -k explores failure-during-recovery schedules: every schedule injects
// up to k failures, each landing on a charge-slice boundary of the
// previous failure's recovery trajectory (see the checkpoint tree in
// internal/check). The default k=1 is the single-failure checker.
//
// -app accepts the registered blueprint names (easeio-served's registry)
// plus "fig6", the paper's Figure 6 WAR-via-DMA scenario. -broken checks
// fig6 under EaseIO with regional privatization disabled — the seeded-bug
// demonstration: the checker must report a minimal failing schedule.
//
// Exit status: 0 when every checked cell passes, 1 on divergence, 2 on
// usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"easeio/internal/check"
	"easeio/internal/core"
	"easeio/internal/experiments"
	"easeio/internal/kernel"
	"easeio/internal/service"
)

func main() {
	var (
		app      = flag.String("app", "fig6", "blueprint to check (a registered name, \"fig6\", or \"all\")")
		runtimeF = flag.String("runtime", "EaseIO", "runtime to check (Alpaca, InK, EaseIO, JustDo, or \"all\")")
		failures = flag.Int("k", 1, fmt.Sprintf("failures per schedule: k > 1 explores failure-during-recovery (max %d)", check.MaxFailures))
		seed     = flag.Int64("seed", 0, "seed for the golden run and every replay")
		off      = flag.Duration("off", time.Millisecond, "recharge duration of the injected failure")
		workers  = flag.Int("workers", 0, "parallel replays (0 = GOMAXPROCS); results are worker-invariant")
		fromBoot = flag.Bool("fromboot", false, "re-simulate every replay from boot instead of restoring golden-prefix checkpoints (slower; reports are byte-identical)")
		broken   = flag.Bool("broken", false, "seeded-bug demo: disable regional privatization (fig6 under EaseIO must fail)")
	)
	flag.Bool("exhaustive", false, "no-op kept for existing scripts: every candidate failure point is replayed")
	flag.Parse()

	if err := check.ValidateFailures(*failures); err != nil {
		usageError(err)
	}
	cfg := check.Config{
		Seed:     *seed,
		Failures: *failures,
		Off:      *off,
		FromBoot: *fromBoot,
		Workers:  *workers,
	}
	if *broken {
		cfg.NewRuntime = func() kernel.Hooks {
			c := core.DefaultConfig()
			c.RegionalPrivatization = false
			return core.NewWithConfig(c)
		}
		cfg.Label = "EaseIO/NoRegions"
	}

	targets, err := resolveTargets(*app)
	if err != nil {
		usageError(err)
	}
	kinds, err := resolveKinds(*runtimeF)
	if err != nil {
		usageError(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	reports, err := check.Matrix(ctx, targets, kinds, cfg)
	for _, rep := range reports {
		fmt.Println(rep.Render())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "easeio-check:", err)
		os.Exit(1)
	}
	if len(reports) > 1 {
		fmt.Println(check.RenderMatrix(reports))
	}
	for _, rep := range reports {
		if !rep.Passed() {
			os.Exit(1)
		}
	}
}

// resolveTargets maps -app to check targets through the same registry the
// service uses, plus the checker's built-in fig6 scenario.
func resolveTargets(name string) ([]check.Target, error) {
	reg := service.NewRegistry()
	if err := service.RegisterPaperBenches(reg); err != nil {
		return nil, err
	}
	if name == "all" {
		targets := []check.Target{{Name: "fig6", New: check.Fig6Bench}}
		for _, n := range reg.Names() {
			bp, _ := reg.Lookup(n)
			targets = append(targets, check.Target{Name: n, New: bp.Factory})
		}
		return targets, nil
	}
	if name == "fig6" {
		return []check.Target{{Name: "fig6", New: check.Fig6Bench}}, nil
	}
	bp, ok := reg.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown app %q (want fig6, all, or one of %s)",
			name, strings.Join(reg.Names(), ", "))
	}
	return []check.Target{{Name: name, New: bp.Factory}}, nil
}

func resolveKinds(name string) ([]experiments.RuntimeKind, error) {
	if name == "all" {
		return []experiments.RuntimeKind{
			experiments.Alpaca, experiments.InK, experiments.EaseIO, experiments.JustDo,
		}, nil
	}
	kind, err := experiments.ParseRuntimeKind(name)
	if err != nil {
		return nil, err
	}
	return []experiments.RuntimeKind{kind}, nil
}

func usageError(err error) {
	fmt.Fprintln(os.Stderr, "easeio-check:", err)
	flag.Usage()
	os.Exit(2)
}
