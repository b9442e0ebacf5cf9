// Command experiments regenerates the tables and figures of the paper's
// evaluation section over the synthetic datasets.
//
// Usage:
//
//	experiments [-seed N] [-runs N] [-quick]
//	            [-exp all|fig1|fig2|fig3|table2|table3|ablations]
//
// Output is printed as text tables; Table II additionally prints the
// paper's reported numbers and the shape checks documented in DESIGN.md.
// An interrupt (Ctrl-C) cancels the in-flight experiment mid-computation
// through the pipeline's context.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		seed  = flag.Int64("seed", 2010, "root random seed")
		runs  = flag.Int("runs", 5, "independent training draws to average")
		quick = flag.Bool("quick", false, "reduced setup (2 runs) for smoke tests")
		exp   = flag.String("exp", "all", "experiment: all, fig1, fig2, fig3, table2, table3, ablations")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Runs = *runs
	if *quick {
		cfg = experiments.QuickConfig()
		cfg.Seed = *seed
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, *exp); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg experiments.Config, exp string) error {
	runOne := func(name string, f func() error) error {
		start := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	all := exp == "all"
	if all || exp == "fig1" {
		if err := runOne("fig1", func() error {
			f, err := experiments.Figure1(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(f.Render())
			return nil
		}); err != nil {
			return err
		}
	}
	if all || exp == "fig2" {
		if err := runOne("fig2", func() error {
			f, err := experiments.Figure2(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(f.Render())
			fmt.Printf("combined wins per metric: %v\n", f.CombinedWins())
			return nil
		}); err != nil {
			return err
		}
	}
	if all || exp == "fig3" {
		if err := runOne("fig3", func() error {
			f, err := experiments.Figure3(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(f.Render())
			fmt.Printf("combined wins per metric: %v\n", f.CombinedWins())
			return nil
		}); err != nil {
			return err
		}
	}
	if all || exp == "table2" {
		if err := runOne("table2", func() error {
			t, err := experiments.TableII(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			fmt.Println("\npaper-reported values:")
			for _, row := range t.RowLabels() {
				fmt.Printf("  %-18s", row)
				for _, col := range t.Columns() {
					fmt.Printf("  %s=%.4f", col, experiments.PaperTableII[row][col])
				}
				if rw, ok := experiments.RelatedWork[row]; ok {
					fmt.Printf("  related: %s", rw)
				}
				fmt.Println()
			}
			fmt.Println("\nshape checks:")
			for _, line := range experiments.TableIIShapeChecks(t) {
				fmt.Println("  " + line)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if all || exp == "table3" {
		if err := runOne("table3", func() error {
			t, err := experiments.TableIII(ctx, cfg)
			if err != nil {
				return err
			}
			fmt.Print(t.String())
			fmt.Println("\nshape checks:")
			for _, line := range experiments.TableIIIShapeChecks(t) {
				fmt.Println("  " + line)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if exp == "ablations" {
		if err := runOne("ablations", func() error { return runAblations(ctx, cfg) }); err != nil {
			return err
		}
	}
	if !all && exp != "fig1" && exp != "fig2" && exp != "fig3" &&
		exp != "table2" && exp != "table3" && exp != "ablations" {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// runAblations prints every design-choice ablation of DESIGN.md §5.
func runAblations(ctx context.Context, cfg experiments.Config) error {
	type ablation struct {
		title string
		run   func() ([]experiments.AblationResult, error)
	}
	for _, a := range []ablation{
		{"criteria pools (region schemes)", func() ([]experiments.AblationResult, error) {
			return experiments.AblationRegionScheme(ctx, cfg)
		}},
		{"region count k", func() ([]experiments.AblationResult, error) {
			return experiments.AblationRegionK(ctx, cfg, []int{5, 10, 15})
		}},
		{"final clustering step", func() ([]experiments.AblationResult, error) {
			return experiments.AblationClustering(ctx, cfg)
		}},
		{"training fraction", func() ([]experiments.AblationResult, error) {
			return experiments.AblationTrainFraction(ctx, cfg, []float64{0.05, 0.10, 0.20})
		}},
		{"combination method", func() ([]experiments.AblationResult, error) {
			return experiments.AblationCombination(ctx, cfg)
		}},
		{"framework vs R-Swoosh baseline", func() ([]experiments.AblationResult, error) {
			return experiments.BaselineComparison(ctx, cfg)
		}},
	} {
		res, err := a.run()
		if err != nil {
			return fmt.Errorf("%s: %w", a.title, err)
		}
		fmt.Print(experiments.RenderAblation(a.title, res))
	}
	return nil
}
