// Command rtsebench regenerates every table and figure of the paper's
// evaluation (§VII) and prints them as text. By default it runs a reduced
// configuration that finishes in seconds; -paper switches to the full
// 607-road / 30-day setup.
//
//	rtsebench [-paper] [-rq N] [-only tableII,fig2,fig3,fig3dape,fig3theta,tableIII,fig4,fig5,fig6,ablate]
//
// It also owns the recorded bench suites that guard the later additions
// (suite.go holds the registry):
//
//	qps        BENCH_PR2.json   legacy vs sharded oracle throughput sweep
//	lifecycle  BENCH_PR3.json   snapshot save/load, hot-swap, refit drill
//	batch      BENCH_PR5.json   Batcher coalescing sweep ratio, warm starts
//	load       BENCH_PR6.json   diurnal overload replay against QoS admission
//	metro      BENCH_PR7.json   100k-road sharded e2e latency, shards × clients
//	temporal   BENCH_PR8.json   per-slot GSP vs the state-space filter
//	calib      BENCH_PR9.json   interval coverage, variance-minimizing OCS
//	route      BENCH_PR10.json  route ETA coverage, route-aware OCS
//
// -record <suite> runs one suite at full size and writes its file (in the
// working directory; -paper sizes the experiment environment). -check is the
// perf-regression gate of `make check`: it validates every checked-in file
// and re-runs each suite at a reduced size against it, exiting 1 on the first
// regression:
//
//	rtsebench -record metro
//	rtsebench -check
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	paper := flag.Bool("paper", false, "run the full paper-scale configuration (607 roads, 30 days)")
	only := flag.String("only", "", "comma-separated subset of experiments to run")
	rq := flag.Int("rq", 0, "override the query size |R^q| (the paper uses 33 and 51)")
	record := flag.String("record", "", "record one bench suite's baseline file: "+suiteNames())
	check := flag.Bool("check", false, "gate every checked-in bench baseline against a fresh reduced run")
	flag.Parse()

	var err error
	switch {
	case *check:
		err = runCheck(os.Stdout)
	case *record != "":
		err = runRecord(*record, *paper)
	default:
		err = run(*paper, *only, *rq)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtsebench:", err)
		os.Exit(1)
	}
}

// runRecord records one suite at full size.
func runRecord(name string, paper bool) error {
	s, err := findSuite(name)
	if err != nil {
		return err
	}
	fx := &fixture{opt: experiments.Small()}
	if paper {
		fx.opt = experiments.Paper()
	}
	return s.record(fx, os.Stdout)
}

func run(paper bool, only string, querySize int) error {
	opt := experiments.Small()
	budgets := []int{10, 15, 20, 25, 30}
	fig5Sizes := []int{20, 40, 60, 80}
	fig6Budgets := []int{5, 10, 15, 20}
	dapeBudget := 10
	if paper {
		opt = experiments.Paper()
		budgets = []int{30, 60, 90, 120, 150}
		fig5Sizes = []int{150, 300, 450, 600}
		fig6Budgets = []int{10, 20, 30, 40, 50}
		dapeBudget = 30
	}

	if querySize > 0 {
		opt.QuerySize = querySize
	}

	want := map[string]bool{}
	if only != "" {
		for _, name := range strings.Split(only, ",") {
			want[strings.TrimSpace(strings.ToLower(name))] = true
		}
	}
	enabled := func(name string) bool { return len(want) == 0 || want[name] }

	fmt.Printf("CrowdRTSE experiment harness (paper=%v, roads=%d, days=%d)\n\n", paper, opt.Roads, opt.Days)

	if enabled("tableii") {
		rows, err := experiments.TableII(opt)
		if err != nil {
			return err
		}
		experiments.RenderTableII(os.Stdout, rows)
		fmt.Println()
	}

	if enabled("fig2") {
		start := time.Now()
		rows, err := experiments.Figure2(opt, budgets)
		if err != nil {
			return err
		}
		experiments.RenderFigure2(os.Stdout, rows)
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	var env *experiments.Env
	needEnv := enabled("fig3") || enabled("fig3dape") || enabled("fig3theta") ||
		enabled("tableiii") || enabled("fig4")
	if needEnv {
		var err error
		env, err = experiments.NewEnv(opt)
		if err != nil {
			return err
		}
	}

	if enabled("fig3") {
		start := time.Now()
		rows, err := experiments.Figure3(env,
			[]core.Selector{core.Hybrid, core.Objective, core.RandomSel}, budgets, 0.92)
		if err != nil {
			return err
		}
		experiments.RenderFigure3(os.Stdout, rows)
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	if enabled("fig3dape") {
		rows, err := experiments.Figure3DAPE(env, dapeBudget)
		if err != nil {
			return err
		}
		experiments.RenderFigure3DAPE(os.Stdout, rows)
		fmt.Println()
	}

	if enabled("fig3theta") {
		rows, err := experiments.Figure3Theta(env, budgets)
		if err != nil {
			return err
		}
		experiments.RenderFigure3Theta(os.Stdout, rows)
		fmt.Println()
	}

	if enabled("tableiii") {
		rows, err := experiments.TableIII(env, budgets)
		if err != nil {
			return err
		}
		experiments.RenderTableIII(os.Stdout, rows, budgets)
		fmt.Println()
	}

	if enabled("fig4") {
		a, err := experiments.Figure4a(env, budgets)
		if err != nil {
			return err
		}
		b, err := experiments.Figure4b(env, budgets)
		if err != nil {
			return err
		}
		experiments.RenderFigure4(os.Stdout, a, b)
		fmt.Println()
	}

	if enabled("fig5") {
		start := time.Now()
		rows, err := experiments.Figure5(opt, fig5Sizes, 0.5)
		if err != nil {
			return err
		}
		experiments.RenderFigure5(os.Stdout, rows)
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	if enabled("fig6") {
		start := time.Now()
		rows, err := experiments.Figure6(opt, fig6Budgets)
		if err != nil {
			return err
		}
		experiments.RenderFigure6(os.Stdout, rows)
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}

	if enabled("ablate") {
		if env == nil {
			var err error
			env, err = experiments.NewEnv(opt)
			if err != nil {
				return err
			}
		}
		rows, err := experiments.AblateTransforms(env, budgets)
		if err != nil {
			return err
		}
		experiments.RenderAblateTransforms(os.Stdout, rows)
		fmt.Println()
	}

	return nil
}
