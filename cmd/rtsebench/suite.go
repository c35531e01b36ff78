// The bench-suite registry. Every recorded benchmark is one table entry: its
// BENCH file, one report type (marshalled by -record, unmarshalled by
// -check), one drive sized by a per-entry constant (full for -record, reduced
// for -check), and one pass predicate. -record <suite> drives the full size,
// judges the run with the predicate and writes the file; -check judges each
// checked-in file with the same predicate, then drives the reduced size and
// judges the fresh run against that baseline.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

// Gate tolerances.
const (
	// tol is the max tolerated fractional loss of throughput (qps) and of
	// the coalescing sweep ratio (batch).
	tol = 0.25
	// latFactor is the max tolerated lifecycle-latency blowup: the gate is
	// deliberately loose, because single-digit-millisecond filesystem and
	// swap latencies are noisy on shared machines.
	latFactor = 5.0
	// p99Tol is the max tolerated fractional alerting-p99 regression (load).
	p99Tol = 0.25
)

// theta is the paper's default OCS coverage threshold.
const theta = 0.92

// servingLevel is the nominal credible level the coverage gates judge: the
// serving default.
const servingLevel = 0.9

// coverageLevels is the nominal-level axis of the recorded coverage sweeps.
var coverageLevels = []float64{0.5, 0.8, 0.9, 0.95}

// suite is one registry entry. R is the report (the BENCH file schema), S
// the drive's size.
type suite[R, S any] struct {
	name  string
	file  string
	full  S // the -record size
	fresh S // the reduced -check size
	// attempts is how many fresh runs -check tries before declaring a
	// regression (0 means one): a tail latency over ~100 samples is close
	// to a max statistic, so a real regression fails every attempt and a
	// scheduler hiccup does not.
	attempts int
	drive    func(fx *fixture, size S, w io.Writer) (*R, error)
	// pass judges run. With base nil, run is a full-size record — a
	// checked-in baseline, or a run about to be written — and must meet the
	// suite's targets on its own. With base set, run is a fresh reduced run
	// and must also not regress past the tolerances relative to base. It
	// prints its gate lines to w.
	pass func(base, run *R, w io.Writer) error
}

// bench is the type-erased view of a suite the registry holds.
type bench interface {
	id() string
	record(fx *fixture, w io.Writer) error
	check(fx *fixture, w io.Writer) error
}

// suites is the registry, in -check order.
var suites = []bench{qpsSuite, lifecycleSuite, batchSuite, loadSuite, metroSuite, temporalSuite, calibSuite, routeSuite}

func (s *suite[R, S]) id() string { return s.name }

// record drives the full size and writes the report. A run that fails its
// own predicate is not written: -record never leaves a baseline that -check
// would reject.
func (s *suite[R, S]) record(fx *fixture, w io.Writer) error {
	rep, err := s.drive(fx, s.full, w)
	if err != nil {
		return err
	}
	if err := s.pass(nil, rep, w); err != nil {
		return fmt.Errorf("%s: not written: %w", s.file, err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(s.file, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: wrote %s\n", s.name, s.file)
	return nil
}

// check judges the checked-in baseline, then a fresh reduced run against it.
func (s *suite[R, S]) check(fx *fixture, w io.Writer) error {
	base, err := loadReport[R](s.file)
	if err != nil {
		return err
	}
	if err := s.pass(nil, base, w); err != nil {
		return fmt.Errorf("%s: %w", s.file, err)
	}
	attempts := max(s.attempts, 1)
	for attempt := 1; ; attempt++ {
		fresh, err := s.drive(fx, s.fresh, io.Discard)
		if err == nil {
			err = s.pass(base, fresh, w)
		}
		if err == nil {
			return nil
		}
		if attempt == attempts {
			return fmt.Errorf("%s fresh run: %w", s.name, err)
		}
		fmt.Fprintf(w, "rtsebench: %s attempt %d/%d (previous: %v)\n", s.name, attempt+1, attempts, err)
	}
}

// loadReport reads one BENCH file.
func loadReport[R any](path string) (*R, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := new(R)
	if err := json.Unmarshal(raw, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// findSuite looks a suite up by name.
func findSuite(name string) (bench, error) {
	for _, s := range suites {
		if s.id() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown suite %q (have %s)", name, suiteNames())
}

func suiteNames() string {
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.id()
	}
	return strings.Join(names, ", ")
}

// runCheck gates every suite on the reduced configuration.
func runCheck(w io.Writer) error {
	fx := &fixture{opt: experiments.Small()}
	for _, s := range suites {
		if err := s.check(fx, w); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "rtsebench: all gates passed")
	return nil
}

// fixture is what the drives run on: the experiment configuration and its
// environment, built on first use (the load and metro suites need none).
// Drives must leave the environment untouched: -check shares one across
// every suite.
type fixture struct {
	opt experiments.Options
	e   *experiments.Env
}

func (fx *fixture) env() (*experiments.Env, error) {
	if fx.e == nil {
		e, err := experiments.NewEnv(fx.opt)
		if err != nil {
			return nil, err
		}
		fx.e = e
	}
	return fx.e, nil
}

func passFail(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}
