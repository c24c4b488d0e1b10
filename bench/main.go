// Command bench is the repository's performance ledger: five fixed
// workloads, end-to-end and per-layer metrics, measured from outside the
// layers through their public functions. See README.md in this directory.
//
//	go run ./bench                       every workload, both passes, ledger to bench/out/ledger.json
//	go run ./bench -workload NAME -trace 0|1   one pass of one workload (the BENCHMARK.json contract)
//	go run ./bench -compare A.json B.json      apply the bounds to two ledgers
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	var cfg runConfig
	var trace int
	var out string
	var compare bool
	flag.StringVar(&cfg.Workload, "workload", "", "run one pass of this workload in this process; empty runs every workload, each pass in a child process")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed: the job sequence of serve-burst, the order of plain and traced rounds elsewhere")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "length of the timed section of one pass")
	flag.IntVar(&trace, "trace", 0, "with -workload: 0 measures the end-to-end metrics with tracing off, 1 records spans and measures the per-layer metrics")
	flag.BoolVar(&cfg.Quick, "quick", false, "toy sizes, for tests")
	flag.StringVar(&out, "out", "", "write the metrics as JSON to this file (default bench/out/ledger.json without -workload)")
	flag.StringVar(&cfg.OutDir, "outdir", "bench/out", "directory for traces and scratch files")
	flag.BoolVar(&cfg.UpdateGolden, "update-golden", false, "rewrite bench/golden from this run (from the repository root)")
	flag.BoolVar(&compare, "compare", false, "compare two ledgers: -compare A.json B.json")
	flag.Parse()
	cfg.Trace = trace != 0

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two ledger files")
			break
		}
		err = compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1))
	case cfg.Workload != "":
		err = runPass(cfg, out)
	default:
		if out == "" {
			out = filepath.Join(cfg.OutDir, "ledger.json")
		}
		err = runLedger(cfg, out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runWorkload runs one pass of one workload in this process.
func runWorkload(cfg runConfig) (*result, error) {
	r := newResult(cfg.Workload, cfg.Seed, cfg.Trace)
	var tr *tracer
	var err error
	switch cfg.Workload {
	case wlFused, wlGeneric, wlHetero:
		tr, err = runSolver(newBlastWL(cfg.Workload, cfg.Quick), cfg, r)
	case wlDamr:
		tr, err = runSolver(newDamrWL(cfg.Quick), cfg, r)
	case wlServe:
		tr, err = runServe(cfg, r)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if ferr := tr.flush(cfg.OutDir); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	return r, r.check()
}

// passOutput is the last line of a pass: the BENCHMARK.json contract.
type passOutput struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]passMetric `json:"metrics"`
}

type passMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractMetrics is what the pass prints on its last line: with tracing
// off the end-to-end metrics defined on every workload, with tracing on
// every other metric, 0 where it is not defined on this workload.
func contractMetrics(r *result) map[string]passMetric {
	out := map[string]passMetric{}
	for _, m := range metricDefs {
		if m.Contract != r.Trace {
			out[m.Name] = passMetric{Value: r.Values[m.Name], Unit: m.Unit}
		}
	}
	return out
}

// runPass runs one pass, prints every metric by name with its unit and
// then the contract line. A failed verification still prints the line,
// with correct false, and exits non-zero.
func runPass(cfg runConfig, out string) error {
	r, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%s seed %d trace %v: %d attempted, %d failed\n%s", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.table())
	for _, msg := range r.Incorrect {
		fmt.Println("  INCORRECT:", msg)
	}
	if out != "" {
		if err := writeJSON(out, ledgerOf(cfg, []*result{r})); err != nil {
			return err
		}
	}
	line, err := json.Marshal(passOutput{
		Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: contractMetrics(r),
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.correct() {
		return fmt.Errorf("%s: %d verification(s) failed", r.Workload, len(r.Incorrect))
	}
	return nil
}

// runLedger runs both passes of every workload, each in a child process of
// its own so heap, GC state and peak memory belong to one workload, and
// merges their metrics into one ledger: end-to-end rows from the pass with
// tracing off, per-layer rows from the traced pass.
func runLedger(cfg runConfig, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	var merged []*result
	var failed []string
	for _, wl := range workloads {
		m := newResult(wl.Name, cfg.Seed, true)
		for _, trace := range []int{0, 1} {
			tmp := filepath.Join(cfg.OutDir, fmt.Sprintf("pass-%s-%d.json", wl.Name, trace))
			args := []string{
				"-workload", wl.Name, "-trace", fmt.Sprint(trace), "-seed", fmt.Sprint(cfg.Seed),
				"-seconds", fmt.Sprint(cfg.Seconds), "-outdir", cfg.OutDir, "-out", tmp,
			}
			if cfg.Quick {
				args = append(args, "-quick")
			}
			if cfg.UpdateGolden {
				args = append(args, "-update-golden")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			report, runErr := cmd.Output()
			// The child's last line is the driver's contract line; the
			// ledger file carries the same numbers.
			if i := bytes.LastIndexByte(bytes.TrimRight(report, "\n"), '\n'); i >= 0 {
				report = report[:i+1]
			}
			os.Stdout.Write(report)
			var l ledger
			if err := readJSON(tmp, &l); err != nil {
				return fmt.Errorf("%s trace %d: %v (%w)", wl.Name, trace, runErr, err)
			}
			os.Remove(tmp)
			if runErr != nil {
				failed = append(failed, fmt.Sprintf("%s trace %d: %v", wl.Name, trace, runErr))
			}
			for _, row := range l.Rows {
				if d, _ := defOf(row.Metric); d.EndToEnd == (trace == 0) {
					m.setStat(row.Metric, row.Value, row.Spread, row.Note)
				}
			}
		}
		merged = append(merged, m)
	}
	if err := writeJSON(out, ledgerOf(cfg, merged)); err != nil {
		return err
	}
	fmt.Println("ledger:", out)
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}
