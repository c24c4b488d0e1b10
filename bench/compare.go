package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// ledger is the file a performance claim cites: every metric of every
// workload of one commit on one host, with what it takes to compare it.
type ledger struct {
	Host    hostInfo    `json:"host"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Quick   bool        `json:"quick,omitempty"`
	Rows    []ledgerRow `json:"rows"`
}

type ledgerRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Kind     string  `json:"kind"` // "end_to_end" or "per_layer"
	Better   string  `json:"better"`
	Bound    float64 `json:"bound,omitempty"`
	Spread   float64 `json:"spread,omitempty"` // IQR over median of the samples behind Value
	Note     string  `json:"note,omitempty"`
}

func ledgerOf(cfg runConfig, results []*result) ledger {
	l := ledger{Host: host(), Seed: cfg.Seed, Seconds: cfg.Seconds, Quick: cfg.Quick}
	for _, r := range results {
		for _, m := range metricDefs {
			v, ok := r.Values[m.Name]
			if !ok {
				continue
			}
			kind := "per_layer"
			if m.EndToEnd {
				kind = "end_to_end"
			}
			l.Rows = append(l.Rows, ledgerRow{
				Workload: r.Workload, Metric: m.Name, Value: v, Unit: m.Unit, Kind: kind,
				Better: m.Better, Bound: m.Bound, Spread: r.Spread[m.Name], Note: r.Note[m.Name],
			})
		}
	}
	return l
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictViolation  = "VIOLATION"
	verdictUnresolved = "unresolved"
	verdictInfo       = "-" // per-layer rows carry no bound
)

// worseBy is the share of the base by which b is worse than a, negative
// when it is better.
func worseBy(a, b float64, better string) float64 {
	d := b - a
	if better == "higher" {
		d = a - b
	}
	switch {
	case d == 0:
		return 0
	case a == 0:
		return math.Copysign(math.Inf(1), d)
	}
	return d / math.Abs(a)
}

// judgeRow applies an end-to-end metric's bound. A row whose own samples
// spread wider than the bound cannot tell a regression of that size from
// noise, so it is unresolved rather than ok or violated.
func judgeRow(a, b ledgerRow) string {
	if a.Kind != "end_to_end" {
		return verdictInfo
	}
	if a.Bound > 0 && math.Max(a.Spread, b.Spread) > a.Bound {
		return verdictUnresolved
	}
	if worseBy(a.Value, b.Value, a.Better) > a.Bound {
		return verdictViolation
	}
	return verdictOK
}

// compareLedgers prints every row of base beside the same row of next,
// with the base value, the ratio next/base and the verdict, and returns an
// error when a bound is violated or a bounded row has gone missing.
func compareLedgers(w io.Writer, basePath, nextPath string) error {
	var base, next ledger
	if err := readJSON(basePath, &base); err != nil {
		return err
	}
	if err := readJSON(nextPath, &next); err != nil {
		return err
	}
	if base.Host.NumCPU != next.Host.NumCPU || base.Seconds != next.Seconds || base.Quick != next.Quick {
		fmt.Fprintf(w, "warning: ledgers differ in host or settings: %+v %gs vs %+v %gs\n",
			base.Host, base.Seconds, next.Host, next.Seconds)
	}
	type key struct{ w, m string }
	byKey := map[key]ledgerRow{}
	for _, r := range next.Rows {
		byKey[key{r.Workload, r.Metric}] = r
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnext\tnext/base\tbound\tspread\tverdict")
	violations, unresolved := 0, 0
	for _, a := range base.Rows {
		b, ok := byKey[key{a.Workload, a.Metric}]
		if !ok {
			if a.Kind == "end_to_end" {
				violations++
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\tmissing\t\t\t\t%s\n", a.Workload, a.Metric, a.Unit, a.Value, verdictViolation)
			}
			continue
		}
		v := judgeRow(a, b)
		switch v {
		case verdictViolation:
			violations++
		case verdictUnresolved:
			unresolved++
		}
		ratio := "-"
		if a.Value != 0 {
			ratio = fmt.Sprintf("%.4f", b.Value/a.Value)
		}
		bound := ""
		if a.Kind == "end_to_end" {
			bound = fmt.Sprintf("%g", a.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%s\t%s\t%.3f\t%s\n",
			a.Workload, a.Metric, a.Unit, a.Value, b.Value, ratio, bound, math.Max(a.Spread, b.Spread), v)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d violation(s), %d unresolved\n", violations, unresolved)
	if violations > 0 {
		return fmt.Errorf("%d bound violation(s) between %s and %s", violations, basePath, nextPath)
	}
	return nil
}
