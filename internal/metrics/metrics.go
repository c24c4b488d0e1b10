// Package metrics provides the performance instrumentation used by the
// benchmark harness: zone-update throughput and the table formatting
// that reproduces the paper's reported rows (Mzups, parallel efficiency,
// speedup).
package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Throughput converts zone updates and elapsed time into the standard
// mega-zone-updates-per-second figure of merit.
func Throughput(zoneUpdates int64, elapsed time.Duration) float64 {
	s := elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(zoneUpdates) / s / 1e6
}

// Speedup returns t1/tp.
func Speedup(t1, tp time.Duration) float64 {
	if tp <= 0 {
		return 0
	}
	return t1.Seconds() / tp.Seconds()
}

// Efficiency returns the parallel efficiency t1/(p·tp) in percent.
func Efficiency(t1, tp time.Duration, p int) float64 {
	if tp <= 0 || p <= 0 {
		return 0
	}
	return 100 * t1.Seconds() / (float64(p) * tp.Seconds())
}

// Imbalance returns the load-imbalance factor (max − mean)/mean of the
// per-rank loads: 0 for a perfect partition, 1 when the busiest rank
// carries twice the average. This is the standard AMR load-balance
// figure; a lockstep run loses exactly this fraction of its time to
// waiting.
func Imbalance(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	max, sum := loads[0], 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
		sum += l
	}
	mean := sum / float64(len(loads))
	if mean <= 0 {
		return 0
	}
	return (max - mean) / mean
}

// Table accumulates rows and renders an aligned text table, the output
// format of every experiment in EXPERIMENTS.md.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v, and float64 values
// with 4 significant digits.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case time.Duration:
			row[i] = x.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(x)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	for i, h := range t.Headers {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	b.WriteByte('\n')
	for i := range t.Headers {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
