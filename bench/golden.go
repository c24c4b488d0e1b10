package main

import (
	"bytes"
	"embed"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// The golden radial density profiles are compiled in, so the check does
// not depend on the directory the benchmark is started from.
//
//go:embed golden/*.csv
var goldenFS embed.FS

// goldenDir is where -update-golden writes, relative to the repository
// root it must be run from.
const goldenDir = "bench/golden"

func readGolden(name string) ([]float64, error) {
	blob, err := goldenFS.ReadFile("golden/" + name + ".csv")
	if err != nil {
		return nil, fmt.Errorf("no golden profile %q (run with -update-golden from the repository root): %w", name, err)
	}
	rows, err := csv.NewReader(bytes.NewReader(blob)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("golden profile %q: %w", name, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("golden profile %q is empty", name)
	}
	var out []float64
	for _, row := range rows[1:] {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("golden profile %q: %w", name, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// writeGolden stores the profile with every digit, so reading it back on
// the same platform compares exactly.
func writeGolden(name string, prof []float64) error {
	var b bytes.Buffer
	b.WriteString("bin,rho\n")
	for i, v := range prof {
		fmt.Fprintf(&b, "%d,%s\n", i, strconv.FormatFloat(v, 'g', 17, 64))
	}
	return os.WriteFile(filepath.Join(goldenDir, name+".csv"), b.Bytes(), 0o644)
}
