// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI-VIII).  Each experiment returns a Table value that
// renders as text in the same layout as the corresponding paper artefact;
// `div tables` prints them and bench_test.go wraps each one in a
// testing.B benchmark.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier (e.g. "table5", "fig1").
	ID string
	// Title is the paper artefact the table reproduces.
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows are the data rows (already formatted as strings).
	Rows [][]string
	// Notes carry free-form commentary (modelling substitutions, reduced
	// sweep sizes, expected shape versus the paper's numbers).
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			pad := 2
			if i < len(widths) {
				pad = widths[i] - len(cell) + 2
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", pad))
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config controls experiment sizes.  The zero value is the "quick" profile
// suitable for unit tests and laptop benchmarks; Full switches to the paper's
// parameters.
type Config struct {
	// Full enables the paper-sized scalability sweeps and the 1000-run MTTC
	// simulation.  The quick profile reduces hosts, runs and iterations so
	// that the whole suite finishes in minutes on a laptop.
	Full bool
	// Seed drives every randomised component.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

func formatFloat(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

func formatSeconds(seconds float64) string {
	return fmt.Sprintf("%.3f", seconds)
}
