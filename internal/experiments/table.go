package experiments

import (
	"fmt"
	"strings"
)

// Table is a formatted experiment result: the rows a figure plots. The
// renderers live in sink.go; String is a convenience over the text sink.
type Table struct {
	ID      string // experiment id, e.g. "fig7a"
	Title   string
	Columns []string
	Rows    [][]string
	// Notes records paper-vs-model caveats surfaced by the runner.
	Notes []string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders an aligned text table.
func (t *Table) String() string {
	var b strings.Builder
	// The text sink cannot fail on a strings.Builder.
	_ = t.Emit(NewTextSink(&b))
	return b.String()
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
