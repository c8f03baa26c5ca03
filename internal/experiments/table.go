package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
	"unicode/utf8"
)

// table renders aligned experiment rows: the output format every
// experiment shares, matching the tables recorded in EXPERIMENTS.md.
type table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// newTable creates a table with the given title and column headers.
func newTable(title string, headers ...string) *table {
	return &table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are stringified with %v.
func (t *table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table to w.
func (t *table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "### %s\n\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	line(t.Headers)
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// pad widens s to w columns; a column is a rune, so "µs" and "∞" are
// as wide as their ASCII neighbours.
func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// speedup formats a baseline/variant ratio.
func speedup(baseline, variant time.Duration) string {
	if variant <= 0 {
		return "∞"
	}
	return fmt.Sprintf("%.2fx", float64(baseline)/float64(variant))
}
