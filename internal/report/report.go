// Package report renders experiment outputs: aligned text tables (the
// shape of the paper's Table I and Table II) and CSV files for the table
// and figure data.
package report

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Table is a simple rectangular table with a header row.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title))); err != nil {
			return fmt.Errorf("report: write title: %w", err)
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if _, err := fmt.Fprintln(tw, strings.Join(t.Headers, "\t")); err != nil {
		return fmt.Errorf("report: write header: %w", err)
	}
	sep := make([]string, len(t.Headers))
	for i, h := range t.Headers {
		sep[i] = strings.Repeat("-", len(h))
	}
	if _, err := fmt.Fprintln(tw, strings.Join(sep, "\t")); err != nil {
		return fmt.Errorf("report: write separator: %w", err)
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(tw, strings.Join(row, "\t")); err != nil {
			return fmt.Errorf("report: write row: %w", err)
		}
	}
	if err := tw.Flush(); err != nil {
		return fmt.Errorf("report: flush table: %w", err)
	}
	return nil
}

// WriteCSV emits headers and rows as RFC-4180-ish CSV (fields containing
// commas or quotes are quoted).
func (t *Table) WriteCSV(w io.Writer) error {
	writeLine := func(cells []string) error {
		quoted := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				quoted[i] = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			} else {
				quoted[i] = c
			}
		}
		_, err := fmt.Fprintln(w, strings.Join(quoted, ","))
		return err
	}
	if err := writeLine(t.Headers); err != nil {
		return fmt.Errorf("report: write csv header: %w", err)
	}
	for _, row := range t.Rows {
		if err := writeLine(row); err != nil {
			return fmt.Errorf("report: write csv row: %w", err)
		}
	}
	return nil
}

// Series is a named sequence of (x, y) points — one figure curve.
type Series struct {
	Name string
	X, Y []float64
}

// WriteSeriesCSV writes one or more series in long format
// (series,x,y per row), the layout plotting tools ingest directly.
func WriteSeriesCSV(w io.Writer, series ...Series) error {
	if _, err := fmt.Fprintln(w, "series,x,y"); err != nil {
		return fmt.Errorf("report: write series header: %w", err)
	}
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("report: series %q has %d x values and %d y values", s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", s.Name, s.X[i], s.Y[i]); err != nil {
				return fmt.Errorf("report: write series row: %w", err)
			}
		}
	}
	return nil
}

// F formats a float compactly for table cells.
func F(v float64) string { return fmt.Sprintf("%.3f", v) }

// FScientific formats with scientific notation for p-values.
func FScientific(v float64) string { return fmt.Sprintf("%.2e", v) }

// FInt formats an integer with thousands separators.
func FInt(v int64) string {
	s := fmt.Sprintf("%d", v)
	if v < 0 {
		return "-" + FInt(-v)
	}
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}
