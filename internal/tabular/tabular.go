// Package tabular renders experiment results as aligned plain-text tables,
// the output format of the benchmark harness (every paper table and figure
// is regenerated as one or more of these).
package tabular

import (
	"fmt"
	"strings"
)

// Table is one renderable result table.
type Table struct {
	// Title is the table headline (e.g. "Figure 13: ...").
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the cells.
	Rows [][]string
	// Notes are printed under the table.
	Notes []string
}

// AddRow appends a row built from the arguments.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddRowf appends a row formatting every value with its verb pair.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		switch v := c.(type) {
		case string:
			row = append(row, v)
		case float64:
			row = append(row, FormatFloat(v))
		case int:
			row = append(row, fmt.Sprintf("%d", v))
		case int64:
			row = append(row, fmt.Sprintf("%d", v))
		default:
			row = append(row, fmt.Sprint(v))
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly with adaptive precision.
func FormatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 100 || v <= -100:
		return fmt.Sprintf("%.1f", v)
	case v >= 1 || v <= -1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

const spaces = "                                                                                                    " // 100

// writePad writes n spaces without allocating for the common short case.
func writePad(b *strings.Builder, n int) {
	for n > len(spaces) {
		b.WriteString(spaces)
		n -= len(spaces)
	}
	if n > 0 {
		b.WriteString(spaces[:n])
	}
}

// Render draws the table.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", min(len(t.Title), 100)))
		b.WriteByte('\n')
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, len(c))
			} else if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			if i == 0 {
				// Left-align the first (label) column.
				b.WriteString(c)
				writePad(&b, pad)
			} else {
				writePad(&b, pad)
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Header) > 0 {
		line(t.Header)
		var total int
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("-", max(total-2, 4)))
		b.WriteByte('\n')
	}
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		b.WriteString("  note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}
