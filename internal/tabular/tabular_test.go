package tabular

import (
	"strings"
	"testing"
)

func TestRenderBasic(t *testing.T) {
	tbl := &Table{
		Title:  "Demo",
		Header: []string{"name", "value"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow("alpha", "1")
	tbl.AddRow("b", "22")
	out := tbl.Render()
	if !strings.Contains(out, "Demo\n====") {
		t.Fatalf("missing title underline:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	var header, rowA, rowB string
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "name"):
			header = l
		case strings.HasPrefix(l, "alpha"):
			rowA = l
		case strings.HasPrefix(l, "b"):
			rowB = l
		}
	}
	if header == "" || rowA == "" || rowB == "" {
		t.Fatalf("rows missing:\n%s", out)
	}
	// Numeric column right-aligned: the '1' and '22' must end at the same
	// column.
	if len(rowA) != len(strings.TrimRight(rowA, " ")) {
		t.Fatalf("trailing spaces on %q", rowA)
	}
	if !strings.Contains(out, "note: a note") {
		t.Fatalf("missing note:\n%s", out)
	}
}

func TestRenderAlignment(t *testing.T) {
	tbl := &Table{Header: []string{"k", "v"}}
	tbl.AddRow("longlabel", "5")
	tbl.AddRow("x", "123456")
	out := tbl.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// All data lines should have the same width (right-aligned last col).
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("columns not aligned:\n%s", out)
	}
}

func TestAddRowf(t *testing.T) {
	tbl := &Table{}
	tbl.AddRowf("s", 1.5, 3, int64(9), uint(2))
	row := tbl.Rows[0]
	if row[0] != "s" || row[1] != "1.50" || row[2] != "3" || row[3] != "9" || row[4] != "2" {
		t.Fatalf("AddRowf = %v", row)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1234.5:  "1234",
		150.25:  "150.2",
		12.345:  "12.35",
		0.12345: "0.1235",
		-150.25: "-150.2",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRenderNoHeader(t *testing.T) {
	tbl := &Table{}
	tbl.AddRow("only", "row")
	out := tbl.Render()
	if strings.Contains(out, "---") {
		t.Fatalf("separator without header:\n%s", out)
	}
}

func TestRenderRaggedRows(t *testing.T) {
	tbl := &Table{Header: []string{"a"}}
	tbl.AddRow("x", "extra", "cols")
	// Must not panic and must include all cells.
	out := tbl.Render()
	if !strings.Contains(out, "extra") || !strings.Contains(out, "cols") {
		t.Fatalf("ragged row dropped cells:\n%s", out)
	}
}
