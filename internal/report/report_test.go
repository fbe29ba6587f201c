package report

import (
	"bytes"
	"strings"
	"testing"
)

func sampleTable() *Table {
	t := NewTable("Model Performance", "Scale", "Gravity", "Radiation")
	t.AddRow("National", "0.912", "0.840")
	t.AddRow("State", "0.896", "0.742")
	return t
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Model Performance", "Scale", "National", "0.912", "0.742"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + underline + header + separator + 2 rows.
	if len(lines) != 6 {
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
}

func TestWriteCSV(t *testing.T) {
	tab := NewTable("", "name", "value")
	tab.AddRow("plain", "1")
	tab.AddRow("with,comma", "2")
	tab.AddRow(`with"quote`, "3")
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	if lines[1] != "plain,1" {
		t.Errorf("line 1: %q", lines[1])
	}
	if lines[2] != `"with,comma",2` {
		t.Errorf("line 2: %q", lines[2])
	}
	if lines[3] != `"with""quote",3` {
		t.Errorf("line 3: %q", lines[3])
	}
}

func TestAddRowPadsShortRows(t *testing.T) {
	tab := NewTable("", "a", "b", "c")
	tab.AddRow("only")
	if len(tab.Rows[0]) != 3 {
		t.Errorf("row not padded: %v", tab.Rows[0])
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSeriesCSV(&buf,
		Series{Name: "national", X: []float64{1, 2}, Y: []float64{10, 20}},
		Series{Name: "state", X: []float64{3}, Y: []float64{30}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := "series,x,y\nnational,1,10\nnational,2,20\nstate,3,30\n"
	if out != want {
		t.Errorf("got:\n%s\nwant:\n%s", out, want)
	}
}

func TestWriteSeriesCSVLengthMismatch(t *testing.T) {
	var buf bytes.Buffer
	err := WriteSeriesCSV(&buf, Series{Name: "bad", X: []float64{1}, Y: []float64{1, 2}})
	if err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestFormatters(t *testing.T) {
	if F(0.8163) != "0.816" {
		t.Errorf("F: %s", F(0.8163))
	}
	if FScientific(2.06e-15) != "2.06e-15" {
		t.Errorf("FScientific: %s", FScientific(2.06e-15))
	}
	cases := map[int64]string{
		0:       "0",
		999:     "999",
		1000:    "1,000",
		6304176: "6,304,176",
		-473956: "-473,956",
		1234567: "1,234,567",
	}
	for v, want := range cases {
		if got := FInt(v); got != want {
			t.Errorf("FInt(%d) = %q, want %q", v, got, want)
		}
	}
}
