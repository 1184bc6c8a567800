package encoding

import (
	"bytes"
	"encoding/csv"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tbl := sampleTable(t, rng, 40)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tbl); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("reading back: %v", err)
	}
	if len(records) != tbl.Rows()+1 {
		t.Fatalf("%d CSV records for %d rows and a header", len(records), tbl.Rows())
	}
	for i, rec := range records[1:] {
		for j, s := range tbl.Specs {
			want := tbl.Data.At(i, j)
			if s.Kind == KindCategorical {
				if rec[j] != s.Categories[int(want)] {
					t.Fatalf("row %d %s = %q, want label %q", i, s.Name, rec[j], s.Categories[int(want)])
				}
			} else if got, err := strconv.ParseFloat(rec[j], 64); err != nil || got != want {
				t.Fatalf("row %d %s = %q (%v), want exactly %v", i, s.Name, rec[j], err, want)
			}
		}
	}
}

func TestCSVHeaderHasLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tbl := sampleTable(t, rng, 3)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tbl); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "gender,income,mortgage") {
		t.Fatalf("header = %q", strings.SplitN(out, "\n", 2)[0])
	}
	// Categorical cells must carry labels, not indices.
	if !strings.Contains(out, "M") && !strings.Contains(out, "F") {
		t.Fatal("categorical labels missing from CSV body")
	}
}
