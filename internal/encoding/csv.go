package encoding

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes the table with a header row. Categorical cells are
// rendered with their category labels; numeric cells with full float
// precision.
func WriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	header := make([]string, t.Cols())
	for j, s := range t.Specs {
		header[j] = s.Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("encoding: writing CSV header: %w", err)
	}
	record := make([]string, t.Cols())
	for i := 0; i < t.Rows(); i++ {
		row := t.Data.RawRow(i)
		for j, s := range t.Specs {
			if s.Kind == KindCategorical {
				record[j] = s.Categories[int(row[j])]
			} else {
				record[j] = strconv.FormatFloat(row[j], 'g', -1, 64)
			}
		}
		if err := cw.Write(record); err != nil {
			return fmt.Errorf("encoding: writing CSV row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("encoding: flushing CSV: %w", err)
	}
	return nil
}
