package encoding

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// WriteCSVFile writes the table to a new file at path with WriteCSV. A
// failed Close can mean the data never reached disk, so it is reported.
func WriteCSVFile(path string, t *Table) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("encoding: creating %s: %w", path, err)
	}
	err = WriteCSV(f, t)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("encoding: closing %s: %w", path, cerr)
	}
	return err
}

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
