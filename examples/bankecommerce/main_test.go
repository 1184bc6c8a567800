package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunTiny runs the example end to end at two rounds — small enough for
// -short — so CI executes what it builds.
func TestRunTiny(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 2); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"synthetic table: 800 rows x 6 columns (bank 3 + shop 3)", "across-client Diff.Corr"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}
