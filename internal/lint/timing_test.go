package lint

import (
	"strings"
	"testing"
	"time"
)

// TestInstrument pins the -timing contract: wrappers keep names and docs
// (so suppression matching and -only filtering see the same analyzer
// set), executed rules accumulate nonzero time, and rules that never run
// stay at exactly zero in both the summary and the JSON map.
func TestInstrument(t *testing.T) {
	ran := &Analyzer{Name: "ran", Doc: "runs and sleeps", Run: func(p *Pass) {
		time.Sleep(2 * time.Millisecond)
	}}
	cached := &Analyzer{Name: "cached", Doc: "never executes", Run: func(p *Pass) {}}
	wrapped, tm := Instrument([]*Analyzer{ran, cached})
	if len(wrapped) != 2 {
		t.Fatalf("wrapped %d analyzers, want 2", len(wrapped))
	}
	for i, orig := range []*Analyzer{ran, cached} {
		if wrapped[i].Name != orig.Name || wrapped[i].Doc != orig.Doc {
			t.Errorf("wrapper %d changed identity: %q/%q", i, wrapped[i].Name, wrapped[i].Doc)
		}
	}
	if wrapped[0].Run == nil || wrapped[1].Run == nil {
		t.Fatal("wrappers dropped the run functions")
	}

	// Execute only the first analyzer.
	wrapped[0].Run(nil)

	ms := tm.Milliseconds()
	if len(ms) != 2 {
		t.Fatalf("Milliseconds has %d entries, want 2 (zeros included): %v", len(ms), ms)
	}
	if ms["ran"] <= 0 {
		t.Errorf("executed rule shows %vms, want > 0", ms["ran"])
	}
	if ms["cached"] != 0 {
		t.Errorf("unexecuted rule shows %vms, want exactly 0", ms["cached"])
	}

	sum := tm.Summary()
	for _, want := range []string{"ran", "cached", "total"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	// Slowest first: the executed rule must be listed before the idle one.
	if strings.Index(sum, "ran") > strings.Index(sum, "cached") {
		t.Errorf("summary not sorted slowest-first:\n%s", sum)
	}
}
