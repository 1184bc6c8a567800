package lint

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Timings accumulates per-rule wall time across a run: the -timing cost
// table, which says where an analysis run spends its time.
type Timings struct {
	mu    sync.Mutex
	names []string // instrumentation order, for deterministic iteration
	spent map[string]time.Duration
}

// Instrument wraps each analyzer so every execution accumulates wall time
// into the returned Timings. Names and docs are unchanged, so suppression
// matching and rule filtering behave identically to the unwrapped
// analyzers.
func Instrument(analyzers []*Analyzer) ([]*Analyzer, *Timings) {
	tm := &Timings{spent: make(map[string]time.Duration)}
	out := make([]*Analyzer, len(analyzers))
	for i, a := range analyzers {
		a := a
		tm.names = append(tm.names, a.Name)
		tm.spent[a.Name] = 0
		out[i] = &Analyzer{Name: a.Name, Doc: a.Doc, Run: func(p *Pass) {
			start := time.Now()
			a.Run(p)
			tm.add(a.Name, time.Since(start))
		}}
	}
	return out, tm
}

func (t *Timings) add(name string, d time.Duration) {
	t.mu.Lock()
	t.spent[name] += d
	t.mu.Unlock()
}

// Milliseconds returns per-rule wall time in milliseconds for every
// instrumented rule, zeros included.
func (t *Timings) Milliseconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, len(t.names))
	for _, name := range t.names {
		out[name] = float64(t.spent[name]) / float64(time.Millisecond)
	}
	return out
}

// Summary renders one aligned line per rule, slowest first, with a total.
func (t *Timings) Summary() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := append([]string(nil), t.names...)
	sort.SliceStable(names, func(i, j int) bool {
		return t.spent[names[i]] > t.spent[names[j]]
	})
	var b strings.Builder
	var total time.Duration
	for _, name := range names {
		d := t.spent[name]
		total += d
		fmt.Fprintf(&b, "%-14s %8.2fms\n", name, float64(d)/float64(time.Millisecond))
	}
	fmt.Fprintf(&b, "%-14s %8.2fms\n", "total", float64(total)/float64(time.Millisecond))
	return b.String()
}
