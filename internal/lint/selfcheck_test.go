package lint

import "testing"

// TestModuleIsLintClean runs every analyzer over the whole module — the
// same Run over the same load that ci.sh performs via cmd/gtv-lint — so a
// violation introduced anywhere in the tree fails `go test
// ./internal/lint/...` without needing the CI script. Skipped under
// -short: it type-checks the entire module.
func TestModuleIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module lint sweep in short mode")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := Run(pkgs, Analyzers())
	Relativize(findings, loader.ModuleRoot)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(pkgs) < 10 {
		t.Errorf("loaded only %d packages; the module walk looks broken", len(pkgs))
	}
}

// TestShapeFlowProvesModuleOps pins the analyzer's coverage of the real
// tree: a healthy module has well over a hundred tensor-op call sites
// whose shape constraints discharge statically. A drop below the floor
// means annotations were removed or the interpreter regressed to Top
// somewhere load-bearing.
func TestShapeFlowProvesModuleOps(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module shape sweep in short mode")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	findings, stats := Run(pkgs, []*Analyzer{AnalyzerShapeFlow})
	Relativize(findings, loader.ModuleRoot)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	t.Logf("shapeflow stats: %v", stats)
	if got := stats["shapeflow.ops_proved"]; got < 100 {
		t.Errorf("shapeflow proved %d ops, want >= 100", got)
	}
	if got := stats["shapeflow.shape_annotations"]; got < 40 {
		t.Errorf("shapeflow sees %d annotations, want >= 40", got)
	}
}
