package experiments

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/vfl"
)

// SmokeScale returns a minimal configuration for tests: a handful of
// rounds, two datasets, tiny networks.
func SmokeScale() Scale {
	return Scale{
		Rows:      160,
		Rounds:    4,
		DiscSteps: 1,
		BatchSize: 32,
		BlockDim:  24,
		NoiseDim:  8,
		LR:        5e-4,
		Repeats:   1,
		Datasets:  []string{"loan", "adult"},
		Seed:      1,
	}
}

func TestScaleValidate(t *testing.T) {
	s := Scale{}
	if err := s.validate(); err == nil {
		t.Fatal("zero scale must fail")
	}
	s = DefaultScale()
	if err := s.validate(); err != nil {
		t.Fatalf("default scale invalid: %v", err)
	}
	if s.Parallelism <= 0 {
		t.Fatal("validate must fill parallelism")
	}
}

func TestForEachRunsAll(t *testing.T) {
	done := make([]bool, 20)
	err := forEach(20, 4, func(i int) error {
		done[i] = true
		return nil
	})
	if err != nil {
		t.Fatalf("forEach: %v", err)
	}
	for i, d := range done {
		if !d {
			t.Fatalf("index %d not executed", i)
		}
	}
}

func TestForEachPropagatesError(t *testing.T) {
	err := forEach(10, 3, func(i int) error {
		if i == 7 {
			return errTest
		}
		return nil
	})
	if err != errTest {
		t.Fatalf("forEach error = %v", err)
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "test error" }

func TestRandomEvenAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, err := randomEvenAssignment(rng, 11, 3)
	if err != nil {
		t.Fatalf("randomEvenAssignment: %v", err)
	}
	counts := make([]int, 3)
	for _, p := range a {
		counts[p]++
	}
	for _, c := range counts {
		if c < 3 || c > 4 {
			t.Fatalf("uneven counts %v", counts)
		}
	}
	if _, err := randomEvenAssignment(rng, 2, 3); err == nil {
		t.Fatal("expected error")
	}
}

func TestPartitionFraction(t *testing.T) {
	for _, tc := range []struct {
		label string
		want  float64
	}{{"1090", 0.10}, {"5050", 0.50}, {"9010", 0.90}} {
		got, err := partitionFraction(tc.label)
		if err != nil || got != tc.want {
			t.Fatalf("partitionFraction(%s) = %v, %v", tc.label, got, err)
		}
	}
	if _, err := partitionFraction("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestAverageCells(t *testing.T) {
	a := CellResult{JSD: 0.2, WD: 0.4, DiffCorr: 2}
	b := CellResult{JSD: 0.4, WD: 0.8, DiffCorr: 4}
	avg := averageCells([]CellResult{a, b})
	const tol = 1e-12
	if diff := avg.JSD - 0.3; diff > tol || diff < -tol {
		t.Fatalf("averageCells JSD = %v", avg.JSD)
	}
	if diff := avg.WD - 0.6; diff > tol || diff < -tol {
		t.Fatalf("averageCells WD = %v", avg.WD)
	}
	if diff := avg.DiffCorr - 3; diff > tol || diff < -tol {
		t.Fatalf("averageCells DiffCorr = %v", avg.DiffCorr)
	}
}

func TestRunFig3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment in -short mode")
	}
	s := SmokeScale()
	s.Datasets = []string{"loan"}
	res, err := RunFig3(s)
	if err != nil {
		t.Fatalf("RunFig3: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Dataset != "loan" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	for _, v := range []float64{res.Rows[0].SettingA, res.Rows[0].SettingB, res.Rows[0].SettingC} {
		if v < 0 || v > 1 {
			t.Fatalf("F1 %v out of range", v)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "Setting-C") {
		t.Fatalf("render output missing headers:\n%s", buf.String())
	}
}

func TestRunFig8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment in -short mode")
	}
	s := SmokeScale()
	s.Datasets = []string{"loan"}
	res, err := RunFig8(s)
	if err != nil {
		t.Fatalf("RunFig8: %v", err)
	}
	if len(res.Configs) != 10 {
		t.Fatalf("configs = %d want 10", len(res.Configs))
	}
	if res.Configs[0] != CentralizedLabel {
		t.Fatalf("first config = %s", res.Configs[0])
	}
	for _, c := range res.Configs {
		cell, ok := res.Cells[c]
		if !ok {
			t.Fatalf("missing cell for %s", c)
		}
		if cell.JSD < 0 || cell.WD < 0 || cell.DiffCorr < 0 {
			t.Fatalf("negative distances in %s: %+v", c, cell)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "centralized") {
		t.Fatal("render output missing baseline row")
	}
}

func TestRunDataPartitionSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment in -short mode")
	}
	s := SmokeScale()
	s.Datasets = []string{"loan"}
	plan := vfl.Plan{DiscServer: 2, GenClient: 2}
	res, err := RunDataPartition(s, plan)
	if err != nil {
		t.Fatalf("RunDataPartition: %v", err)
	}
	for _, p := range PartitionLabels {
		if _, ok := res.Cells["loan"][p]; !ok {
			t.Fatalf("missing partition %s", p)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if err := RenderTable2(&buf, []*DataPartitionResult{res}); err != nil {
		t.Fatalf("RenderTable2: %v", err)
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatal("table 2 render missing")
	}
}

func TestRunClientCountSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment in -short mode")
	}
	s := SmokeScale()
	s.Datasets = []string{"loan"}
	plan := vfl.Plan{DiscServer: 2, GenClient: 2}
	res, err := RunClientCount(s, plan, []int{2, 3})
	if err != nil {
		t.Fatalf("RunClientCount: %v", err)
	}
	for _, g := range GeneratorSettings {
		for _, k := range []int{2, 3} {
			if _, ok := res.Avg[g][k]; !ok {
				t.Fatalf("missing cell %s/%d", g, k)
			}
			if _, ok := res.DiffCorr[g][k]["loan"]; !ok {
				t.Fatalf("missing diffcorr %s/%d", g, k)
			}
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if err := RenderTable3(&buf, []*ClientCountResult{res}, s.Datasets); err != nil {
		t.Fatalf("RenderTable3: %v", err)
	}
	if !strings.Contains(buf.String(), "Table 3") {
		t.Fatal("table 3 render missing")
	}
}

func TestRunShuffleAttackSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment in -short mode")
	}
	s := SmokeScale()
	s.Datasets = []string{"loan"}
	res, err := RunShuffleAttack(s)
	if err != nil {
		t.Fatalf("RunShuffleAttack: %v", err)
	}
	row := res.Rows[0]
	if row.WithoutShuffle <= row.WithShuffle {
		t.Fatalf("attack must be stronger without shuffling: %+v", row)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "reconstruction") {
		t.Fatal("render output missing title")
	}
}

func TestRunCommOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment in -short mode")
	}
	s := SmokeScale()
	s.Datasets = []string{"loan"}
	res, err := RunCommOverhead(s)
	if err != nil {
		t.Fatalf("RunCommOverhead: %v", err)
	}
	if len(res.Rows) != 11 { // 9 plans + 2 enlarged variants
		t.Fatalf("rows = %d want 11", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.PerRound <= 0 {
			t.Fatalf("config %s has no traffic", row.Config)
		}
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "bytes/round") {
		t.Fatal("render output missing header")
	}
}
