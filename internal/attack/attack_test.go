package attack

import (
	"math/rand"
	"testing"

	"repro/internal/encoding"
	"repro/internal/tensor"
)

// attackTables builds two single-categorical-column clients, as in the
// paper's Fig. 5 example (Gender on client 1, Loan on client 2).
func attackTables(t *testing.T, rows int, seed int64) []*encoding.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	da := tensor.New(rows, 1)
	db := tensor.New(rows, 1)
	for i := 0; i < rows; i++ {
		da.Set(i, 0, float64(rng.Intn(2)))
		db.Set(i, 0, float64(rng.Intn(2)))
	}
	ta, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "gender", Kind: encoding.KindCategorical, Categories: []string{"M", "F"}},
	}, da)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	tb, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "loan", Kind: encoding.KindCategorical, Categories: []string{"Y", "N"}},
	}, db)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return []*encoding.Table{ta, tb}
}

func TestObserveValidation(t *testing.T) {
	a := NewCuriousServer(4)
	if err := a.Observe(tensor.New(2, 4), []int{1}); err == nil {
		t.Fatal("expected row-count mismatch error")
	}
	if err := a.Observe(tensor.New(1, 3), []int{1}); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

func TestReconstructKeepsLatestObservation(t *testing.T) {
	a := NewCuriousServer(2)
	spans := []CVSpan{{Client: 0, Column: 0, Offset: 0, Width: 2}}
	// Round 1: row 3 observed with bit 0; round 2: same row with bit 1.
	cv1 := tensor.New(1, 2)
	cv1.Set(0, 0, 1)
	if err := a.Observe(cv1, []int{3}); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	cv2 := tensor.New(1, 2)
	cv2.Set(0, 1, 1)
	if err := a.Observe(cv2, []int{3}); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	rec := a.Reconstruct(spans)
	bits := rec.Bits[3]
	if len(bits) != 1 || bits[0] != 1 {
		t.Fatalf("reconstructed bits = %v want [1]", bits)
	}
	if len(a.observations) != 1 {
		t.Fatalf("observed %d rows, want 1", len(a.observations))
	}
}

func TestAccuracyPerfectAndWrong(t *testing.T) {
	// Fixed, non-palindromic column so reversing the rows demonstrably
	// breaks the reconstruction.
	da := tensor.FromRows([][]float64{{0}, {0}, {0}, {1}})
	ta, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "gender", Kind: encoding.KindCategorical, Categories: []string{"M", "F"}},
	}, da)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	tables := []*encoding.Table{ta, attackTables(t, 4, 1)[1]}
	spans := []CVSpan{{Client: 0, Column: 0, Offset: 0, Width: 2}}
	a := NewCuriousServer(2)
	// Observe the true category of every row of client 0.
	for i := 0; i < 4; i++ {
		cv := tensor.New(1, 2)
		cv.Set(0, int(tables[0].Data.At(i, 0)), 1)
		if err := a.Observe(cv, []int{i}); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	acc, err := a.Reconstruct(spans).Accuracy(tables, spans)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if acc != 1 {
		t.Fatalf("perfect-information accuracy = %v want 1", acc)
	}
	// Against a permuted table the same reconstruction degrades.
	shuffled := tables[0].ShuffleRows([]int{3, 2, 1, 0})
	acc2, err := a.Reconstruct(spans).Accuracy([]*encoding.Table{shuffled, tables[1]}, spans)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if acc2 >= 1 {
		t.Fatalf("reversed-table accuracy = %v, reconstruction should degrade", acc2)
	}
}

func TestAccuracyNoObservations(t *testing.T) {
	a := NewCuriousServer(2)
	spans := []CVSpan{{Client: 0, Column: 0, Offset: 0, Width: 2}}
	if _, err := a.Reconstruct(spans).Accuracy(attackTables(t, 2, 2), spans); err == nil {
		t.Fatal("expected no-observations error")
	}
}

func TestShufflingAblationDefeatsReconstruction(t *testing.T) {
	tables := attackTables(t, 120, 3)
	res, err := RunShufflingAblation(tables, Config{
		Rounds:        200,
		Batch:         16,
		Seed:          1,
		ShuffleSecret: 99,
	})
	if err != nil {
		t.Fatalf("RunShufflingAblation: %v", err)
	}
	// Without shuffling the server reconstructs nearly perfectly.
	if res.WithoutShuffle < 0.95 {
		t.Fatalf("no-shuffle reconstruction accuracy = %v, attack should succeed", res.WithoutShuffle)
	}
	// With shuffling it collapses towards the chance level (0.5 here).
	if res.WithShuffle > res.ChanceLevel+0.15 {
		t.Fatalf("shuffle reconstruction accuracy = %v vs chance %v: shuffling failed to protect",
			res.WithShuffle, res.ChanceLevel)
	}
	if res.RoundsObserved != 200 {
		t.Fatalf("RoundsObserved = %d", res.RoundsObserved)
	}
}

func TestShufflingAblationValidation(t *testing.T) {
	if _, err := RunShufflingAblation(nil, Config{Rounds: 1, Batch: 1}); err == nil {
		t.Fatal("expected no-tables error")
	}
	tables := attackTables(t, 10, 4)
	if _, err := RunShufflingAblation(tables, Config{}); err == nil {
		t.Fatal("expected config error")
	}
	// Tables without categorical columns cannot be attacked.
	rng := rand.New(rand.NewSource(5))
	cont, err := encoding.NewTable([]encoding.ColumnSpec{
		{Name: "x", Kind: encoding.KindContinuous},
	}, tensor.Randn(rng, 10, 1, 0, 1))
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if _, err := RunShufflingAblation([]*encoding.Table{cont}, Config{Rounds: 1, Batch: 1}); err == nil {
		t.Fatal("expected no-categorical error")
	}
}
